"""The machine-speed scaling: probe ticks inside a timed call are left out
of its time, and the run's factor scales times and rates opposite ways."""

import probe
import worker
from spans import Spans


def test_ticks_inside_a_call_are_left_out_of_its_time():
    p = probe.Probe()
    counter = worker.Counter(p)

    def call_that_ticks():
        for _ in range(3):
            p.tick()

    _, sec = worker.timed(counter, Spans(False), "t", "t", call_that_ticks)
    assert len(p.ticks) == 3          # not due again right after the call
    assert 0.0 <= sec < 0.1 * min(p.ticks)
    assert counter.attempted == 1 and counter.failed == 0


def test_factor_is_reference_over_the_median_tick():
    p = probe.Probe()
    p.ticks = [0.04, 0.01, 0.02]
    assert p.factor() == probe.REFERENCE_S / 0.02


def test_a_slow_run_scales_times_down_and_rates_up():
    r = {"search": [2.0], "train": [1.0, 3.0, 2.0], "eval": [100.0],
         "baseline": [0.5], "fold_s": 10.0}
    raw = worker.end_to_end([r])
    slow = worker.end_to_end([r], 0.5)
    for name in ("search_epoch_s", "train_epoch_s", "baseline_epoch_s"):
        assert slow[name][0] == raw[name][0] * 0.5
    for name in ("eval_clips_per_s", "fold_runs_per_h"):
        assert slow[name][0] == raw[name][0] / 0.5
    assert raw["train_epoch_s"] == (2.0, "s")
