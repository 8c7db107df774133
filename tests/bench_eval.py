"""Measure `evaluate` on three arms, alternating, and write a BENCH json.

    python tests/bench_eval.py PARENT CHANGE OUT.json

PARENT and CHANGE are the roots of two checkouts. A third arm, part1,
is CHANGE's tree with PARENT's `src/emodarts/ops.py`: the parameter
freeze in `evaluate` without the eval-mode batch-norm fold, so what the
fold adds on its own shows against CHANGE. It is copied to a temporary
directory. For each perfbench workload (desk_cnn, long_seq, study) and
each of PAIRS rounds, every arm runs one process, and the order flips
from round to round (parent, part1, change, then change, part1, parent),
so CHANGE alternates with each other arm. A process imports the library
and perfbench's set-up from its own arm, builds the workload's set-up at
SEED (corpus, fold 0, the workload's fixed genome) and runs `warm_up`.
It trains the derived model and the CNN-LSTM baseline for TRAIN_EPOCHS
epochs each, then times REPS `evaluate` calls of each on fold 0's test
clips. It reports their median clips/s, the (UA, WA) they returned and
the eval-mode logits of the test clips, from which the largest gap
between each arm and CHANGE is recorded. Then PAIRS more rounds per
workload run `perfbench/run.py --seconds 25 --trace 0` in each arm, at
seeds SEED + 1 .. SEED + PAIRS, and every end-to-end metric is compared
between CHANGE and each other arm. BLAS runs on one thread.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("desk_cnn", "long_seq", "study")
ARMS = ("parent", "part1", "change")
PAIRS = 10
SEED = 11
REPS = 12
TRAIN_EPOCHS = 5
TIMEOUT_S = 600


def measure(workload: str) -> dict:
    """One arm of a round: runs inside the tree being measured."""
    from worker import WORKLOADS as SPECS, setup, warm_up
    from emodarts import (Baseline, Tensor, evaluate, instantiate,
                          train_derived)

    ctx = setup(SPECS[workload], SEED)
    warm_up(ctx)
    ds, cfg = ctx.dataset, ctx.config
    trainval, test = ds.split(ctx.trainval), ds.split(ctx.fold.test_idx)
    models = {"derived": instantiate(ctx.genome, cfg, SEED, ctx.spec.dims),
              "baseline": Baseline("cnn_lstm", cfg, SEED, ctx.spec.dims)}
    out = {}
    for name, model in models.items():
        train_derived(model, trainval, cfg, epochs=TRAIN_EPOCHS)
        rates, scores = [], set()
        for _ in range(REPS):
            t0 = time.perf_counter()
            scores.add(evaluate(model, test))
            rates.append(len(test[1]) / (time.perf_counter() - t0))
        model.set_training(False)
        logits = model.forward_logits(Tensor(test[0][:, None])).data
        out[name] = {"clips_per_s": statistics.median(rates),
                     "ua_wa": sorted(scores), "logits": logits.tolist()}
    return out


def run_arm(root: Path, argv: list[str]) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"),
                                           str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def compare(base: list[float], change: list[float], better: str) -> dict:
    """CHANGE against another arm, round by round."""
    sign = 1 if better == "higher" else -1
    b, c = spread(base), spread(change)
    return {"other": b, "change": c,
            "ratio_change_over_other": c["median"] / b["median"],
            "pairs_won_by_change": sum(sign * (y - x) > 0
                                       for x, y in zip(base, change)),
            "median_gap_exceeds_other_iqr":
                sign * (c["median"] - b["median"]) > b["q3"] - b["q1"]}


def rounds(roots: dict, argv_of) -> list[dict]:
    """PAIRS rounds of {arm: result}, the arm order flipping each round."""
    out = []
    for i in range(PAIRS):
        order = ARMS if i % 2 == 0 else ARMS[::-1]
        out.append({arm: run_arm(roots[arm], argv_of(i)) for arm in order})
    return out


def against_change(runs: list[dict], value_of, better: str) -> dict:
    return {f"change_vs_{arm}": compare([value_of(r[arm]) for r in runs],
                                        [value_of(r["change"]) for r in runs],
                                        better)
            for arm in ARMS if arm != "change"}


def evaluate_section(runs: list[dict]) -> dict:
    out = {}
    for name in ("derived", "baseline"):
        scores = runs[0]["parent"][name]["ua_wa"]
        out[name] = {
            "clips_per_s": against_change(
                runs, lambda r: r[name]["clips_per_s"], "higher"),
            "ua_wa": scores,
            "ua_wa_equal": all(r[arm][name]["ua_wa"] == scores
                               for r in runs for arm in ARMS),
            "max_abs_logit_gap_to_change": {arm: max(float(np.abs(np.subtract(
                r[arm][name]["logits"], r["change"][name]["logits"])).max())
                for r in runs) for arm in ARMS if arm != "change"}}
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--measure"]:
        print(json.dumps(measure(argv[1])))
        return 0
    if len(argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change, out = (Path(a).resolve() for a in argv)
    sys.path.insert(0, str(change / "perfbench"))
    import run as perfbench_run
    script = str(Path(__file__).resolve())
    better = {m["name"]: m["better"] for m in json.loads(
        (change / "BENCHMARK.json").read_text())["end_to_end"]}
    doc = {"machine": perfbench_run.machine(perfbench_run.child_env()),
           "method": __doc__.split("\n\n", 2)[2].strip(),
           "seed": SEED, "pairs": PAIRS, "reps_per_arm": REPS,
           "evaluate": {}, "perfbench": {}}
    with tempfile.TemporaryDirectory() as tmp:
        part1 = Path(tmp) / "part1"
        shutil.copytree(change, part1, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", "out"))
        shutil.copy(parent / "src/emodarts/ops.py",
                    part1 / "src/emodarts/ops.py")
        roots = {"parent": parent, "part1": part1, "change": change}
        for workload in WORKLOADS:
            doc["evaluate"][workload] = evaluate_section(rounds(
                roots, lambda i: [script, "--measure", workload]))
        seeds = [SEED + 1 + i for i in range(PAIRS)]
        for workload in WORKLOADS:
            # run.py exits non-zero, which stops this script, unless the
            # run is correct with no failed operation
            runs = rounds(roots, lambda i: [
                "perfbench/run.py", "--workload", workload, "--seed",
                str(seeds[i]), "--seconds", "25", "--trace", "0"])
            doc["perfbench"][workload] = {"seeds": seeds, **{
                m: against_change(runs, lambda r: r["metrics"][m]["value"], b)
                for m, b in better.items()}}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
