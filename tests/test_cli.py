"""Command line surface: artifacts, manifests, exit codes, replay."""

import csv
import json
import struct
import subprocess
import sys
import wave as wave_mod

import numpy as np
import pytest

from emodarts.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from emodarts.derived import load_checkpoint
from emodarts.features import load_edset, save_edset, synth_dataset
from emodarts.genome import deserialize

TINY_INI = """\
[search]
C = 1
N = 1
B_cnn = 1
B_seqnn = 1
channels = 4
hidden = 8
epochs = 2
batch_size = 8
dropout = 0.0
seq_scope = rnn_1
baseline_channels = 4
baseline_dense = 8
baseline_lstm = 8
"""


@pytest.fixture()
def ini(tmp_path):
    p = tmp_path / "tiny.ini"
    p.write_text(TINY_INI)
    return str(p)


@pytest.fixture()
def edset(tmp_path):
    p = tmp_path / "tiny.edset"
    save_edset(synth_dataset(5, 2, dims=(16, 16), seed=0), p)
    return str(p)


def _manifest(primary):
    with open(f"{primary}.manifest.json") as fh:
        return json.load(fh)


class TestGenData:
    def test_writes_dataset_and_manifest(self, tmp_path):
        out = str(tmp_path / "d.edset")
        code = main(["gen-data", "--out", out, "--speakers", "5", "--per",
                     "2", "--dims", "16x16", "--seed", "3"])
        assert code == EXIT_OK
        ds = load_edset(out)
        assert len(ds) == 5 * 4 * 2
        assert ds.features.shape[1:] == (16, 16)
        doc = _manifest(out)
        assert doc["command"] == "gen-data"
        assert doc["seed"] == 3
        assert doc["outputs"] == [out]
        assert doc["flags"]["dims"] == [16, 16]
        assert set(doc["versions"]) == {"emodarts", "python", "numpy",
                                        "scipy"}
        assert "time" not in json.dumps(doc).lower()

    def test_deterministic_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.edset"), str(tmp_path / "b.edset")
        argv = ["gen-data", "--speakers", "5", "--per", "1", "--dims",
                "8x8", "--seed", "9"]
        assert main(argv + ["--out", a]) == EXIT_OK
        assert main(argv + ["--out", b]) == EXIT_OK
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMODARTS_SEED", "777")
        out = str(tmp_path / "env.edset")
        assert main(["gen-data", "--out", out, "--speakers", "5", "--per",
                     "1", "--dims", "8x8"]) == EXIT_OK
        assert _manifest(out)["seed"] == 777
        ref = str(tmp_path / "ref.edset")
        monkeypatch.delenv("EMODARTS_SEED")
        assert main(["gen-data", "--out", ref, "--speakers", "5", "--per",
                     "1", "--dims", "8x8", "--seed", "777"]) == EXIT_OK
        assert open(out, "rb").read() == open(ref, "rb").read()

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMODARTS_SEED", "seven")
        assert main(["gen-data", "--out", str(tmp_path / "x.edset"),
                     "--speakers", "5", "--per", "1"]) == EXIT_IO

    def test_negative_seed_is_usage_error(self, tmp_path):
        out = tmp_path / "x.edset"
        assert main(["gen-data", "--out", str(out), "--speakers", "5",
                     "--per", "1", "--dims", "8x8", "--seed", "-1"]) \
            == EXIT_USAGE
        assert not out.exists()

    def test_negative_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMODARTS_SEED", "-3")
        out = tmp_path / "x.edset"
        assert main(["gen-data", "--out", str(out), "--speakers", "5",
                     "--per", "1", "--dims", "8x8"]) == EXIT_IO
        assert not out.exists()

    def test_too_few_speakers_is_usage_error(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "x.edset"),
                     "--speakers", "3"]) == EXIT_USAGE

    @pytest.mark.parametrize("noise", ["nan", "-1", "inf", "x"])
    def test_bad_noise_is_usage_error(self, tmp_path, noise):
        out = tmp_path / "x.edset"
        assert main(["gen-data", "--out", str(out), "--speakers", "5",
                     "--per", "1", "--dims", "8x8", "--noise", noise]) \
            == EXIT_USAGE
        assert not out.exists()

    def test_bad_dims(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "x.edset"),
                     "--dims", "wide"]) == EXIT_USAGE

    def test_unwritable_out(self, tmp_path):
        out = str(tmp_path / "no" / "such" / "dir" / "x.edset")
        assert main(["gen-data", "--out", out, "--speakers", "5",
                     "--per", "1", "--dims", "8x8"]) == EXIT_IO


class TestUsage:
    def test_missing_required(self):
        assert main(["gen-data"]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["transmogrify"]) == EXIT_USAGE

    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-data" in capsys.readouterr().out

    def test_subcommand_help(self, capsys):
        assert main(["search", "--help"]) == 0
        assert "--retain-all-edges" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["search", "derive", "baseline",
                                         "study"])
    def test_negative_seed_flag(self, tmp_path, command):
        argv = [command, "--data", "d", "--out", str(tmp_path / "o"),
                "--seed", "-1"] + (["--genome", "g"] if command == "derive"
                                   else [])
        assert main(argv) == EXIT_USAGE

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "emodarts.cli",
                               "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "emodarts" in proc.stdout


def _write_wav(path, samples, rate=16384):
    with wave_mod.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(np.asarray(samples).astype("<i2").tobytes())


class TestFeatures:
    def _bundle(self, tmp_path):
        rng = np.random.default_rng(0)
        for name in ("a.wav", "b.wav"):
            _write_wav(tmp_path / name,
                       (rng.normal(size=4096) * 8000).astype(np.int16))
        idx = tmp_path / "index.csv"
        idx.write_text("file,label,speaker\n"
                       "a.wav,happy,s1\n"
                       "b.wav,sad,s2\n")
        return str(idx)

    def test_seed_flag_is_not_accepted(self, tmp_path):
        # features draws nothing at random, so a seed would go unread
        idx = self._bundle(tmp_path)
        out = tmp_path / "w.edset"
        assert main(["features", "--index", idx, "--out", str(out),
                     "--seed", "3"]) == EXIT_USAGE
        assert not out.exists()

    def test_builds_edset(self, tmp_path):
        idx = self._bundle(tmp_path)
        out = str(tmp_path / "w.edset")
        assert main(["features", "--index", idx, "--out", out]) == EXIT_OK
        ds = load_edset(out)
        assert ds.features.shape == (2, 128, 128)
        assert ds.class_names == ["happy", "sad"]
        assert ds.speaker_ids == ["s1", "s2"]
        assert list(ds.labels) == [0, 1]
        doc = _manifest(out)
        assert doc["command"] == "features"
        assert any(p.endswith("a.wav") for p in doc["inputs"])

    def test_zero_frame_rate_wav_exits_74(self, tmp_path):
        # a hand-written 44-byte header: the wave module refuses to write
        # a zero rate, but reads one
        data = np.zeros(64, dtype="<i2").tobytes()
        (tmp_path / "z.wav").write_bytes(struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE", b"fmt ",
            16, 1, 1, 0, 0, 2, 16, b"data", len(data)) + data)
        idx = tmp_path / "index.csv"
        idx.write_text("file,label,speaker\nz.wav,happy,s1\n")
        out = tmp_path / "w.edset"
        assert main(["features", "--index", str(idx), "--out",
                     str(out)]) == EXIT_IO
        assert not out.exists()

    def test_missing_wav(self, tmp_path):
        idx = tmp_path / "index.csv"
        idx.write_text("file,label,speaker\nghost.wav,happy,s1\n")
        assert main(["features", "--index", str(idx), "--out",
                     str(tmp_path / "w.edset")]) == EXIT_IO

    def test_missing_column(self, tmp_path):
        idx = tmp_path / "index.csv"
        idx.write_text("file,label\na.wav,happy\n")
        assert main(["features", "--index", str(idx), "--out",
                     str(tmp_path / "w.edset")]) == EXIT_IO

    def test_empty_index(self, tmp_path):
        idx = tmp_path / "index.csv"
        idx.write_text("file,label,speaker\n")
        assert main(["features", "--index", str(idx), "--out",
                     str(tmp_path / "w.edset")]) == EXIT_IO


class TestSearch:
    def test_writes_genome_history_manifest(self, tmp_path, edset, ini):
        out = str(tmp_path / "g.json")
        hist = str(tmp_path / "h.csv")
        code = main(["search", "--data", edset, "--out", out, "--history",
                     hist, "--config", ini, "--seed", "1"])
        assert code == EXIT_OK
        genome = deserialize(open(out).read())
        assert genome.config["C"] == 1
        with open(hist) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "epoch" and len(rows) == 3
        doc = _manifest(out)
        assert doc["config"]["seq_scope"] == ["rnn_1"]
        assert doc["outputs"] == [out, hist]
        assert doc["flags"]["retain_all_edges"] is False

    def test_deterministic_genome(self, tmp_path, edset, ini):
        outs = []
        for name in ("g1.json", "g2.json"):
            out = str(tmp_path / name)
            assert main(["search", "--data", edset, "--out", out,
                         "--config", ini, "--seed", "5"]) == EXIT_OK
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_missing_data(self, tmp_path, ini):
        assert main(["search", "--data", str(tmp_path / "no.edset"),
                     "--out", str(tmp_path / "g.json"),
                     "--config", ini]) == EXIT_IO

    def test_unknown_config_key(self, tmp_path, edset):
        bad = tmp_path / "bad.ini"
        bad.write_text("[search]\nwarp_factor = 9\n")
        assert main(["search", "--data", edset, "--out",
                     str(tmp_path / "g.json"),
                     "--config", str(bad)]) == EXIT_IO

    def test_removed_time_pool_key(self, tmp_path, edset):
        bad = tmp_path / "bad.ini"
        bad.write_text("[search]\ntime_pool = mean\n")
        assert main(["search", "--data", edset, "--out",
                     str(tmp_path / "g.json"),
                     "--config", str(bad)]) == EXIT_IO

    def test_config_without_section(self, tmp_path, edset):
        bad = tmp_path / "bad.ini"
        bad.write_text("[other]\nepochs = 2\n")
        assert main(["search", "--data", edset, "--out",
                     str(tmp_path / "g.json"),
                     "--config", str(bad)]) == EXIT_IO

    def test_numeric_fault_exits_2_and_flushes(self, tmp_path, ini):
        ds = synth_dataset(5, 1, dims=(16, 16), seed=0)
        ds.features[:] = np.nan
        poisoned = tmp_path / "nan.edset"
        save_edset(ds, poisoned)
        out = str(tmp_path / "g.json")
        hist = str(tmp_path / "h.csv")
        code = main(["search", "--data", str(poisoned), "--out", out,
                     "--history", hist, "--config", ini])
        assert code == EXIT_NUMERIC
        with open(hist) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "epoch"     # header written, no finished epochs
        assert len(rows) == 1

    def test_odd_map_size_exits_64(self, tmp_path):
        # with C=3 the second reduction's input map would have to halve 15
        ini = tmp_path / "c3.ini"
        ini.write_text(TINY_INI.replace("C = 1", "C = 3"))
        data = tmp_path / "odd.edset"
        save_edset(synth_dataset(5, 1, dims=(15, 15), seed=0), data)
        assert main(["search", "--data", str(data), "--out",
                     str(tmp_path / "g.json"), "--config", str(ini)]) \
            == EXIT_USAGE
        assert not (tmp_path / "g.json").exists()


class TestDeriveAndDot:
    @pytest.fixture()
    def genome_path(self, tmp_path, edset, ini):
        out = str(tmp_path / "g.json")
        assert main(["search", "--data", edset, "--out", out, "--config",
                     ini, "--seed", "2"]) == EXIT_OK
        return out

    def test_derive_checkpoint(self, tmp_path, edset, ini, genome_path):
        out = str(tmp_path / "m.ckpt")
        hist = str(tmp_path / "t.csv")
        code = main(["derive", "--genome", genome_path, "--data", edset,
                     "--out", out, "--history", hist, "--config", ini,
                     "--seed", "2", "--epochs", "2"])
        assert code == EXIT_OK
        model, genome, cfg, seed = load_checkpoint(out)
        assert seed == 2 and cfg.C == 1
        with open(hist) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss", "ua", "lr"] and len(rows) == 3

    def test_numeric_fault_exits_2_and_flushes(self, tmp_path, ini,
                                               genome_path):
        ds = synth_dataset(5, 1, dims=(16, 16), seed=0)
        ds.features[:] = np.nan
        poisoned = tmp_path / "nan.edset"
        save_edset(ds, poisoned)
        out = tmp_path / "m.ckpt"
        hist = str(tmp_path / "t.csv")
        code = main(["derive", "--genome", genome_path, "--data",
                     str(poisoned), "--out", str(out), "--history", hist,
                     "--config", ini])
        assert code == EXIT_NUMERIC
        with open(hist) as fh:
            rows = list(csv.reader(fh))
        assert rows == [["epoch", "loss", "ua", "lr"]]
        assert not out.exists()

    def test_derive_bad_genome(self, tmp_path, edset, ini):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["derive", "--genome", str(bad), "--data", edset,
                     "--out", str(tmp_path / "m.ckpt"),
                     "--config", ini]) == EXIT_IO

    def test_export_dot(self, tmp_path, genome_path):
        out = str(tmp_path / "g.dot")
        assert main(["export-dot", "--genome", genome_path,
                     "--out", out]) == EXIT_OK
        text = open(out).read()
        assert text.startswith("digraph")
        assert "c_{t-1}" in text

    def test_export_dot_missing_genome(self, tmp_path):
        assert main(["export-dot", "--genome", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "g.dot")]) == EXIT_IO


class TestBaselineAndStudy:
    def test_baseline_results(self, tmp_path, edset, ini):
        out = str(tmp_path / "res.csv")
        scat = str(tmp_path / "scat.csv")
        code = main(["baseline", "--data", edset, "--out", out, "--scatter",
                     scat, "--kind", "cnn", "--folds", "2", "--epochs", "1",
                     "--config", ini, "--seed", "0"])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "scope" and len(rows) == 3
        assert {r[0] for r in rows[1:]} == {"cnn"}
        with open(scat) as fh:
            srows = list(csv.reader(fh))
        assert len(srows) == 2

    def test_baseline_reports_failed_folds(self, tmp_path, edset, capsys):
        cfg = tmp_path / "blowup.ini"
        cfg.write_text(TINY_INI + "lr_max = 1e200\nlr_min = 1e200\n")
        out = str(tmp_path / "res.csv")
        with np.errstate(all="ignore"):
            assert main(["baseline", "--data", edset, "--out", out, "--kind",
                         "cnn", "--folds", "2", "--epochs", "1", "--config",
                         str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out == f"wrote {out} (2 fold runs failed)\n"

    def test_study_results(self, tmp_path, edset, ini):
        out = str(tmp_path / "res.csv")
        code = main(["study", "--data", edset, "--out", out, "--scopes",
                     "RNN Only", "--folds", "2", "--search-epochs", "1",
                     "--train-epochs", "1", "--config", ini, "--seed", "0"])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert {r[0] for r in rows[1:]} == {"RNN Only"}
        doc = _manifest(out)
        assert doc["flags"]["scopes"] == ["RNN Only"]

    def test_study_unknown_scope(self, tmp_path, edset, ini):
        assert main(["study", "--data", edset, "--out",
                     str(tmp_path / "res.csv"), "--scopes", "GRU Only",
                     "--config", ini]) == EXIT_USAGE


class TestReplay:
    def test_gen_data_replay_is_byte_identical(self, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        first.mkdir()
        second.mkdir()
        out = str(first / "d.edset")
        assert main(["gen-data", "--out", out, "--speakers", "5", "--per",
                     "1", "--dims", "8x8", "--seed", "4"]) == EXIT_OK
        new_out = str(second / "d.edset")
        assert main(["replay", "--manifest", f"{out}.manifest.json",
                     "--out", new_out]) == EXIT_OK
        assert open(out, "rb").read() == open(new_out, "rb").read()
        assert _manifest(new_out)["command"] == "gen-data"

    def test_search_replay_is_byte_identical(self, tmp_path, edset, ini):
        out = str(tmp_path / "g.json")
        hist = str(tmp_path / "h.csv")
        assert main(["search", "--data", edset, "--out", out, "--history",
                     hist, "--config", ini, "--seed", "6"]) == EXIT_OK
        redo = tmp_path / "redo"
        redo.mkdir()
        new_out = str(redo / "g.json")
        assert main(["replay", "--manifest", f"{out}.manifest.json",
                     "--out", new_out]) == EXIT_OK
        assert open(out, "rb").read() == open(new_out, "rb").read()
        assert open(hist, "rb").read() == open(redo / "h.csv", "rb").read()

    def test_replay_manifest_does_not_depend_on_the_working_directory(
            self, tmp_path, edset, ini, monkeypatch):
        out = str(tmp_path / "g.json")
        assert main(["search", "--data", edset, "--out", out, "--history",
                     str(tmp_path / "h.csv"), "--config", ini,
                     "--seed", "6"]) == EXIT_OK
        manifests = []
        for name in ("one", "two"):
            (tmp_path / name / "redo").mkdir(parents=True)
            monkeypatch.chdir(tmp_path / name)
            assert main(["replay", "--manifest", f"{out}.manifest.json",
                         "--out", "redo/g.json"]) == EXIT_OK
            assert (tmp_path / name / "redo" / "h.csv").is_file()
            manifests.append(open("redo/g.json.manifest.json", "rb").read())
        assert manifests[0] == manifests[1]
        assert _manifest(tmp_path / "one" / "redo" / "g.json")["outputs"] == [
            "redo/g.json", "redo/h.csv"]

    def test_manifest_missing(self, tmp_path):
        assert main(["replay", "--manifest", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "x")]) == EXIT_IO

    def test_manifest_not_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        assert main(["replay", "--manifest", str(bad),
                     "--out", str(tmp_path / "x")]) == EXIT_IO

    def test_manifest_that_replays_itself(self, tmp_path):
        bad = tmp_path / "loop.json"
        bad.write_text(json.dumps({
            "command": "replay", "outputs": [str(tmp_path / "x")],
            "argv": ["replay", "--manifest", str(bad),
                     "--out", str(tmp_path / "x")]}))
        assert main(["replay", "--manifest", str(bad),
                     "--out", str(tmp_path / "x")]) == EXIT_IO

    def test_manifest_argv_must_run_its_command(self, tmp_path):
        out = str(tmp_path / "d.edset")
        assert main(["gen-data", "--out", out, "--speakers", "5", "--per",
                     "1", "--dims", "8x8", "--seed", "4"]) == EXIT_OK
        doc = _manifest(out)
        doc["command"] = "search"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        new_out = tmp_path / "redo.edset"
        assert main(["replay", "--manifest", str(bad),
                     "--out", str(new_out)]) == EXIT_IO
        assert not new_out.exists()

    def test_manifest_missing_keys(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"command": "gen-data"}))
        assert main(["replay", "--manifest", str(bad),
                     "--out", str(tmp_path / "x")]) == EXIT_IO


NOT_UTF8 = b"\xff\xfe\x80 not utf-8\n"


def _genome_bytes(b_seqnn=1, channels=4, reduce_ops=("skip_connect",) * 2):
    """A genome for TINY_INI's net; b_seqnn=2 leaves SeqNN node 3 unfed, and
    `reduce_ops` are the reduction cell's ops from input nodes 0 and 1 (a
    missing one drops that edge)."""
    return json.dumps({
        "version": 1, "scope": ["rnn_1", "skip_connect", "none"],
        "cnn_normal": [],
        "cnn_reduce": [{"from_node": i, "to_node": 2, "op": op}
                       for i, op in enumerate(reduce_ops)],
        "seqnn": [{"from_node": i, "to_node": 2, "op": "rnn_1"}
                  for i in (0, 1)],
        "config": {"B": {"cnn": 1, "seqnn": b_seqnn}, "C": 1, "N": 1,
                   "channels": channels, "hidden": 8}}).encode()


@pytest.mark.parametrize("argv,content", [
    (["export-dot", "--genome", "{bad}", "--out", "{tmp}/g.dot"], NOT_UTF8),
    (["derive", "--genome", "{bad}", "--data", "{edset}", "--out",
      "{tmp}/m.ckpt", "--config", "{ini}"], NOT_UTF8),
    (["replay", "--manifest", "{bad}", "--out", "{tmp}/x"], NOT_UTF8),
    (["replay", "--manifest", "{bad}", "--out", "{tmp}/x"], b"5\n"),
    (["replay", "--manifest", "{bad}", "--out", "{tmp}/x"],
     b'{"command": "gen-data", "argv": [], "outputs": {"a": 1}}'),
    (["replay", "--manifest", "{bad}", "--out", "{tmp}/x"],
     b'{"command": "gen-data", "argv": [["x"]], "outputs": ["a"]}'),
    (["replay", "--manifest", "{bad}", "--out", "{tmp}/x"],
     b'{"command": "gen-data", "argv": [], "outputs": ["a", 5]}'),
    (["search", "--data", "{edset}", "--out", "{tmp}/g.json",
      "--config", "{bad}"], NOT_UTF8),
    (["features", "--index", "{bad}", "--out", "{tmp}/w.edset"], NOT_UTF8),
    (["features", "--index", "{bad}", "--out", "{tmp}/w.edset"],
     b"file,label,speaker\na.wav,happy\nb.wav,sad,s2\n"),
    (["search", "--data", "{edset}", "--out", "{tmp}/g.json",
      "--config", "{bad}"], b"[search]\ndropout = x\n"),
    (["search", "--data", "{edset}", "--out", "{tmp}/g.json",
      "--config", "{bad}"], b"[search]\nC = 2.5\n"),
    (["derive", "--genome", "{bad}", "--data", "{edset}", "--out",
      "{tmp}/m.ckpt", "--config", "{ini}"], _genome_bytes(b_seqnn=2)),
    (["derive", "--genome", "{bad}", "--data", "{edset}", "--out",
      "{tmp}/m.ckpt", "--config", "{ini}"], _genome_bytes(channels=0)),
    (["derive", "--genome", "{bad}", "--data", "{edset}", "--out",
      "{tmp}/m.ckpt", "--config", "{ini}"],
     _genome_bytes(reduce_ops=("skip_connect",))),
    (["derive", "--genome", "{bad}", "--data", "{edset}", "--out",
      "{tmp}/m.ckpt", "--config", "{ini}"],
     _genome_bytes(reduce_ops=("skip_connect", "none"))),
], ids=["genome-export-dot", "genome-derive", "manifest", "manifest-number",
        "manifest-outputs-object", "manifest-argv-list-entry",
        "manifest-outputs-number-entry", "config", "index", "index-short-row",
        "config-dropout-x", "config-fractional-C", "genome-orphan-node",
        "genome-zero-channels", "genome-unused-input",
        "genome-none-input"])
def test_bad_input_file_exits_74(tmp_path, edset, ini, argv, content):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    argv = [a.format(bad=bad, tmp=tmp_path, edset=edset, ini=ini)
            for a in argv]
    assert main(argv) == EXIT_IO
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("command", ["search", "derive", "baseline", "study"])
def test_negative_seed_in_config_exits_74(tmp_path, edset, command):
    cfg = tmp_path / "neg.ini"
    cfg.write_text(TINY_INI + "seed = -1\n")
    genome = tmp_path / "g.json"
    genome.write_bytes(_genome_bytes())
    out = tmp_path / "out"
    argv = [command, "--data", edset, "--out", str(out), "--config", str(cfg)]
    if command == "derive":
        argv += ["--genome", str(genome)]
    assert main(argv) == EXIT_IO
    assert not out.exists()


def test_classes_below_the_corpus_labels_is_usage_error(tmp_path, edset):
    # the synthetic corpus has 4 classes; labels 2 and 3 are out of range
    cfg = tmp_path / "two.ini"
    cfg.write_text(TINY_INI + "classes = 2\n")
    out = tmp_path / "g.json"
    assert main(["search", "--data", edset, "--out", str(out),
                 "--config", str(cfg)]) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "baseline_channels = 0", "baseline_dense = 0", "baseline_lstm = 0",
    "lr_max = -1", "momentum = nan", "arch_lr = inf", "weight_decay = -1",
    "arch_beta1 = 1.5", "seq_scope = lstm_1, lstm_1, none"])
def test_out_of_range_config_value_exits_74(tmp_path, edset, line):
    key = line.split()[0]
    text = "".join(row + "\n" for row in TINY_INI.splitlines()
                   if not row.startswith(key + " "))
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text + line + "\n")
    out = tmp_path / "res.csv"
    assert main(["baseline", "--data", edset, "--out", str(out), "--kind",
                 "cnn_lstm", "--folds", "2", "--epochs", "1",
                 "--config", str(cfg)]) == EXIT_IO
    assert not out.exists()
