"""Write the artifacts of a fixed pipeline and print their sha256 digests.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/artifact_hashes.py OUTDIR

Two parts run with fixed seeds. The desk run (`run_desk`, which is also the
session fixture of tests/conftest.py) searches, derives, retrains and fits
the CNN baseline on 320 synthetic 32x32 clips, and writes its genome,
search history CSV, derived and baseline training CSVs and checkpoint.
Then, inside OUTDIR, the command line runs gen-data, search, derive,
baseline, study, export-dot and a replay of the search manifest on a
small corpus. One `sha256  name` line is printed per file in OUTDIR.

A change that must keep results byte-identical leaves every line the
same. No file records OUTDIR's path, so two trees can be compared from
runs in different OUTDIRs. Rounding depends on the BLAS thread count,
hence OPENBLAS_NUM_THREADS=1.
"""

import contextlib
import hashlib
import os
import pathlib
import sys
import time

import numpy as np

from emodarts import cli
from emodarts.artifacts import write_file
from emodarts.config import SearchConfig
from emodarts.derived import (evaluate, instantiate, save_checkpoint,
                              train_derived, write_train_csv)
from emodarts.features import synth_dataset
from emodarts.genome import detect_degenerate, extract_genome, serialize
from emodarts.harness import Baseline, speaker_cv_split
from emodarts.search import search, write_history_csv
from emodarts.supernet import build_supernet

CLI_INI = """\
[search]
C = 2
N = 1
B_cnn = 2
B_seqnn = 2
channels = 4
hidden = 8
epochs = 2
batch_size = 7
grad_clip = 1.0
baseline_channels = 4
baseline_dense = 8
baseline_lstm = 8
"""

CLI_STEPS = [
    ["gen-data", "--out", "corpus.edset", "--speakers", "5", "--per", "2",
     "--dims", "16x16", "--seed", "4"],
    ["search", "--data", "corpus.edset", "--out", "genome.json",
     "--history", "search.csv", "--config", "cli.ini", "--seed", "1"],
    ["derive", "--genome", "genome.json", "--data", "corpus.edset",
     "--out", "model.ckpt", "--history", "train.csv", "--config", "cli.ini"],
    ["baseline", "--data", "corpus.edset", "--out", "baseline.csv",
     "--scatter", "baseline_scatter.csv", "--folds", "2", "--jobs", "2",
     "--config", "cli.ini"],
    ["study", "--data", "corpus.edset", "--out", "study.csv", "--scatter",
     "study_scatter.csv", "--scopes", "RNN Only,emoDARTS", "--folds", "2",
     "--jobs", "2", "--config", "cli.ini"],
    ["export-dot", "--genome", "genome.json", "--out", "genome.dot"],
    ["replay", "--manifest", "genome.json.manifest.json", "--out",
     "replay/genome.json"],
]


def run_desk(outdir=None) -> dict:
    """The desk run: a 30-epoch search, 50 epochs of derived-model training
    and a 50-epoch CNN baseline. Artifacts are written only to `outdir`;
    `elapsed` excludes writing them."""
    t0 = time.monotonic()
    ds = synth_dataset(8, 10, dims=(32, 32), noise=0.1, seed=11)
    fold = speaker_cv_split(ds, n_folds=5, seed=11)[0]
    cfg = SearchConfig(C=2, N=1, B_cnn=2, B_seqnn=2, channels=8, hidden=32,
                       epochs=30, batch_size=16, seed=11)
    net = build_supernet(cfg, np.random.default_rng(cfg.seed),
                         input_hw=(32, 32))
    history = search(net, ds.split(fold.train_idx), ds.split(fold.val_idx),
                     cfg)
    genome = extract_genome(net)
    model = instantiate(genome, cfg, seed=11, input_hw=(32, 32))
    trainval = np.concatenate([fold.train_idx, fold.val_idx])
    train_history = train_derived(model, ds.split(trainval), cfg, epochs=50)
    test_ua, test_wa = evaluate(model, ds.split(fold.test_idx))
    base = Baseline("cnn", cfg, seed=11, input_hw=(32, 32))
    base_history = train_derived(base, ds.split(trainval), cfg, epochs=50)
    base_ua, base_wa = evaluate(base, ds.split(fold.test_idx))
    elapsed = time.monotonic() - t0
    if outdir is not None:
        out = pathlib.Path(outdir)
        write_file(out / "desk_genome.json", serialize(genome))
        write_history_csv(history, out / "desk_search.csv")
        write_train_csv(train_history, out / "desk_train.csv")
        write_train_csv(base_history, out / "desk_baseline.csv")
        save_checkpoint(model, out / "desk_model.ckpt")
    return {
        "dataset": ds,
        "fold": fold,
        "config": cfg,
        "history": history,
        "genome": genome,
        "degenerate": detect_degenerate(genome),
        "model": model,
        "test_ua": test_ua,
        "test_wa": test_wa,
        "baseline_ua": base_ua,
        "baseline_wa": base_wa,
        "elapsed": elapsed,
    }


def main(argv) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python tests/artifact_hashes.py OUTDIR", file=sys.stderr)
        return 64
    out = pathlib.Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 64
    run_desk(out)
    os.chdir(out)
    (out / "cli.ini").write_text(CLI_INI)
    (out / "replay").mkdir()
    for step in CLI_STEPS:
        with contextlib.redirect_stdout(sys.stderr):   # keep stdout to hashes
            code = cli.main(step)
        if code != cli.EXIT_OK:
            print(f"{step[0]} exited {code}", file=sys.stderr)
            return code
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
