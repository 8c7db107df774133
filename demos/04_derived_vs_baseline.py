"""Instantiate a searched genome with fresh weights, train it, and put
the result next to a fixed convolutional baseline on the same fold."""

import os
import tempfile

import numpy as np

from emodarts.config import SearchConfig
from emodarts.derived import evaluate, instantiate, save_checkpoint, \
    load_checkpoint, train_derived
from emodarts.features import synth_dataset
from emodarts.genome import extract_genome
from emodarts.harness import Baseline, speaker_cv_split
from emodarts.ops import count_params
from emodarts.search import search
from emodarts.supernet import build_supernet


def main():
    ds = synth_dataset(n_speakers=6, per=6, dims=(32, 32), seed=21)
    fold = speaker_cv_split(ds, n_folds=3, seed=21)[0]
    cfg = SearchConfig(C=1, N=1, B_cnn=2, B_seqnn=2, channels=8, hidden=16,
                       seq_scope=("lstm_1",), epochs=6, batch_size=16,
                       dropout=0.1, seed=21)

    net = build_supernet(cfg, np.random.default_rng(21), input_hw=(32, 32))
    search(net, ds.split(fold.train_idx), ds.split(fold.val_idx), cfg)
    genome = extract_genome(net)

    # fresh weights: the searched coefficients only fix the wiring
    model = instantiate(genome, cfg, seed=21, input_hw=(32, 32))
    pool = np.concatenate([fold.train_idx, fold.val_idx])
    train_derived(model, ds.split(pool), cfg, epochs=25)
    ua_m, wa_m = evaluate(model, ds.split(fold.test_idx))

    base = Baseline("cnn", cfg, seed=21, input_hw=(32, 32))
    train_derived(base, ds.split(pool), cfg, epochs=25)
    ua_b, wa_b = evaluate(base, ds.split(fold.test_idx))

    print(f"derived : ua {ua_m:5.1f}  wa {wa_m:5.1f}  "
          f"params {count_params(model)}")
    print(f"baseline: ua {ua_b:5.1f}  wa {wa_b:5.1f}  "
          f"params {count_params(base)}")

    path = os.path.join(tempfile.mkdtemp(prefix="emodarts_demo_"),
                        "model.ckpt")
    save_checkpoint(model, path)
    again, _, _, _ = load_checkpoint(path)
    same = evaluate(again, ds.split(fold.test_idx)) == (ua_m, wa_m)
    print("checkpoint restores the exact model:", same)


if __name__ == "__main__":
    main()
