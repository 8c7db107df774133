"""Artifact writes replace their target atomically: a failed write leaves
the old file whole and no temp file behind."""

import os

import numpy as np
import pytest

from emodarts.config import SearchConfig
from emodarts.derived import instantiate, save_checkpoint
from emodarts.genome import extract_genome
from emodarts.search import EpochStats, write_history_csv
from emodarts.supernet import build_supernet


def _model():
    cfg = SearchConfig(C=1, N=1, B_cnn=1, B_seqnn=1, channels=4, hidden=8,
                       seq_scope=("rnn_1",))
    net = build_supernet(cfg, np.random.default_rng(0), input_hw=(8, 8))
    return instantiate(extract_genome(net), cfg, seed=0, input_hw=(8, 8))


def test_failed_replace_keeps_old_bytes(tmp_path, monkeypatch):
    ckpt, hist = tmp_path / "model.ckpt", tmp_path / "history.csv"
    ckpt.write_bytes(b"old checkpoint")
    hist.write_bytes(b"old history")
    model = _model()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        save_checkpoint(model, ckpt)
    with pytest.raises(OSError):
        write_history_csv([EpochStats(0, 1.5, 50.0, 1.25, 62.5, 0.025,
                                      2.0, 1.5)], hist)
    assert ckpt.read_bytes() == b"old checkpoint"
    assert hist.read_bytes() == b"old history"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["history.csv",
                                                          "model.ckpt"]
    # once the rename works the new bytes land, with the mode a plain
    # open(path, "w") would give a new file (not a private 0600 temp mode)
    monkeypatch.undo()
    save_checkpoint(model, ckpt)
    assert ckpt.read_bytes().startswith(b'{"config":')
    umask = os.umask(0)
    os.umask(umask)
    assert ckpt.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["history.csv",
                                                          "model.ckpt"]
