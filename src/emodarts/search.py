"""First-order bilevel architecture search.

Each epoch pairs a shuffled stream of architecture-update batches (the
search split, stepped with Adam on the coefficient tables) with a shuffled
stream of weight-update batches (the train split, stepped with momentum
SGD under a cosine schedule). The shorter stream recycles until the longer
one is exhausted. Coefficients and weights belong to disjoint optimizers,
so neither step can touch the other group, and each step freezes the other
group, so its backward computes no gradient the step would discard. Both
steps, and every batch of `derived.train_derived`, run through
`_train_step`.

History carries one row per epoch and nothing that depends on the clock,
which keeps written artifacts byte-reproducible.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .config import SearchConfig
from .errors import ContractViolation, NumericFault
from .metrics import ua as ua_metric
from .optim import SGD, Adam, CosineSchedule, clip_grad_norm, cosine_lr
from .supernet import Supernet
from .tensor import Tensor, cross_entropy, softmax

__all__ = ["EpochStats", "HISTORY_COLUMNS", "alpha_entropy", "search",
           "write_history_csv"]

HISTORY_COLUMNS = ["epoch", "search_loss", "search_ua", "train_loss",
                   "train_ua", "lr", "entropy_cnn", "entropy_seqnn"]


@dataclass
class EpochStats:
    epoch: int
    search_loss: float
    search_ua: float
    train_loss: float
    train_ua: float
    lr: float
    entropy_cnn: float
    entropy_seqnn: float


def alpha_entropy(table: np.ndarray) -> float:
    """Mean Shannon entropy (nats) of softmax over each row."""
    p = softmax(table).data
    ent = -(p * np.log(np.maximum(p, 1e-300))).sum(axis=-1)
    return float(ent.mean())


def _component_entropies(net: Supernet) -> tuple[float, float]:
    cnn_rows = [net.alpha(k).data for k in ("cnn_normal", "cnn_reduce")
                if net.alpha(k) is not None]
    cnn = alpha_entropy(np.concatenate(cnn_rows)) if cnn_rows else float("nan")
    seq = net.alpha("seqnn")
    return cnn, alpha_entropy(seq.data) if seq is not None else float("nan")


def _as_xy(split, name):
    x, y = split
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim == 3:
        x = x[:, None]
    if x.ndim != 4 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ContractViolation(
            f"{name} split: want (n, H, W) or (n, 1, H, W) features with "
            f"matching labels, got {x.shape} / {y.shape}")
    return x, y


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    idx = rng.permutation(n)
    return [idx[i:i + batch_size] for i in range(0, n, batch_size)]


class _RunningSplit:
    """Per-epoch accumulation of loss and predictions for one split. The
    loss is a mean over steps, or over samples when `by_sample` is set."""

    def __init__(self, by_sample: bool = False):
        self.by_sample = by_sample
        self.loss_sum, self.weight = 0.0, 0
        self.labels, self.preds = [], []

    def add(self, loss: float, labels: np.ndarray, logits: np.ndarray):
        w = len(labels) if self.by_sample else 1
        self.loss_sum += loss * w
        self.weight += w
        self.labels.append(labels)
        self.preds.append(logits.argmax(axis=1))

    def summary(self) -> tuple[float, float]:
        return (self.loss_sum / self.weight,
                ua_metric(np.concatenate(self.labels), np.concatenate(self.preds)))


def _sgd(params, config: SearchConfig, epochs: int):
    """The weight optimizer: momentum SGD, and a cosine schedule that
    reaches lr_min on the last of `epochs` epochs."""
    return (SGD(params, lr=config.lr_max, momentum=config.momentum,
                weight_decay=config.weight_decay),
            CosineSchedule(config.lr_max, config.lr_min, max(epochs - 1, 1)))


@contextmanager
def _frozen(params):
    """Switch requires_grad off for `params` for the duration of the block,
    and back on however the block ends."""
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p in params:
            p.requires_grad = True


def _train_step(model, x, y, opt, tally: _RunningSplit, history,
                phase: str, clip: float = 0.0) -> None:
    """One minibatch: forward, cross-entropy, backward, clip `opt`'s
    gradients to global norm `clip` when clip > 0, step `opt`, clear its
    gradients, and tally the batch. Every parameter outside `opt` must be
    frozen. A non-finite loss raises NumericFault carrying `history`, the
    finished epochs (so its length is the current epoch)."""
    logits = model.forward_logits(Tensor(x))
    loss = cross_entropy(logits, y)
    val = loss.item()
    if not np.isfinite(val):
        raise NumericFault(
            f"non-finite {phase} loss at epoch {len(history)}", history=history)
    loss.backward()
    if clip > 0:
        clip_grad_norm(opt.params, clip)
    opt.step()
    opt.zero_grad()
    tally.add(val, y, logits.data)


def search(net: Supernet, train_split, search_split, config: SearchConfig,
           on_step=None) -> list[EpochStats]:
    """Run the bilevel loop for config.epochs epochs, mutating `net`.

    on_step, when given, is called with a dict {"event", "epoch", "step",
    "net"} around each sub-step (events pre_alpha, post_alpha, pre_weight,
    post_weight); it exists so tests can watch group isolation at byte
    level. A non-finite loss aborts with NumericFault carrying the
    completed history rows.
    """
    xt, yt = _as_xy(train_split, "train")
    xs, ys = _as_xy(search_split, "search")
    alphas = net.arch_params()
    if not alphas:
        raise ContractViolation("nothing to search: no coefficient tables")
    w_opt, sched = _sgd(net.params(), config, config.epochs)
    a_opt = Adam(alphas, lr=config.arch_lr,
                 betas=(config.arch_beta1, config.arch_beta2),
                 weight_decay=config.arch_weight_decay)
    rng = np.random.default_rng([config.seed, 0x5EA2C4])
    net.set_training(True)
    # a step fills and clears only its own group: start both empty
    w_opt.zero_grad()
    a_opt.zero_grad()

    def emit(event, epoch, step):
        if on_step is not None:
            on_step({"event": event, "epoch": epoch, "step": step, "net": net})

    history: list[EpochStats] = []
    for epoch in range(config.epochs):
        lr = cosine_lr(sched, epoch)
        w_opt.lr = lr
        tb = _batches(len(xt), config.batch_size, rng)
        sb = _batches(len(xs), config.batch_size, rng)
        run_t, run_s = _RunningSplit(), _RunningSplit()
        for i in range(max(len(tb), len(sb))):
            sidx, tidx = sb[i % len(sb)], tb[i % len(tb)]
            emit("pre_alpha", epoch, i)
            with _frozen(w_opt.params):
                _train_step(net, xs[sidx], ys[sidx], a_opt, run_s, history,
                            "search")
            emit("post_alpha", epoch, i)
            emit("pre_weight", epoch, i)
            with _frozen(alphas):
                _train_step(net, xt[tidx], yt[tidx], w_opt, run_t, history,
                            "train", config.grad_clip)
            emit("post_weight", epoch, i)

        history.append(EpochStats(epoch, *run_s.summary(), *run_t.summary(),
                                  lr, *_component_entropies(net)))
    return history


def write_history_csv(history: list[EpochStats], path) -> None:
    write_csv(path, HISTORY_COLUMNS,
              ([getattr(r, c) for c in HISTORY_COLUMNS] for r in history))
