"""Discrete models instantiated from genomes.

A derived model runs on the same `Backbone` as the search network (stem,
CNN chain, flatten bridge, SeqNN chain, head), with discrete `cell.Cell`s:
each keeps only the genome's retained edges, each realized as a single op
with fresh weights. Norm layers run with affine enabled, and dropout is
applied to the pooled features before the head during training. Training
runs every batch through the search's `_train_step`.

Checkpoints use the container of `artifacts`: one JSON header line
(genome, config, seed, input size), then the raw little-endian float64
payload: every trainable array in declaration order, then every norm
running-statistic buffer in declaration order. Buffers ride along because
a loaded model must evaluate exactly like the saved one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .artifacts import is_int, read_container, write_container, write_csv
from .config import SearchConfig
from .errors import ContractViolation, DataError
from .genome import Genome, deserialize, serialize
from .metrics import ua as ua_metric
from .metrics import wa as wa_metric
from .optim import cosine_lr
from .cell import Cell, augment_scope, component_key
from .ops import CNN_OPS, SEQNN_OPS, count_params
from .search import (_as_xy, _batches, _frozen, _RunningSplit, _sgd,
                     _train_step)
from .supernet import Backbone
from .tensor import Tensor, dropout

__all__ = ["DerivedModel", "instantiate", "train_derived",
           "DerivedEpoch", "TRAIN_COLUMNS", "write_train_csv", "evaluate",
           "save_checkpoint", "load_checkpoint", "count_params",
           "CHECKPOINT_VERSION"]

TRAIN_COLUMNS = ["epoch", "loss", "ua", "lr"]
CHECKPOINT_FORMAT = "emodarts-checkpoint"
CHECKPOINT_VERSION = 2


class DerivedModel(Backbone):
    """The supernet's macro chain with discrete cells and fresh weights.
    Norms are affine, and dropout precedes the head while training."""

    def __init__(self, genome: Genome, config: SearchConfig, seed: int,
                 input_hw: tuple[int, int]):
        echo = genome.config
        self._mask_rng = np.random.default_rng([seed, 0xD0])
        self.genome = genome
        self.config = config
        self.seed = int(seed)
        super().__init__(echo["C"], echo["N"], echo["B"]["cnn"],
                         echo["channels"], echo["hidden"], config.classes,
                         input_hw, np.random.default_rng([seed, 0xDE1]),
                         affine=True)

    def _cell(self, kind: str, reduction: bool,
              rng: np.random.Generator) -> Cell:
        # the full catalog, not genome.scope: any catalog op may be retained
        echo, cnn = self.genome.config, kind == "cnn"
        blueprint = self.genome.components()[component_key(kind, reduction)]
        return Cell(kind, CNN_OPS if cnn else augment_scope(SEQNN_OPS),
                    echo["channels" if cnn else "hidden"], echo["B"][kind],
                    reduction, rng, retained=blueprint)

    def forward_logits(self, x: Tensor) -> Tensor:
        pooled = dropout(self.pooled(x), self.config.dropout, self._mask_rng,
                         self.training)
        return self.head(pooled)


def instantiate(genome: Genome, config: SearchConfig, seed: int,
                input_hw: tuple[int, int]) -> DerivedModel:
    """Fresh-weight model from a genome. Structure comes from the genome's
    config echo; the SearchConfig supplies training-time knobs (classes,
    dropout, optimizer settings)."""
    return DerivedModel(genome, config, seed, input_hw)


@dataclass
class DerivedEpoch:
    epoch: int
    loss: float
    ua: float
    lr: float


def train_derived(model: DerivedModel, train_split, config: SearchConfig,
                  epochs: int | None = None) -> list[DerivedEpoch]:
    """Train through the search's weight step: momentum SGD under a cosine
    schedule from lr_max to lr_min, reaching lr_min exactly on the final
    epoch's history row. The history loss is a mean over samples."""
    x, y = _as_xy(train_split, "train")
    epochs = config.epochs if epochs is None else int(epochs)
    if epochs < 1:
        raise ContractViolation("train_derived needs epochs >= 1")
    opt, sched = _sgd(model.params(), config, epochs)
    rng = np.random.default_rng([config.seed, 0x7A11])
    model.set_training(True)
    history: list[DerivedEpoch] = []
    for epoch in range(epochs):
        lr = cosine_lr(sched, epoch)
        opt.lr = lr
        tally = _RunningSplit(by_sample=True)
        for batch in _batches(len(x), config.batch_size, rng):
            _train_step(model, x[batch], y[batch], opt, tally, history,
                        "training", config.grad_clip)
        history.append(DerivedEpoch(epoch, *tally.summary(), lr))
    return history


def write_train_csv(history: list[DerivedEpoch], path) -> None:
    write_csv(path, TRAIN_COLUMNS,
              ([getattr(r, c) for c in TRAIN_COLUMNS] for r in history))


def evaluate(model: DerivedModel, split, batch_size: int = 64):
    """(UA, WA) on a labeled split, in eval mode with every parameter
    frozen, so no autodiff graph is built. The training flag and
    requires_grad are restored however the call ends."""
    if batch_size < 1:
        raise ContractViolation(f"evaluate wants batch_size >= 1, got {batch_size}")
    x, y = _as_xy(split, "evaluation")
    was_training, preds = model.training, []
    # params() skips frozen tensors: it is walked once, before the freeze
    with _frozen(model.params()):
        try:
            model.set_training(False)
            for lo in range(0, len(x), batch_size):
                logits = model.forward_logits(Tensor(x[lo:lo + batch_size]))
                preds.append(logits.data.argmax(axis=1))
        finally:
            model.set_training(was_training)
    preds = np.concatenate(preds)
    return ua_metric(y, preds), wa_metric(y, preds)


# ---- checkpoints ----

def _state_arrays(model: DerivedModel) -> list[np.ndarray]:
    # frozen parameters too: the payload layout must not depend on them
    return [p.data for p in model.params(frozen=True)] + list(model.buffers())


def save_checkpoint(model: DerivedModel, path) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "genome": json.loads(serialize(model.genome)),
        "config": model.config.to_dict(),
        "seed": model.seed,
        "input_hw": list(model.input_hw),
    }
    payload = np.concatenate([a.ravel() for a in _state_arrays(model)])
    write_container(path, header, payload.astype("<f8").tobytes())


def load_checkpoint(path):
    """Rebuild the saved model; returns (model, genome, config, seed)."""
    header, payload = read_container(
        path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
        ("genome", "config", "seed", "input_hw"))
    hw, seed = header["input_hw"], header["seed"]
    if not (isinstance(hw, list) and len(hw) == 2
            and all(is_int(v) and v > 0 for v in hw)):
        raise DataError(f"checkpoint input_hw {hw!r} is not two positive ints")
    if not is_int(seed) or seed < 0:
        raise DataError(f"checkpoint seed {seed!r} is not a non-negative int")
    for key in ("genome", "config"):
        if not isinstance(header[key], dict):
            raise DataError(f"checkpoint {key} is not an object")
    genome = deserialize(json.dumps(header["genome"]))
    config = SearchConfig.from_dict(header["config"])
    model = instantiate(genome, config, seed, tuple(hw))
    arrays = _state_arrays(model)
    want = sum(a.size for a in arrays)
    flat = np.frombuffer(payload, dtype="<f8")
    if flat.size != want:
        raise DataError(
            f"checkpoint payload has {flat.size} values, model needs {want}")
    offset = 0
    for a in arrays:
        chunk = flat[offset:offset + a.size].reshape(a.shape)
        np.copyto(a, chunk)
        offset += a.size
    return model, genome, config, seed
