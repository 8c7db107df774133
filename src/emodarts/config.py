"""Search and training configuration.

One dataclass carries every tunable the system exposes; commands and file
formats echo subsets of it. Scope strings refer to the SeqNN catalog; the
CNN catalog is always searched in full.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .artifacts import is_int
from .errors import ContractViolation, DataError
from .ops import PASSIVE_OPS, SEQNN_OPS

__all__ = ["SearchConfig"]


@dataclass
class SearchConfig:
    C: int = 4                 # CNN cells
    N: int = 2                 # SeqNN cells
    B_cnn: int = 4             # intermediate nodes per CNN cell
    B_seqnn: int = 4           # intermediate nodes per SeqNN cell
    channels: int = 16         # CNN working width
    hidden: int = 64           # SeqNN working width
    classes: int = 4
    seq_scope: tuple = tuple(SEQNN_OPS)
    epochs: int = 300
    batch_size: int = 16
    lr_max: float = 0.025
    lr_min: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 3e-4
    arch_lr: float = 3e-4
    arch_beta1: float = 0.9
    arch_beta2: float = 0.999
    arch_weight_decay: float = 1e-3
    grad_clip: float = 0.0     # 0 disables clipping; > 0 caps global grad norm
    dropout: float = 0.3       # derived-model head dropout
    seed: int = 0
    baseline_channels: int = 8
    baseline_dense: int = 64
    baseline_lstm: int = 128

    def __post_init__(self):
        self.seq_scope = tuple(self.seq_scope)
        self.validate()

    def validate(self) -> None:
        if self.C < 0 or self.N < 0 or self.C + self.N < 1:
            raise ContractViolation("need C >= 0, N >= 0 and at least one cell")
        if self.B_cnn < 1 or self.B_seqnn < 1:
            raise ContractViolation("cells need at least one intermediate node")
        widths = (self.channels, self.hidden, self.baseline_channels,
                  self.baseline_dense, self.baseline_lstm)
        if min(widths) < 1 or self.classes < 2:
            raise ContractViolation("widths must be positive, classes >= 2")
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractViolation("epochs and batch_size must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractViolation("dropout must lie in [0, 1)")
        rates = {f: getattr(self, f) for f in (
            "lr_max", "lr_min", "momentum", "weight_decay", "arch_lr",
            "arch_beta1", "arch_beta2", "arch_weight_decay", "grad_clip")}
        bad = [f for f, v in rates.items() if not math.isfinite(v)]
        if bad:
            raise ContractViolation(f"{', '.join(bad)} must be finite")
        if not (0.0 <= self.lr_min <= self.lr_max and self.lr_max > 0.0
                and self.arch_lr > 0.0):
            raise ContractViolation(
                "need 0 <= lr_min <= lr_max, lr_max > 0 and arch_lr > 0")
        if not all(0.0 <= rates[f] < 1.0
                   for f in ("momentum", "arch_beta1", "arch_beta2")):
            raise ContractViolation(
                "momentum, arch_beta1 and arch_beta2 must lie in [0, 1)")
        if min(self.weight_decay, self.arch_weight_decay, self.grad_clip) < 0:
            raise ContractViolation(
                "weight_decay, arch_weight_decay and grad_clip must be >= 0")
        if self.seed < 0:
            raise ContractViolation(f"seed must be >= 0, got {self.seed}")
        allowed = set(SEQNN_OPS) | set(PASSIVE_OPS)
        bad = [s for s in self.seq_scope if s not in allowed]
        if bad or not self.seq_scope:
            raise ContractViolation(f"invalid SeqNN scope entries: {bad}")
        if len(set(self.seq_scope)) != len(self.seq_scope):
            raise ContractViolation(f"repeated SeqNN scope entries: "
                                    f"{list(self.seq_scope)}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["seq_scope"] = list(self.seq_scope)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SearchConfig":
        """From JSON or INI values: an int field takes an int or a string
        holding one, a float field a number or a string, none a bool."""
        kinds = {f.name: type(f.default) for f in fields(cls)}
        unknown = sorted(set(d) - set(kinds))
        if unknown:
            raise DataError(f"unknown config keys: {unknown}")
        try:
            kwargs = {}
            for name, v in d.items():
                if isinstance(v, bool) or (kinds[name] is int and not (
                        is_int(v) or isinstance(v, str))):
                    raise TypeError(f"{name} = {v!r} has the wrong type")
                kwargs[name] = kinds[name](v)
            return cls(**kwargs)
        except (TypeError, ValueError, ContractViolation) as exc:
            raise DataError(f"bad config value: {exc}") from exc
