"""Optimizers and the cosine learning-rate schedule.

Two parameter groups exist in this system and each has its own optimizer:
network weights take SGD with momentum, architecture coefficients take
Adam. Both optimizers refuse to step a parameter whose gradient is absent,
because a silently skipped parameter is a bug in the training loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .tensor import Tensor

__all__ = ["SGD", "Adam", "CosineSchedule", "cosine_lr", "clip_grad_norm"]


class SGD:
    """Momentum SGD with decoupled-from-nothing, classic L2 weight decay:
    the decay term is added to the gradient before the velocity update."""

    def __init__(self, params, lr: float, momentum: float = 0.9,
                 weight_decay: float = 3e-4):
        self.params: list[Tensor] = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ContractViolation(
                    f"SGD.step: parameter {i} (shape {p.shape}) has no gradient")
            g = p.grad + self.weight_decay * p.data
            v = self._velocity[i]
            v *= self.momentum
            v += g
            p.data -= self.lr * v

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


class Adam:
    """Adam with bias correction and L2-style weight decay folded into the
    gradient (not the decoupled variant)."""

    def __init__(self, params, lr: float = 3e-4, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 1e-3):
        self.params: list[Tensor] = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1 ** self._t
        bc2 = 1.0 - self.beta2 ** self._t
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ContractViolation(
                    f"Adam.step: parameter {i} (shape {p.shape}) has no gradient")
            g = p.grad + self.weight_decay * p.data
            m, v = self._m[i], self._v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


@dataclass(frozen=True)
class CosineSchedule:
    lr_max: float
    lr_min: float
    total_epochs: int


def cosine_lr(schedule: CosineSchedule, epoch: int) -> float:
    """Cosine annealing: lr_max at epoch 0, lr_min at epoch total_epochs."""
    if not 0 <= epoch <= schedule.total_epochs:
        raise ContractViolation(
            f"epoch {epoch} outside [0, {schedule.total_epochs}]")
    span = schedule.lr_max - schedule.lr_min
    return schedule.lr_min + 0.5 * span * (
        1.0 + math.cos(math.pi * epoch / schedule.total_epochs))


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale all gradients jointly so their global L2 norm is at most
    max_norm. Returns the pre-clip norm."""
    total = 0.0
    ps = [p for p in params if p.grad is not None]
    for p in ps:
        total += float((p.grad * p.grad).sum())
    total = math.sqrt(total)
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in ps:
            p.grad = p.grad * scale
    return total
