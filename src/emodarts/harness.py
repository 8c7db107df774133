"""Experiment harness: speaker-disjoint cross-validation, reference
baselines, per-fold runners, and the multi-scope study driver.

Folds never share speakers: speakers are ordered by descending sample
count (index breaking ties) and dealt round-robin into fold groups, so
group sizes stay balanced. Within a fold the remaining samples split
70/30 into a weight-training part and a coefficient-search part,
stratified by (class, speaker) with largest-remainder rounding so the
global 70% target is hit exactly.

Baselines mirror a fixed convolutional recipe: a stride-2 conv, max
pooling, dropout, and a two-layer dense head; the recurrent variants
insert a bidirectional LSTM after pooling and aggregate over time by
mean or by an additive-attention context vector.

A study crosses search scopes with folds. Fold failures (non-finite
losses) are recorded as NA rows rather than aborting the sweep.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import write_csv
from .config import SearchConfig
from .derived import evaluate, instantiate, train_derived
from .errors import ContractViolation, NumericFault
from .features import Dataset
from .genome import Genome, detect_degenerate, extract_genome
from .metrics import ua, wa
from .ops import (SEQNN_OPS, AdditiveAttention, Linear, Module,
                  RecurrentStack, _uniform, count_params)
from .search import search
from .supernet import build_supernet, flatten_bridge
from .tensor import (Tensor, _out_size, concat, conv2d, dropout, max_pool2d,
                     relu, softmax)

__all__ = [
    "STUDY_SCOPES", "SCOPE_OPS", "BASELINE_KINDS", "RESULT_COLUMNS",
    "SCATTER_COLUMNS", "FoldSplit", "FoldResult", "stratified_split",
    "speaker_cv_split", "Baseline", "run_fold", "study",
    "write_results_csv", "write_scatter_csv", "ua", "wa",
]

STUDY_SCOPES = ["emoDARTS", "LSTM Only", "LSTM-Att. Only", "RNN Only",
                "RNN-Att. Only"]

SCOPE_OPS = {
    "emoDARTS": tuple(SEQNN_OPS),
    "LSTM Only": ("lstm_1", "lstm_2", "lstm_3", "lstm_4"),
    "LSTM-Att. Only": ("lstm_att_1", "lstm_att_2"),
    "RNN Only": ("rnn_1", "rnn_2", "rnn_3", "rnn_4"),
    "RNN-Att. Only": ("rnn_att_1", "rnn_att_2"),
}

BASELINE_KINDS = ["cnn", "cnn_lstm", "cnn_lstm_att"]

RESULT_COLUMNS = ["scope", "fold", "ua", "wa", "params", "degenerate_cnn",
                  "degenerate_seqnn", "seed"]
SCATTER_COLUMNS = ["scope", "mean_ua", "std_ua", "params"]


# ---- splitting ----

@dataclass
class FoldSplit:
    fold: int
    train_idx: np.ndarray      # weight-training samples
    val_idx: np.ndarray        # coefficient-search samples
    test_idx: np.ndarray       # held-out speakers
    test_speakers: list        # speaker indices whose samples form test_idx


def stratified_split(labels, speakers, pool, frac: float,
                     rng: np.random.Generator):
    """Split `pool` (index array) into (kept, rest) stratified by
    (class, speaker). Largest-remainder rounding makes len(kept) equal
    round(frac * len(pool)) exactly; both halves come back sorted."""
    labels = np.asarray(labels)
    speakers = np.asarray(speakers)
    pool = np.asarray(pool)
    strata = {}
    for i in pool:
        strata.setdefault((int(labels[i]), int(speakers[i])), []).append(int(i))
    keys = sorted(strata)
    target = int(round(frac * len(pool)))
    quotas, remainders = {}, []
    for key in keys:
        exact = frac * len(strata[key])
        quotas[key] = int(np.floor(exact))
        remainders.append((-(exact - quotas[key]), key))
    short = target - sum(quotas.values())
    for _, key in sorted(remainders)[:short]:
        quotas[key] += 1
    kept_parts, rest_parts = [], []
    for key in keys:
        idx = np.array(strata[key])
        rng.shuffle(idx)
        kept_parts.append(idx[:quotas[key]])
        rest_parts.append(idx[quotas[key]:])
    return (np.sort(np.concatenate(kept_parts)),
            np.sort(np.concatenate(rest_parts)))


def speaker_cv_split(dataset: Dataset, n_folds: int = 5,
                     seed: int = 0) -> list[FoldSplit]:
    labels = np.asarray(dataset.labels)
    speakers = np.asarray(dataset.speakers)
    uniq, counts = np.unique(speakers, return_counts=True)
    if n_folds < 2:
        raise ContractViolation(f"need at least 2 folds, got {n_folds}")
    if len(uniq) < n_folds:
        raise ContractViolation(
            f"{len(uniq)} speakers cannot fill {n_folds} speaker-disjoint folds")
    order = sorted(range(len(uniq)), key=lambda i: (-int(counts[i]), int(uniq[i])))
    groups = [[] for _ in range(n_folds)]
    for pos, i in enumerate(order):
        groups[pos % n_folds].append(int(uniq[i]))

    folds = []
    for f in range(n_folds):
        test_mask = np.isin(speakers, groups[f])
        test_idx = np.flatnonzero(test_mask)
        pool = np.flatnonzero(~test_mask)
        rng = np.random.default_rng([int(seed), f, 0x5AF1])
        train_idx, val_idx = stratified_split(labels, speakers, pool, 0.7, rng)
        folds.append(FoldSplit(
            fold=f,
            train_idx=train_idx,
            val_idx=val_idx,
            test_idx=test_idx,
            test_speakers=list(groups[f])))
    return folds


# ---- baselines ----

class Baseline(Module):
    """Fixed reference model. kind selects the head:

    cnn          conv(k2,s2,p2) -> maxpool(k2,s2) -> dropout -> dense -> dense
    cnn_lstm     ... -> bi-LSTM -> time mean -> dropout -> dense -> dense
    cnn_lstm_att ... -> bi-LSTM -> attention context -> dropout -> dense -> dense
    """

    def __init__(self, kind: str, config: SearchConfig, seed: int,
                 input_hw: tuple[int, int]):
        if kind not in BASELINE_KINDS:
            raise ContractViolation(
                f"unknown baseline {kind!r}, expected one of {BASELINE_KINDS}")
        self.kind = kind
        self.config = config
        self.input_hw = h, w = tuple(input_hw)
        rng = np.random.default_rng([int(seed), 0xBA5E])
        ch = config.baseline_channels
        self.conv_w = _uniform(rng, (ch, 1, 2, 2), 4)
        self.conv_b = _uniform(rng, (1, ch, 1, 1), 4)
        h, w = _out_size(h, 2, 2, 2), _out_size(w, 2, 2, 2)    # conv
        h, w = _out_size(h, 2, 2), _out_size(w, 2, 2)          # max pool
        self._rng = np.random.default_rng([int(seed), 0xBA5E, 0xD0])
        if kind == "cnn":
            flat = ch * h * w
        else:
            self.fwd, self.bwd = (
                RecurrentStack("lstm", 1, ch * w, config.baseline_lstm, rng,
                               attention=False) for _ in range(2))
            flat = 2 * config.baseline_lstm
            if kind == "cnn_lstm_att":
                self.att = AdditiveAttention(flat, rng)
        self.dense1 = Linear(flat, config.baseline_dense, rng)
        self.dense2 = Linear(config.baseline_dense, config.classes, rng)

    def forward_logits(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1:] != (1, *self.input_hw):
            raise ContractViolation(
                f"baseline expects (B, 1, {self.input_hw[0]}, "
                f"{self.input_hw[1]}) input, got {x.shape}")
        y = conv2d(x, self.conv_w, stride=2, padding=2) + self.conv_b
        y = max_pool2d(relu(y), 2, stride=2, padding=0)
        if self.kind == "cnn":
            y = y.reshape(y.shape[0], -1)
        else:
            seq = flatten_bridge(y)
            fwd = self.fwd(seq)
            bwd = self.bwd(seq[:, ::-1])[:, ::-1]
            states = concat([fwd, bwd], axis=2)
            if self.kind == "cnn_lstm":
                y = states.mean(axis=1)
            else:
                y = (self.att.scores(states) * states).sum(axis=1)
        y = dropout(y, self.config.dropout, self._rng, self.training)
        return self.dense2(relu(self.dense1(y)))

    def forward(self, x: Tensor) -> Tensor:
        return softmax(self.forward_logits(x), axis=1)


# ---- fold runners ----

@dataclass
class FoldResult:
    scope: str
    fold: int
    ua: float | None           # None marks a failed fold (NA in CSVs)
    wa: float | None
    params: int | None
    degenerate_cnn: bool
    degenerate_seqnn: bool
    seed: int
    genome: Genome | None = None


def fold_seed(seed: int, scope: str, fold: int) -> int:
    """Stable per-(scope, fold) seed, independent of execution order."""
    tag = STUDY_SCOPES.index(scope) if scope in STUDY_SCOPES \
        else len(STUDY_SCOPES) + BASELINE_KINDS.index(scope)
    return int(np.random.SeedSequence([int(seed), tag, fold]).generate_state(1)[0])


def run_fold(dataset: Dataset, split: FoldSplit, config: SearchConfig,
             scope: str, seed: int, retain_all: bool = False,
             search_epochs: int | None = None,
             train_epochs: int | None = None) -> FoldResult:
    """Search and retrain a `SCOPE_OPS` scope, or fit the baseline a
    `BASELINE_KINDS` name picks, on one fold; score on its test split."""
    input_hw = dataset.features.shape[1:]
    genome, flags = None, {"cnn": False, "seqnn": False}
    if scope in BASELINE_KINDS:
        cfg = replace(config, seed=seed)
        model = Baseline(scope, cfg, seed, input_hw)
    elif scope in SCOPE_OPS:
        cfg = replace(config, seed=seed, seq_scope=tuple(SCOPE_OPS[scope]))
        if search_epochs is not None:
            cfg = replace(cfg, epochs=int(search_epochs))
        net = build_supernet(cfg, np.random.default_rng(cfg.seed),
                             input_hw=input_hw)
        search(net, dataset.split(split.train_idx),
               dataset.split(split.val_idx), cfg)
        genome = extract_genome(net, retain_all=retain_all)
        flags = detect_degenerate(genome)
        model = instantiate(genome, cfg, seed, input_hw)
    else:
        raise ContractViolation(f"unknown scope {scope!r}, expected one of "
                                f"{STUDY_SCOPES + BASELINE_KINDS}")
    train_derived(model, dataset.split(
        np.concatenate([split.train_idx, split.val_idx])),
        cfg, epochs=train_epochs)
    fold_ua, fold_wa = evaluate(model, dataset.split(split.test_idx))
    return FoldResult(scope, split.fold, fold_ua, fold_wa,
                      count_params(model), flags["cnn"], flags["seqnn"],
                      seed, genome=genome)


# The running study's shared run_fold arguments, set once per pool worker.
_shared: tuple = ()


def _share(*args) -> None:
    global _shared
    _shared = args


def _study_task(task, shared: tuple = ()):
    """One fold run; a pool worker takes `shared` from its initializer."""
    split, scope, seed = task
    dataset, config, retain_all, search_epochs, train_epochs = \
        shared or _shared
    try:
        return run_fold(dataset, split, config, scope, seed,
                        retain_all=retain_all, search_epochs=search_epochs,
                        train_epochs=train_epochs)
    except NumericFault:
        return FoldResult(scope, split.fold, None, None, None, False, False,
                          seed)


def study(dataset: Dataset, config: SearchConfig,
          scopes: list | None = None, n_folds: int = 5, seed: int = 0,
          retain_all: bool = False, search_epochs: int | None = None,
          train_epochs: int | None = None,
          jobs: int = 1) -> tuple[list[FoldResult], list[dict]]:
    """Cross every scope (default `STUDY_SCOPES`) with every fold. Returns
    (fold results, scatter rows); scatter values aggregate the folds that
    finished (population std), or None when every fold of a scope failed."""
    scopes = list(STUDY_SCOPES) if scopes is None else scopes
    unknown = [s for s in scopes if s not in STUDY_SCOPES + BASELINE_KINDS]
    if unknown:
        raise ContractViolation(f"unknown scopes {unknown}, expected names "
                                f"from {STUDY_SCOPES + BASELINE_KINDS}")
    splits = speaker_cv_split(dataset, n_folds=n_folds, seed=seed)
    tasks = [(split, scope, fold_seed(seed, scope, split.fold))
             for scope in scopes for split in splits]
    shared = (dataset, config, retain_all, search_epochs, train_epochs)
    workers = min(jobs, len(tasks))   # fork starts every worker at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_share,
                                 initargs=shared) as pool:
            results = list(pool.map(_study_task, tasks))
    else:
        results = [_study_task(t, shared) for t in tasks]

    scatter = []
    for scope in scopes:
        done = [r for r in results if r.scope == scope and r.ua is not None]
        if done:
            uas = np.array([r.ua for r in done])
            scatter.append({"scope": scope,
                            "mean_ua": float(uas.mean()),
                            "std_ua": float(uas.std()),
                            "params": float(np.mean([r.params for r in done]))})
        else:
            scatter.append({"scope": scope, "mean_ua": None, "std_ua": None,
                            "params": None})
    return results, scatter


# ---- CSV writers ----

def write_results_csv(results: list[FoldResult], path) -> None:
    write_csv(path, RESULT_COLUMNS,
              ([getattr(r, c) for c in RESULT_COLUMNS] for r in results))


def write_scatter_csv(scatter: list[dict], path) -> None:
    write_csv(path, SCATTER_COLUMNS,
              ([row[c] for c in SCATTER_COLUMNS] for row in scatter))
