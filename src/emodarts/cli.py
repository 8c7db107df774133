"""Command line interface.

Subcommands cover the full workflow: gen-data (synthetic corpus),
features (WAV files to a dataset), search (architecture search to a
genome), derive (genome to a trained checkpoint), baseline (fixed
reference models under cross-validation), study (scope-by-fold sweep),
export-dot (genome drawing), and replay (re-run a recorded manifest).

Every producing command drops a <primary-out>.manifest.json next to its
primary artifact recording the command, argument vector, effective seed,
library versions, configuration, and input/output paths; nothing in any
artifact depends on wall-clock time, so replaying a manifest with fresh
output paths reproduces the original bytes. Every file is written, and
every text or container input read, through `artifacts`; the manifest is
written last.

Exit codes: 0 success, 2 numeric fault during optimization (partial
history is flushed first), 64 usage errors including unusable flag
values, 74 unreadable, undecodable or malformed input files, including
bad config values.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__
from .artifacts import read_text, write_file
from .config import SearchConfig
from .derived import (evaluate, instantiate, save_checkpoint, train_derived,
                      write_train_csv)
from .errors import ContractViolation, DataError, NumericFault
from .features import (Dataset, load_edset, load_wav, mfcc, pool_downsample,
                       save_edset, synth_dataset)
from .genome import deserialize, detect_degenerate, export_dot, \
    extract_genome, serialize
from .harness import (BASELINE_KINDS, SCOPE_OPS, STUDY_SCOPES,
                      stratified_split, study, write_results_csv,
                      write_scatter_csv)
from .search import search, write_history_csv
from .supernet import build_supernet

__all__ = ["main", "build_parser", "EXIT_OK", "EXIT_NUMERIC", "EXIT_USAGE",
           "EXIT_IO"]

EXIT_OK = 0
EXIT_NUMERIC = 2
EXIT_USAGE = 64
EXIT_IO = 74


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this CLI reserves 2 for
    numeric faults, so usage errors leave through 64 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _dims(text: str):
    try:
        h, w = text.lower().split("x")
        h, w = int(h), int(w)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected HxW such as 128x128, got {text!r}")
    if h < 1 or w < 1:
        raise argparse.ArgumentTypeError("dims must be positive")
    return h, w


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}")
        if v < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {v}")
        return v
    return parse


_positive_int = _int_at_least(1)
_seed_int = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emodarts",
                     description="Differentiable architecture search for "
                                 "speech emotion recognition.")
    parser.add_argument("--version", action="version",
                        version=f"emodarts {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    def common(p, config=True):
        p.add_argument("--seed", type=_seed_int, default=None,
                       help="rng seed (falls back to EMODARTS_SEED, then 0)")
        if config:
            p.add_argument("--config", default=None,
                           help="INI file with a [search] section")

    p = sub.add_parser("gen-data", help="write a synthetic EDSET corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--speakers", type=_positive_int, default=10)
    p.add_argument("--per", type=_positive_int, default=10,
                   help="clips per class per speaker")
    p.add_argument("--dims", type=_dims, default=(128, 128))
    p.add_argument("--noise", type=float, default=0.1)
    common(p, config=False)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("features",
                       help="compute features for WAV files into an EDSET")
    p.add_argument("--index", required=True,
                   help="CSV with columns file,label,speaker; file paths "
                        "resolve relative to the CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("search", help="search a dataset, write a genome")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--history", default=None, help="epoch history CSV")
    p.add_argument("--scope", default=None, choices=STUDY_SCOPES,
                   help="named catalog subset (default: the full catalog, "
                        "or the config file's seq_scope)")
    p.add_argument("--epochs", type=_positive_int, default=None)
    p.add_argument("--retain-all-edges", action="store_true",
                   help="keep every edge instead of the strongest two per node")
    common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("derive",
                       help="train a genome from scratch, write a checkpoint")
    p.add_argument("--genome", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--history", default=None, help="training curve CSV")
    p.add_argument("--epochs", type=_positive_int, default=None)
    common(p)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("baseline",
                       help="cross-validate the fixed reference models")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="per-fold results CSV")
    p.add_argument("--scatter", default=None, help="aggregate CSV")
    p.add_argument("--kind", default="all", choices=BASELINE_KINDS + ["all"])
    p.add_argument("--folds", type=_positive_int, default=5)
    p.add_argument("--epochs", type=_positive_int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    common(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("study",
                       help="cross scope catalogs with speaker folds")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="per-fold results CSV")
    p.add_argument("--scatter", default=None, help="aggregate CSV")
    p.add_argument("--scopes", default=None,
                   help="comma-separated subset of the study scopes")
    p.add_argument("--folds", type=_positive_int, default=5)
    p.add_argument("--search-epochs", type=_positive_int, default=None)
    p.add_argument("--train-epochs", type=_positive_int, default=None)
    p.add_argument("--retain-all-edges", action="store_true")
    p.add_argument("--jobs", type=_positive_int, default=1)
    common(p)
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("export-dot", help="draw a genome as Graphviz input")
    p.add_argument("--genome", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("replay",
                       help="re-run a manifest with fresh output paths")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True,
                   help="replacement for the recorded primary output")
    p.set_defaults(func=_cmd_replay)
    return parser


# ---- shared plumbing ----

def _seed_opt(args) -> int | None:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    raw = os.environ.get("EMODARTS_SEED")
    if raw is None:
        return None
    try:
        return _seed_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise DataError(f"EMODARTS_SEED: {exc}")


def _load_config(path, overrides: dict) -> SearchConfig:
    doc = {}
    if path:
        cp = configparser.ConfigParser()
        cp.optionxform = str          # keys like B_cnn are case-sensitive
        try:
            cp.read_string(read_text(path, "config"), source=str(path))
        except configparser.Error as exc:
            raise DataError(f"malformed config {path}: {exc}") from exc
        if "search" not in cp:
            raise DataError(f"config {path} needs a [search] section")
        doc.update(cp["search"])
        if "seq_scope" in doc:
            doc["seq_scope"] = [s.strip() for s in doc["seq_scope"].split(",")
                                if s.strip()]
    doc.update({k: v for k, v in overrides.items() if v is not None})
    return SearchConfig.from_dict(doc)


def _write_manifest(command: str, argv: list, seed: int,
                    config: SearchConfig | None, inputs: list,
                    outputs: list, flags: dict) -> None:
    doc = {
        "command": command,
        "argv": [str(a) for a in argv],
        "seed": int(seed),
        "versions": {"emodarts": __version__,
                     "python": platform.python_version(),
                     "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "config": None if config is None else config.to_dict(),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "flags": flags,
    }
    write_file(f"{outputs[0]}.manifest.json",
               json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_dataset(path) -> Dataset:
    ds = load_edset(path)
    if len(ds) == 0:
        raise DataError(f"dataset {path} is empty")
    return ds


# ---- commands ----

def _cmd_gen_data(args, argv):
    seed = _seed_opt(args)
    seed = 0 if seed is None else seed
    ds = synth_dataset(args.speakers, args.per, dims=args.dims,
                       noise=args.noise, seed=seed)
    save_edset(ds, args.out)
    _write_manifest("gen-data", argv, seed, None, [], [args.out],
                    {"speakers": args.speakers, "per": args.per,
                     "dims": list(args.dims), "noise": args.noise})
    print(f"wrote {args.out}: {len(ds)} clips, "
          f"{args.speakers} speakers, dims {args.dims[0]}x{args.dims[1]}")
    return EXIT_OK


def _cmd_features(args, argv):
    rows = list(csv.DictReader(read_text(args.index, "index").splitlines()))
    if not rows:
        raise DataError(f"index {args.index} has no rows")
    for col in ("file", "label", "speaker"):
        if any(r.get(col) is None for r in rows):
            raise DataError(f"index {args.index} lacks a {col!r} value")
    base = os.path.dirname(os.path.abspath(args.index))
    class_names = sorted({r["label"] for r in rows})
    speaker_ids = sorted({r["speaker"] for r in rows})
    feats, labels, speakers, wav_paths = [], [], [], []
    for r in rows:
        path = r["file"]
        if not os.path.isabs(path):
            path = os.path.join(base, path)
        wav_paths.append(path)
        feats.append(pool_downsample(mfcc(load_wav(path))))
        labels.append(class_names.index(r["label"]))
        speakers.append(speaker_ids.index(r["speaker"]))
    ds = Dataset(features=np.stack(feats),
                 labels=np.asarray(labels, dtype=np.int64),
                 speakers=np.asarray(speakers, dtype=np.int64),
                 class_names=class_names, speaker_ids=speaker_ids,
                 seed=0, generator={"kind": "wav",
                                    "index": os.path.basename(args.index)})
    save_edset(ds, args.out)
    _write_manifest("features", argv, 0, None, [args.index] + wav_paths,
                    [args.out], {"count": len(ds)})
    print(f"wrote {args.out}: {len(ds)} clips from {args.index}")
    return EXIT_OK


def _cmd_search(args, argv):
    cfg = _load_config(args.config, {
        "seed": _seed_opt(args), "epochs": args.epochs,
        "seq_scope": list(SCOPE_OPS[args.scope]) if args.scope else None})
    ds = _load_dataset(args.data)
    rng = np.random.default_rng([cfg.seed, 0x517])
    train_idx, val_idx = stratified_split(ds.labels, ds.speakers,
                                          np.arange(len(ds)), 0.7, rng)
    net = build_supernet(cfg, np.random.default_rng(cfg.seed),
                         input_hw=ds.features.shape[1:])
    try:
        history = search(net, ds.split(train_idx), ds.split(val_idx), cfg)
    except NumericFault as exc:
        if args.history:
            write_history_csv(exc.history, args.history)
        raise
    genome = extract_genome(net, retain_all=args.retain_all_edges)
    flags = detect_degenerate(genome)
    write_file(args.out, serialize(genome))
    outputs = [args.out]
    if args.history:
        write_history_csv(history, args.history)
        outputs.append(args.history)
    inputs = [args.data] + ([args.config] if args.config else [])
    _write_manifest("search", argv, cfg.seed, cfg, inputs, outputs,
                    {"scope": args.scope,
                     "retain_all_edges": bool(args.retain_all_edges),
                     "degenerate_cnn": flags["cnn"],
                     "degenerate_seqnn": flags["seqnn"]})
    if flags["cnn"] or flags["seqnn"]:
        print(f"warning: degenerate architecture "
              f"(cnn={flags['cnn']}, seqnn={flags['seqnn']})",
              file=sys.stderr)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_derive(args, argv):
    cfg = _load_config(args.config, {"seed": _seed_opt(args),
                                     "epochs": args.epochs})
    genome = deserialize(read_text(args.genome, "genome"))
    ds = _load_dataset(args.data)
    model = instantiate(genome, cfg, cfg.seed, ds.features.shape[1:])
    try:
        history = train_derived(model, (ds.features, ds.labels), cfg)
    except NumericFault as exc:
        if args.history:
            write_train_csv(exc.history, args.history)
        raise
    save_checkpoint(model, args.out)
    outputs = [args.out]
    if args.history:
        write_train_csv(history, args.history)
        outputs.append(args.history)
    ua_v, wa_v = evaluate(model, (ds.features, ds.labels))
    inputs = [args.genome, args.data] + ([args.config] if args.config else [])
    _write_manifest("derive", argv, cfg.seed, cfg, inputs, outputs, {})
    print(f"wrote {args.out}; training-set ua={ua_v:.2f} wa={wa_v:.2f}")
    return EXIT_OK


def _cmd_baseline(args, argv):
    cfg = _load_config(args.config, {"seed": _seed_opt(args),
                                     "epochs": args.epochs})
    ds = _load_dataset(args.data)
    kinds = BASELINE_KINDS if args.kind == "all" else [args.kind]
    results, scatter = study(ds, cfg, scopes=kinds, n_folds=args.folds,
                             seed=cfg.seed, jobs=args.jobs)
    write_results_csv(results, args.out)
    outputs = [args.out]
    if args.scatter:
        write_scatter_csv(scatter, args.scatter)
        outputs.append(args.scatter)
    inputs = [args.data] + ([args.config] if args.config else [])
    _write_manifest("baseline", argv, cfg.seed, cfg, inputs, outputs,
                    {"kind": args.kind, "folds": args.folds,
                     "jobs": args.jobs})
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_study(args, argv):
    cfg = _load_config(args.config, {"seed": _seed_opt(args)})
    ds = _load_dataset(args.data)
    if args.scopes is None:
        scopes = list(STUDY_SCOPES)
    else:
        scopes = [s.strip() for s in args.scopes.split(",") if s.strip()]
        unknown = [s for s in scopes if s not in STUDY_SCOPES]
        if unknown or not scopes:
            raise ContractViolation(
                f"unknown scopes {unknown}, expected among {STUDY_SCOPES}")
    results, scatter = study(ds, cfg, scopes=scopes, n_folds=args.folds,
                             seed=cfg.seed, retain_all=args.retain_all_edges,
                             search_epochs=args.search_epochs,
                             train_epochs=args.train_epochs, jobs=args.jobs)
    write_results_csv(results, args.out)
    outputs = [args.out]
    if args.scatter:
        write_scatter_csv(scatter, args.scatter)
        outputs.append(args.scatter)
    inputs = [args.data] + ([args.config] if args.config else [])
    _write_manifest("study", argv, cfg.seed, cfg, inputs, outputs,
                    {"scopes": scopes, "folds": args.folds,
                     "search_epochs": args.search_epochs,
                     "train_epochs": args.train_epochs,
                     "retain_all_edges": bool(args.retain_all_edges),
                     "jobs": args.jobs})
    failed = sum(1 for r in results if r.ua is None)
    note = f" ({failed} fold runs failed)" if failed else ""
    print(f"wrote {args.out}{note}")
    return EXIT_OK


def _cmd_export_dot(args, argv):
    genome = deserialize(read_text(args.genome, "genome"))
    write_file(args.out, export_dot(genome))
    _write_manifest("export-dot", argv, 0, None, [args.genome], [args.out],
                    {})
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_replay(args, argv):
    try:
        doc = json.loads(read_text(args.manifest, "manifest"))
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest is not valid JSON: {exc}") from exc
    keys = {"command", "argv", "outputs"}
    if not (isinstance(doc, dict) and keys <= set(doc)):
        raise DataError(f"manifest is not an object with keys {sorted(keys)}")
    outputs, old_argv = doc["outputs"], doc["argv"]
    if not (isinstance(outputs, list) and outputs
            and isinstance(old_argv, list)
            and all(isinstance(v, str) for v in outputs + old_argv)):
        raise DataError("manifest records no outputs, or an argv or outputs "
                        "entry that is not a string")
    if old_argv[:1] != [doc["command"]] or doc["command"] == "replay":
        raise DataError(f"manifest argv does not run its recorded command "
                        f"{doc['command']!r}, or runs replay")
    out_dir = os.path.dirname(os.path.abspath(args.out))
    mapping = {outputs[0]: args.out}
    for extra in outputs[1:]:
        mapping[extra] = os.path.join(out_dir, os.path.basename(extra))
    new_argv = [mapping.get(tok, tok) for tok in old_argv]
    return main(new_argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except DataError as exc:
        print(f"emodarts: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"emodarts: io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericFault as exc:
        print(f"emodarts: numeric fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ContractViolation as exc:
        # flag values the pipeline cannot honor are usage errors
        print(f"emodarts: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
