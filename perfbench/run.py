"""emodarts benchmark: run one workload, or all of them.

    python3 perfbench/run.py --workload desk_cnn --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one by one

Run from the root of a checkout; the library is imported from its `src`.
Each workload runs in its own process (perfbench/worker.py) with the BLAS
thread count pinned to BLAS_THREADS, so processes x threads stays within
two cores even when the study workload runs two pool workers.

With --trace 0 the last stdout line is {"correct", "attempted", "failed",
"metrics"} holding every end-to-end metric; with --trace 1 it holds every
per-layer metric instead, and the span records go to perfbench/out/. The
full record of a run (machine, checks, set-up samples) is written to
perfbench/out/result_<workload>_seed<seed>_trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("desk_cnn", "long_seq", "study")
BLAS_THREADS = 1
SETUP_REPS = 3
CHILD_TIMEOUT_S = 170

MACHINE_PROBE = """
import json, sys, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name, version = blas.get("name"), blas.get("version")
except Exception:
    name = version = "unknown"
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": name,
                  "blas_version": version}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(env: dict) -> dict:
    probe = subprocess.run([sys.executable, "-c", MACHINE_PROBE], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=60)
    info = json.loads(probe.stdout)
    info.update(nproc=os.cpu_count(), cpu=cpu_model(),
                blas_threads=BLAS_THREADS)
    return info


def worker_cmd(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def time_setup(workload: str, seed: int, env: dict) -> list[float]:
    """Seconds for a fresh process to import, build the corpus and build
    the models, SETUP_REPS times."""
    out = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(worker_cmd(workload, seed, "--setup-only"), env=env,
                       check=True, timeout=CHILD_TIMEOUT_S)
        out.append(time.perf_counter() - t0)
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 env: dict) -> dict:
    setup = [] if trace else time_setup(workload, seed, env)
    proc = subprocess.run(
        worker_cmd(workload, seed, "--seconds", str(seconds),
                   "--trace", str(trace)),
        env=env, stdout=subprocess.PIPE, text=True, check=True,
        timeout=CHILD_TIMEOUT_S)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # set-up is scaled by the speed the worker's probe saw just after
        doc["metrics"]["setup_s"] = {
            "value": statistics.median(setup) * doc["speed"]["factor"],
            "unit": "s"}
        doc["metrics"]["peak_rss_mb"] = {"value": peak_kb / 1024.0,
                                         "unit": "MB"}
        doc["setup_samples_s"] = setup
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "emodarts" / "__init__.py").is_file():
        print(f"perfbench: no emodarts sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        # each workload under its own run.py process, so that
        # RUSAGE_CHILDREN (peak RSS) covers one workload only
        ok = True
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            ok &= subprocess.run(cmd, timeout=2 * CHILD_TIMEOUT_S).returncode == 0
        return 0 if ok else 1

    name = args.workload
    env = child_env()
    info = machine(env)
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()),
          file=sys.stderr)
    doc = run_workload(name, args.seed, args.seconds, args.trace, env)
    OUT.mkdir(exist_ok=True)
    record = dict(doc, workload=name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=info)
    path = OUT / f"result_{name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for key, m in doc["metrics"].items():
        print(f"{name:>9} {key:<34} {m['value']:>14.6g} {m['unit']}",
              file=sys.stderr)
    print(f"{name:>9} attempted={doc['attempted']} failed={doc['failed']} "
          f"correct={doc['correct']}", file=sys.stderr)
    ok = doc["correct"] and not doc["failed"]
    print(json.dumps({k: doc[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
