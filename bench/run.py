"""Benchmark of ascl: ASCL training, adversarial training and robustness
evaluation, end to end and layer by layer.

    python3 bench/run.py --workload train-ascl-blobs --seed 1 --seconds 20 --trace 0

Each run is a set of fresh processes that build their own load from the
workload seed: the eval workload's checkpoint is prepared (once per seed
and source tree), set-up is timed in several processes, then one process
runs timed units for ``--seconds`` and checks their outputs. The BLAS
thread count of every process is fixed to 1. Every time is calibrated
against the reference loop in ``calib.py``. The last line of standard
output is the result as JSON; the line before it is the run's record,
which also holds the raw wall times and the environment manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6
PREP_TIMEOUT_S = 60
SETUP_TIMEOUT_S = 30
MEASURE_SLACK_S = 90
WORKLOAD_NAMES = ("train-ascl-blobs", "train-at-moons", "eval-blobs")


class BenchError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    return args


def source_digest():
    """Digest of the program's and the benchmark's sources; it keys the
    prepared eval inputs, so they are remade when either changes."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "ascl").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def run_child(script, args, timeout):
    cmd = [sys.executable, str(BENCH / script), *map(str, args)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{script} did not finish within {timeout} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}:\n{proc.stderr[-4000:]}")


def prepared_dir(seed, digest):
    """Directory with the eval checkpoint and test set for this seed."""
    prep_dir = OUT / "prep" / f"eval-blobs-s{seed}-{digest}"
    if not (prep_dir / "test.ds").is_file():
        tmp = prep_dir.with_name(prep_dir.name + f".tmp{os.getpid()}")
        tmp.mkdir(parents=True)
        run_child("prepare.py", ["--seed", seed, "--out", tmp], PREP_TIMEOUT_S)
        tmp.rename(prep_dir)
    return prep_dir


def timed_worker(calib, args, run_dir, prep_dir, mode, index, timeout):
    """Run one worker process; returns its result and its calibrated set-up
    time, from just before the process is started to the end of set-up."""
    out = run_dir / f"{mode}{index}.json"
    r_before = calib.reference()
    spawned = time.monotonic()
    run_child("worker.py", ["--workload", args.workload, "--seed", args.seed,
                            "--mode", mode, "--seconds", args.seconds, "--trace", args.trace,
                            "--run-dir", run_dir, "--prep-dir", prep_dir, "--out", out],
              timeout)
    result = json.loads(out.read_text())
    raw = result["ready"] - spawned
    return result, raw, calib.calibrated(raw, r_before, result["setup_r_after"])


def manifest(args, digest):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: BLAS_THREADS for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_digest": digest,
        "workload": args.workload,
        "workload_seed": args.seed,
    }


def run(args):
    if not (SRC / "ascl" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'ascl'}")
    os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})
    import calib

    digest = source_digest()
    prep_dir = prepared_dir(args.seed, digest) if args.workload == "eval-blobs" else ""
    run_dir = OUT / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)

    setups_raw, setups = [], []
    for i in range(SETUP_PROBES):
        _, raw, cal = timed_worker(calib, args, run_dir, prep_dir, "setup", i,
                                   SETUP_TIMEOUT_S)
        setups_raw.append(raw)
        setups.append(cal)
    result, raw, cal = timed_worker(calib, args, run_dir, prep_dir, "measure", 0,
                                    args.seconds + MEASURE_SLACK_S)
    setups_raw.append(raw)
    setups.append(cal)

    units = result["units"]
    ok = [u for u in units if u["error"] is None]
    if not ok:
        raise BenchError("every timed unit failed: " + units[0]["error"])
    samples = result["samples_per_unit"]
    plain = [u for u in ok if not u["traced"]]
    if args.trace:
        metrics = {k: (v, unit_of(k)) for k, v in result["layers"].items()}
    else:
        metrics = {
            "samples_per_s": (statistics.median(samples / u["cal_s"] for u in plain), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    record = {
        "manifest": manifest(args, digest),
        "raw": {
            "samples_per_s": statistics.median(samples / u["raw_s"] for u in plain),
            "setup_s": statistics.median(setups_raw),
        },
        "setup_s": {"calibrated": setups, "raw": setups_raw},
        "samples_per_unit": samples,
        "units": units,
        "check_errors": result["check_errors"],
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return {
        "correct": not result["check_errors"],
        "attempted": len(units),
        "failed": len(units) - len(ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, record


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_pct"):
        return "%"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    try:
        result, record = run(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"manifest": record["manifest"], "raw": record["raw"],
                      "check_errors": record["check_errors"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
