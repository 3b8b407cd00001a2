"""One measuring process: set up a workload, run timed units for a fixed
time, check the outputs, and write the figures as JSON.

Started by ``run.py``; ``--mode setup`` stops after set-up, so that
set-up can be timed in several fresh processes. Imports of numpy and
``ascl`` happen inside ``main`` because they are part of set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--prep-dir", default="")
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import calib
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed, args.run_dir, args.prep_dir)
    setup_self = {}
    if tracer:
        tracer.uninstall()
        setup_self = tracer.self_times()
    ready = time.monotonic()
    result = {"ready": ready, "setup_r_after": calib.reference()}
    if args.mode == "measure":
        # set-up spans are calibrated against the reference right after set-up
        scale = calib.R_NOMINAL / result["setup_r_after"]
        result.update(measure(workload, args, tracer,
                              {k: v * scale for k, v in setup_self.items()}))
    with open(args.out, "w") as fh:
        json.dump(result, fh)


def measure(workload, args, tracer, setup_self):
    import calib

    # untimed warm-up: first BLAS calls and lazy imports
    workload.keep(workload.unit())
    if tracer:
        # tracemalloc slows every allocation, so the unit that measures the
        # per-step allocation peak is not timed
        tracer.measure_memory = True
        tracer.install()
        workload.keep(workload.unit())
        tracer.uninstall()
        tracer.measure_memory = False

    units = []
    r_before = calib.reference()
    deadline = time.monotonic() + args.seconds
    # traced runs alternate untraced and traced units, so the trace's own
    # overhead is measured in the same process
    while time.monotonic() < deadline or (tracer and len(units) < 4):
        traced = bool(tracer) and len(units) % 2 == 1
        first = len(tracer.spans) if traced else 0
        if traced:
            tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            output = workload.unit()
        except Exception as e:  # a failed operation is counted, not fatal
            error = f"{type(e).__name__}: {e}"
        raw = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        r_after = calib.reference()
        cal = calib.calibrated(raw, r_before, r_after)
        unit = {"raw_s": raw, "r_before": r_before, "r_after": r_after, "cal_s": cal,
                "traced": traced, "error": error}
        if traced:
            scale = cal / raw
            unit["self_s"] = {k: v * scale for k, v in tracer.self_times(first).items()}
            unit["incl_s"] = {k: v * scale for k, v in tracer.inclusive_times(first).items()}
            unit["pgd_calls"] = tracer.calls("attacks.pgd_attack", first)
        units.append(unit)
        r_before = r_after
        if error is None:
            workload.keep(output)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = workload.check() if any(u["error"] is None for u in units) else []
    out = {"units": units, "samples_per_unit": workload.samples,
           "peak_rss_mb": peak_rss_mb, "check_errors": errors}
    if tracer:
        out["layers"] = layer_metrics(tracer, units, setup_self)
        tracer.write(os.path.join(args.run_dir, "spans.csv.gz"))
    return out


# layers that also report time including their children, so that a layer's
# share of a training step can be read off
INCLUSIVE = ("training.train_step", "attacks.pgd_attack")
IO_LAYERS = ("models.save_model", "models.load_model", "data.load_dataset",
             "data.build_datasets")


def layer_metrics(tracer, units, setup_self):
    """Per-layer figures of a traced run; seconds are calibrated. Each
    ``*_s`` figure is the median self time per timed unit; the io layers
    also add their self time in one set-up."""
    from spans import SPANS

    traced = [u for u in units if u["traced"] and u["error"] is None]
    plain = [u for u in units if not u["traced"] and u["error"] is None]
    out = {}
    for name in SPANS:
        out[name + "_s"] = statistics.median(u["self_s"].get(name, 0.0) for u in traced)
        if name in IO_LAYERS:
            out[name + "_s"] += setup_self.get(name, 0.0)
    for name in INCLUSIVE:
        out[name + "_incl_s"] = statistics.median(u["incl_s"].get(name, 0.0) for u in traced)
    steps = tracer.steps
    for name, count in (("tensor.tensors_per_step", "tensor.tensors"),
                        ("losses.select_calls_per_step", "losses.select_calls")):
        out[name] = tracer.step_counts[count] / steps if steps else 0.0
    out["attacks.pgd_attack_calls"] = statistics.median(u["pgd_calls"] for u in traced)
    out["training.step_peak_alloc_mb"] = max(tracer.step_peaks, default=0) / 2**20
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(u["cal_s"] for u in traced)
        / statistics.median(u["cal_s"] for u in plain) - 1.0)
    return out


if __name__ == "__main__":
    main()
