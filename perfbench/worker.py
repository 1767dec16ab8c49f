"""Child process of the benchmark, one per set-up and one per timed run.

    python3 perfbench/worker.py setup --workload W --seed N --dir D [--save]
    python3 perfbench/worker.py ops --workload W --seed N --dir D --seconds S --trace 0|1

`setup` imports oximap from the checkout's src/, builds the workload's
inputs and weights, and prints its set-up time (and library versions) as
JSON; with --save it also stores the inputs in D. `ops` loads them, runs
one untimed warm-up op, then timed ops until S seconds have passed,
appending one JSON record per op to D/ops.jsonl as it goes, so that a
killed process still leaves the ops it finished. With --trace 1 the
second half of the time runs under the tracer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# ops 0 .. SCORED_OPS-1 are scored for accuracy as well as checked: scoring
# costs time that would otherwise run ops, and these ops (and so their
# inputs) are the same in every run of a workload
SCORED_OPS = 6


def _import_oximap():
    """Import oximap from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import oximap

    if not Path(oximap.__file__).resolve().is_relative_to(src):
        raise ImportError(f"oximap was imported from {oximap.__file__}, not from {src}")
    return oximap


def _rss_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} not in /proc/self/status")


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def setup(args) -> int:
    t0 = time.perf_counter()
    _import_oximap()
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](workdir=args.dir)
    arrays = workload.build(args.seed)
    setup_s = time.perf_counter() - t0
    if args.save:
        np.savez(Path(args.dir) / "inputs.npz", **arrays)
    print(json.dumps({"setup_s": setup_s, "versions": _versions()}))
    return 0


def _run_op(workload, k, tracer, log):
    """Run op k, check it, and append its record to the log; returns the record."""
    rec = {"k": k}
    try:
        if tracer is not None:
            tracer.begin_op()
        try:
            t = time.perf_counter()
            out = workload.op(k)
            rec["op_s"] = time.perf_counter() - t
        finally:
            if tracer is not None:
                tracer.end_op()
        error = workload.check(out, k)
        if error is None and k < SCORED_OPS:
            rec["oef_mae"], rec["neg_elbo"] = workload.score(out, k)
            if not (math.isfinite(rec["oef_mae"]) and math.isfinite(rec["neg_elbo"])):
                error = f"non-finite score: oef_mae {rec['oef_mae']}, neg_elbo {rec['neg_elbo']}"
        rec["ok"] = error is None
        if error is not None:
            rec["error"] = error
    except Exception:  # an op that raises is a failed op; the run goes on
        rec.update(ok=False, error=traceback.format_exc())
    if not rec["ok"]:
        print(f"op {k} failed: {rec['error']}", file=sys.stderr)
    log.write(json.dumps(rec) + "\n")
    log.flush()
    return rec


def ops(args) -> int:
    _import_oximap()
    import numpy as np
    from workloads import WORKLOADS

    workdir = Path(args.dir)
    workload = WORKLOADS[args.workload](workdir=workdir)
    with np.load(workdir / "inputs.npz") as z:
        workload.prepare({k: z[k] for k in z.files})
    tracer = None
    if args.trace:
        from tracer import Tracer, summarize

        tracer = Tracer()
    baseline_kb = _rss_kb("VmRSS")
    with open(workdir / "ops.jsonl", "w", encoding="utf-8") as log:
        begin = {"begin": True, "baseline_rss_kb": baseline_kb, "work_per_op": workload.work_per_op}
        log.write(json.dumps(begin) + "\n")
        log.flush()
        _run_op(workload, 0, None, log)  # warm-up: checked, not timed
        k = 1
        start = time.perf_counter()
        untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
        times = []
        while time.perf_counter() < untraced_until:
            rec = _run_op(workload, k, None, log)
            if rec["ok"]:
                times.append(rec["op_s"])
            k += 1
        summary = {"peak_rss_kb": _rss_kb("VmHWM") - baseline_kb}
        if tracer is not None:
            if not times:
                raise RuntimeError("no untraced op succeeded, so the tracing overhead is unknown")
            untraced_min = min(times)
            with tracer:
                while time.perf_counter() < start + args.seconds:
                    _run_op(workload, k, tracer, log)
                    k += 1
            tracer.write(workdir / "spans.npz")
            summary["layers"] = summarize(tracer.ops, untraced_min) if tracer.ops else {}
            span_self = {}
            for rec in tracer.ops:
                for name, s in rec["self_by_span"].items():
                    span_self[name] = span_self.get(name, 0.0) + s / len(tracer.ops)
            summary["self_by_span"] = span_self
        log.write(json.dumps({"summary": summary}) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=("setup", "ops"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--save", action="store_true")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    return setup(args) if args.mode == "setup" else ops(args)


if __name__ == "__main__":
    sys.exit(main())
