"""oximap pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: finetune-brain, finetune-asym, infer-brain, pretrain-synth
(see workloads.py and RESULTS.md). Run from the root of a checkout; the
benchmark imports oximap from its src/ directory.

The set-up (import oximap, build inputs and weights from the seed) runs
three times, each in a fresh child process, and `setup_s` is the median.
The timed ops then run in one more child for S seconds, with numeric
library threads pinned to 1, so an OOM kill shows up as failed ops and the
peak memory belongs to this workload alone. Every op's output is checked;
a failed check, an exception or a kill counts as a failed op.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of the
traced second half of the run. The lines before it print every metric by
name with its unit, and the environment. Working files, the run record
(result.json) and the spans of a traced run go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 3
# a run must end within 180 s: three set-ups of about a second each, then
# the ops child, which gets its time plus room for the slowest op
SETUP_TIMEOUT_S = 30
OPS_GRACE_S = 45

# work units of work_per_s, per workload
WORK_UNITS = {
    "finetune-brain": "masked voxel-steps per second",
    "finetune-asym": "masked voxel-steps per second",
    "infer-brain": "masked voxels per second",
    "pretrain-synth": "synthesized rows per second",
}


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _tail(times: list[float]) -> tuple[float, float, int]:
    """Op time at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond); with 10 or fewer samples
    no percentile qualifies and the maximum is returned with 0 beyond.
    """
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORK_UNITS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(workdir)]

    setups = []
    versions = {}
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(WORKER), "setup", *common] + (["--save"] if i == 0 else [])
        try:
            done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return _fail(f"set-up took longer than {SETUP_TIMEOUT_S} s")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return _fail(f"set-up failed with exit code {done.returncode}")
        out = json.loads(done.stdout.strip().splitlines()[-1])
        setups.append(out["setup_s"])
        versions = out["versions"]

    cmd = [sys.executable, str(WORKER), "ops", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, env=env)
    try:
        code = child.wait(timeout=args.seconds + OPS_GRACE_S)
    except subprocess.TimeoutExpired:
        child.kill()
        code = child.wait()
        print(f"perfbench: ops process killed after {args.seconds + OPS_GRACE_S} s", file=sys.stderr)

    begin, summary, records = None, None, []
    log = workdir / "ops.jsonl"
    if log.exists():
        for line in log.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if "begin" in rec:
                begin = rec
            elif "summary" in rec:
                summary = rec["summary"]
            else:
                records.append(rec)
    if begin is None:
        return _fail(f"the ops process ended (exit code {code}) before its first op")
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    if summary is None or code != 0:
        # the process died inside an op (an OOM kill, say): that op failed
        attempted += 1
        failed += 1
        print(f"perfbench: ops process ended with exit code {code} during op {attempted - 1}", file=sys.stderr)
    timed = [r for r in records if r["ok"] and r["k"] > 0]
    if not timed:
        return _fail(f"no timed op succeeded ({failed} of {attempted} failed)")

    times = [r["op_s"] for r in timed]
    tail, tail_pct, beyond = _tail(times)
    if summary is not None:
        peak_kb = summary["peak_rss_kb"]
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss - begin["baseline_rss_kb"]
    scored = [r for r in records if r["ok"] and "oef_mae" in r]
    if not scored:
        return _fail("no scored op succeeded")
    # the end-to-end metrics of BENCHMARK.json; the median op time swings
    # more with the host's load than the tail does (see RESULTS.md), so it
    # is printed without a bound
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.tail": (tail, "s"),
        "work_per_s": (begin["work_per_op"] * len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "oef_mae": (statistics.median(r["oef_mae"] for r in scored), "oef"),
        "neg_elbo": (statistics.median(r["neg_elbo"] for r in scored), "nats"),
    }
    fail_ratio = failed / attempted
    environment = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **versions,
        "seed": args.seed,
        "git_commit": _git_commit(),
    }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    if args.trace:
        layers = (summary or {}).get("layers", {})
        if not layers:
            return _fail("the traced half of the run finished no op")
        metrics = layers
        for name, m in layers.items():
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
        print("  self time per op by span (largest first):")
        for name, s in sorted(summary["self_by_span"].items(), key=lambda kv: -kv[1])[:12]:
            print(f"    {name:44s} {s:10.6f} s")
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
        lines = [
            ("setup_s", f"median of {SETUP_REPEATS} set-ups"),
            ("op_s.tail", f"p{tail_pct:.1f}, {beyond} of {len(times)} timed ops beyond it"),
            ("work_per_s", WORK_UNITS[args.workload]),
            ("peak_rss_mb", "peak of the ops process above its RSS before the first op"),
            ("oef_mae", f"median over the {len(scored)} scored ops"),
            ("neg_elbo", f"minus the masked mean ELBO, median over the {len(scored)} scored ops"),
        ]
        for name, note in lines:
            value, unit = e2e[name]
            print(f"  {name:12s} {value:12.6g} {unit:5s} {note}")
        print(f"  {'op_s.p50':12s} {statistics.median(times):12.6g} s     median of {len(times)} timed ops")
        print(f"  {'fail_ratio':12s} {fail_ratio:12.6g} ratio {failed} of {attempted} ops failed")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "setup_s_runs": setups,
        "fail_ratio": fail_ratio,
        "op_s": {"p50": statistics.median(times), "tail": tail, "tail_percentile": tail_pct,
                 "beyond_tail": beyond, "samples": times},
        "result": result,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
