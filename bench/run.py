"""Benchmark of the bm-lab command line, one workload per run.

    python3 bench/run.py --workload density-bulk --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/`` and nothing is installed.  The loop is closed: one caller in
this process drives ``bmlab.cli.run(argv)`` with stdout captured, each
call starting after the previous one returned.  BLAS runs on one thread
and the harness starts no threads.

Set-up (importing bmlab in a fresh interpreter, generating the inputs
from the seed, one warm-up call) is repeated SETUP_REPS times and its
median reported.  The run then makes a fixed number of whole passes over
the workload's call list (the workload sets it per 30 s of --seconds),
timing every call and checking every output with an independent oracle
(bench/oracles.py) and against the first pass's bytes.  Medians keep a
single slow call from moving a metric: ``call_s_p50`` is the median over
the call list of each call's median time, ``calls_per_s`` the median
over passes of calls per second, and ``call_s_tail`` the highest
percentile of all call times with ten samples beyond it.  A call fails on
a wrong exit code, a traceback, a report that differs between passes or
a failed check.  ``correct`` is false unless every failure is a failed
oracle check on a call whose report shows the outcome of a defect the
workload names as known; known defects still count in ``failed``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` untraced and traced passes alternate; the per-layer metrics
(bench/spans.py) are medians over traced passes, per pass, and the
tracing overhead is the difference of the median pass times.  A metric
whose function the tracer could not find reads null.  Spans are
written to bench/_out when the run ends.

The last line of stdout is the result object; the line before it holds
the environment, the sample counts and the failures.  Without a program
source next to it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

SETUP_REPS = 9
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = "import time; t = time.perf_counter(); import bmlab.cli; print(time.perf_counter() - t)"

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_s_p50": "s",
    "call_s_tail": "s",
    "calls_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def invoke(run, argv):
    """One in-process CLI call: (exit code or None on a raise, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors leave through parser.error
            code = exc.code
        except Exception:  # the harness must survive the call to record the failure
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def judge(call, code, out, err, first_out):
    """(None, False) when the call passed, else (one-line reason, known).

    ``known`` is true only when the oracle check failed and the report
    shows the outcome of the call's known defect.  A traceback, a wrong
    exit code, a report that is not JSON, differs from the first pass or
    does not fit its check is never known.
    """
    if code is None or "Traceback" in err:
        lines = err.strip().splitlines() or ["?"]
        return f"traceback: {lines[-1]}", False
    try:
        payload = json.loads(out)
    except ValueError:
        return f"exit {code} without a JSON report", False
    try:
        want = call.expected_exit(payload)
        if code != want:
            return f"exit {code}, expected {want}", False
        if out != first_out:
            return "JSON report differs from the first pass", False
        reason = call.check(payload)
        if reason is None or call.known_defect is None:
            return reason, False
        other = call.defect_check(payload)
        if other is None:
            return reason, True
        return f"{reason}; not the known defect either: {other}", False
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        return f"report does not fit its check: {type(exc).__name__}: {exc}", False


class Tally:
    """Call times and failures of one run."""

    def __init__(self):
        self.times: list[float] = []
        self.by_call: dict[str, list[float]] = {}
        self.failures: dict[tuple[str, str], dict] = {}
        self.failed = 0
        self.unexpected = 0
        self._first: dict[str, str] = {}

    def call(self, run, call, tracer=None) -> float:
        start = perf_counter()
        if tracer is None:
            code, out, err = invoke(run, call.argv)
        else:
            tracer.call = len(self.times)
            code, out, err = tracer.timed(spans.RUN_SPAN, invoke, None, (run, call.argv))
        elapsed = perf_counter() - start
        self.times.append(elapsed)
        label = " ".join(call.argv)
        self.by_call.setdefault(label, []).append(elapsed)
        reason, known = judge(call, code, out, err, self._first.setdefault(label, out))
        if reason is not None:
            self.failed += 1
            self.unexpected += not known
            entry = self.failures.setdefault(
                (label, reason), {"call": label, "count": 0, "reason": reason,
                                  "known_defect": call.known_defect if known else None}
            )
            entry["count"] += 1
        return elapsed

    def run_pass(self, run, workload, tracer=None) -> float:
        return sum(self.call(run, c, tracer) for c in workload.calls)


def tail(times):
    """Highest percentile with at least ten samples beyond it: (value, percent)."""
    s = sorted(times)
    k = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None off Linux.

    The share of time the hypervisor gave to other guests while the run
    measured; on a shared VM it explains run-to-run speed changes.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": int(BLAS_THREADS),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
    }


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: harness self-check sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    # numpy reads the thread limit when it is first imported
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    if not (SRC / "bmlab" / "cli.py").is_file():
        print(f"bench: no program source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bmlab.cli import run

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as tmp:
        setup = []
        for _ in range(SETUP_REPS):
            t_import = import_seconds()
            start = perf_counter()
            workload = workloads.build(args.workload, args.seed, Path(tmp), args.scale == "tiny")
            invoke(run, workload.calls[0].argv)
            setup.append(t_import + perf_counter() - start)
        passes = max(2, round(workload.passes * args.seconds / 30.0))
        tally = Tally()
        before = cpu_ticks()
        if args.trace:
            tracer = spans.Tracer()
            plain, traced, per_pass = [], [], []
            for _ in range(math.ceil(passes / 2)):
                plain.append(tally.run_pass(run, workload))
                first_span = len(tracer.spans)
                with tracer:
                    traced.append(tally.run_pass(run, workload, tracer))
                per_pass.append(spans.layer_metrics(tracer.spans[first_span:], tracer.missing))
            values = {k: None if per_pass[0][k] is None else statistics.median(p[k] for p in per_pass)
                      for k in per_pass[0]}
            if tracer.unwrapped:
                print(f"bench: not traced, metrics null: {', '.join(tracer.unwrapped)}", file=sys.stderr)
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            units = spans.LAYER_UNITS
        else:
            pass_s = [tally.run_pass(run, workload) for _ in range(passes)]
            value_tail, percentile = tail(tally.times)
            values = {
                "setup_s": statistics.median(setup),
                "call_s_p50": statistics.median(map(statistics.median, tally.by_call.values())),
                "call_s_tail": value_tail,
                "calls_per_s": statistics.median(len(workload.calls) / t for t in pass_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pass_ratio": (len(tally.times) - tally.failed) / len(tally.times),
            }
            units = END_TO_END_UNITS
        after = cpu_ticks()
        steal = (after[0] - before[0]) / max(1, after[1] - before[1]) if before and after else None

    detail = {
        "workload": args.workload,
        "scale": args.scale,
        "trace": args.trace,
        "passes": passes,
        "samples": len(tally.times),
        "setup_samples_s": setup,
        "call_p50_s": {argv: statistics.median(t) for argv, t in tally.by_call.items()},
        "failures": list(tally.failures.values()),
        "cpu_steal_share": steal,
        "environment": environment(args.seed),
    }
    if args.trace:
        detail["unwrapped"] = tracer.unwrapped
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, detail)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        detail["tail_percentile"] = percentile
    print(json.dumps(detail))
    result = {
        "correct": tally.unexpected == 0,
        "attempted": len(tally.times),
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
