"""Tiny-scale self-check of the benchmark harness; takes a few seconds.

    python3 bench/selfcheck.py

Runs every workload at the tiny scale, untraced and twice traced at one
seed, and checks that each result line has the contract's keys and the
metric names and units of BENCHMARK.json, that every output passed its
check, and that the count metrics repeat exactly.  It also checks that
the benchmark refuses to run without the program source next to it, and
that a call's known defect excuses only that defect's oracle outcome.
Exits 1 with the list of problems when any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


def bench_run(root: Path, workload: str, trace: int, seed: int = 3):
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(done, label, problems):
    if done.returncode != 0:
        problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    elif not result["correct"] or result["failed"] or result["attempted"] < 1:
        detail = json.loads(done.stdout.strip().splitlines()[-2])
        problems.append(f"{label}: failed calls {detail['failures']}")
    return result


def units_match(result, declared, label, problems):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append(f"{label}: metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")


def _reply(*outputs):
    """A stand-in for bmlab.cli.run that prints the given reports in turn."""
    replies = iter(outputs)

    def run(argv):
        out, code = next(replies)
        if out is None:
            raise RuntimeError("injected")
        print(out)
        return code

    return run


def known_defect_excuses_only_its_outcome(problems):
    """Inject failures into a call with a known defect; only the defect's
    own oracle outcome may leave ``correct`` true."""
    import run
    from workloads import Call

    call = Call(
        ["injected"],
        lambda p: "oracle failed" if p["ok"] == 0 else None,
        known_defect="injected defect",
        defect_check=lambda p: None if p["defect"] else "not the defect",
    )
    defect = '{"ok": 0, "defect": 1}'
    cases = {  # name: (replies to successive calls, unexpected failures)
        "the defect's outcome": ([(defect, 0)], 0),
        "another oracle failure": ([('{"ok": 0, "defect": 0}', 0)], 1),
        "a traceback": ([(None, 0)], 1),
        "a wrong exit code": ([(defect, 2)], 1),
        "no JSON report": ([("not json", 0)], 1),
        "a report that does not fit": ([('{"ok": 0}', 0)], 1),
        "a report that differs between passes": ([('{"ok": 1}', 0), (defect, 0)], 1),
    }
    for name, (replies, want) in cases.items():
        tally = run.Tally()
        fake = _reply(*replies)
        for _ in replies:
            tally.call(fake, call)
        if tally.unexpected != want or tally.failed != 1:
            problems.append(f"known defect, {name}: {tally.failed} failed, {tally.unexpected} unexpected, "
                            f"expected 1 and {want}")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    known_defect_excuses_only_its_outcome(problems)
    for workload in (w["name"] for w in declared["workloads"]):
        result = result_of(bench_run(ROOT, workload, 0), f"{workload} untraced", problems)
        if result:
            units_match(result, declared["end_to_end"], f"{workload} untraced", problems)
        traced = [result_of(bench_run(ROOT, workload, 1), f"{workload} traced", problems) for _ in range(2)]
        if all(traced):
            units_match(traced[0], declared["per_layer"], f"{workload} traced", problems)
            nulls = sorted(k for k, v in traced[0]["metrics"].items() if v["value"] is None)
            if nulls:
                problems.append(f"{workload} traced: functions not found, metrics null: {nulls}")
            for name in spans.COUNT_METRICS:
                a, b = (t["metrics"][name]["value"] for t in traced)
                if a != b:
                    problems.append(f"{workload}: count {name} changed between runs at one seed: {a} vs {b}")

    (BENCH / "_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
        done = bench_run(bare, "interactive-small", 0)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append("a checkout without src/ still produced a result")

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
