"""Branch mutants of the bmlab engine, and the ones the test suite lets live.

A mutant changes one branch decision in ``src/bmlab/*.py``:

* the test of an ``if`` or of a conditional expression forced False, and
  forced True where the branch has an else;
* one operand of an ``and``/``or`` inside such a test dropped, that is,
  replaced by the identity of its operator (True for ``and``, False for
  ``or``).

Mutants that give the same source are run once.  Each one is written
into a private copy of the repository, where ``pytest -x`` runs the
mutated module's own test file (``tests/test_<module>.py``, where there
is one, so that most mutants die early) and then the whole suite.  A
mutant lives when every test passes; a run that exceeds TIMEOUT seconds
counts as killed.  Before any mutant, the suite must pass on each
unmutated copy.  Progress goes to stderr, and the survivors, one
``file:line  mutation`` per line, to stdout.  A survivor is either a
branch no test can tell from its removal, which marks code to delete,
or one that wants a test.

Run from anywhere, with the test dependencies installed:

    python3 tools/branch_mutants.py

It takes no options and runs WORKERS copies side by side.  On 2 vCPUs,
338 mutants against a suite of 554 tests took 30 minutes; six lived.
"""

from __future__ import annotations

import ast
import itertools
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 2
TIMEOUT = 300  # seconds for one pytest run; the whole suite takes about 25 s alone
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]


def mutants(source: str):
    """(line, mutation, mutated source) of each branch mutant of a module."""
    data = source.encode()
    starts = [0, *itertools.accumulate(len(line) for line in data.splitlines(keepends=True))]

    def replaced(node, text: str) -> str:
        s = starts[node.lineno - 1] + node.col_offset  # ast offsets count UTF-8 bytes
        e = starts[node.end_lineno - 1] + node.end_col_offset
        return (data[:s] + f"({text})".encode() + data[e:]).decode()

    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        yield node.lineno, "test forced False", replaced(node.test, "False")
        if node.orelse:
            yield node.lineno, "test forced True", replaced(node.test, "True")
        for op in ast.walk(node.test):
            if isinstance(op, ast.BoolOp):
                identity = "True" if isinstance(op.op, ast.And) else "False"
                for operand in op.values:
                    text = ast.unparse(operand)
                    text = text if len(text) <= 60 else text[:57] + "..."
                    yield operand.lineno, f"operand dropped: {text}", replaced(operand, identity)


def _suite_passes(copy: Path, target: str = "tests") -> bool | None:
    """Whether the tests under ``target`` pass in the copy; None when they ran out of time."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [*PYTEST, target], cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    try:
        return proc.wait(timeout=TIMEOUT) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the suite's own subprocesses too
        proc.wait()
        return None


def _run(copy: Path, jobs, total: int, done) -> list:
    """Run each (name, line, mutation, source) job in the copy; the survivors."""
    survivors = []
    for name, line, mutation, source in jobs:
        path = copy / "src" / "bmlab" / name
        original = path.read_text(encoding="utf-8")
        path.write_text(source, encoding="utf-8")
        own = f"tests/test_{path.stem}.py"
        start = time.monotonic()
        try:
            passed = _suite_passes(copy, own) if (copy / own).exists() else True
            passed = passed and _suite_passes(copy)
        finally:
            path.write_text(original, encoding="utf-8")
        outcome = {True: "lives", False: "killed", None: "timeout"}[passed]
        print(f"[{next(done)}/{total}] {name}:{line}  {mutation}: {outcome} ({time.monotonic() - start:.0f} s)", file=sys.stderr)
        if passed:
            survivors.append((name, line, mutation))
    return survivors


def main() -> int:
    jobs, seen = [], set()
    for path in sorted((ROOT / "src" / "bmlab").glob("*.py")):
        for line, mutation, source in mutants(path.read_text(encoding="utf-8")):
            if source not in seen:
                seen.add(source)
                jobs.append((path.name, line, mutation, source))
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "_out")
    with tempfile.TemporaryDirectory(prefix="branch_mutants_") as tmp:
        copies = [Path(tmp) / f"w{k}" for k in range(WORKERS)]
        for copy in copies:
            shutil.copytree(ROOT, copy, ignore=ignore)
        with ThreadPoolExecutor(WORKERS) as pool:
            if not all(pool.map(_suite_passes, copies)):
                print("the test suite fails without any mutant", file=sys.stderr)
                return 1
            done = itertools.count(1)
            shares = [jobs[k::WORKERS] for k in range(WORKERS)]
            survivors = sorted(itertools.chain(*pool.map(_run, copies, shares, [len(jobs)] * WORKERS, [done] * WORKERS)))
    print(f"{len(survivors)} of {len(jobs)} mutants live", file=sys.stderr)
    for name, line, mutation in survivors:
        print(f"{name}:{line}  {mutation}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
