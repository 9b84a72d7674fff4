import re

import numpy as np

_NOTES = {}
_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def logperturbed_points(n_max: int) -> np.ndarray:
    """n + n/log(|n| + 2) for |n| <= n_max, over the whole index range: the
    points of ``logperturbed``, of which ``parse_generator`` keeps those
    within the radius."""
    n = np.arange(-n_max, n_max + 1).astype(float)
    return n + n / np.log(np.abs(n) + 2.0)


def acceptance_note(criterion: int, text: str) -> None:
    """Stash a measured-value summary for the terminal report."""
    _NOTES[int(criterion)] = text


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if m and getattr(rep, "when", "call") == "call":
                outcomes[int(m.group(1))] = status
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(outcomes):
        word = "PASS" if outcomes[num] == "passed" else "FAIL"
        note = _NOTES.get(num, "")
        terminalreporter.write_line(f"criterion {num:2d}: {word}  {note}".rstrip())
