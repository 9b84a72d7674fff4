"""The three benchmark workloads: bm-lab call lists built from a seed.

A workload is a fixed list of ``bm-lab`` argv vectors plus the input
files they read, all drawn from the seed, and one independent check per
call.  The program sees only the argv and the files.

* density-bulk: four calls at radius 1e6 and a 400,001-point jittered
  lattice file.  The sequences, envelope and density layers do nearly all
  the work and the gap layer none; the jittered file takes the
  per-interval Python path and the file parser.
* gap-spectral: five calls on designed measures and Gram probes.  The gap
  layer does nearly all the work and the envelope layer none.  n = 4000
  lies past the point where the seed's 4096-node design aliases, so its
  two calls fail their checks there; they stay in so the defect shows.
* interactive-small: sixteen short calls that touch every subcommand.
  Fixed per-call costs dominate (argparse, JSON emit, CSV I/O, the
  4096-node design), so a bulk optimisation that adds set-up or per-call
  cost shows here; it is also where zerotype and the CLI are measured.

``passes`` is the number of whole passes over the call list in a
30-second run; runs of other lengths scale it.  A fixed count lets both
sides of a comparison time the same calls, whatever their speed.  At the
seed commit on a 2-CPU Xeon a 30-second run takes 30 to 45 s.  The
counts of the heavy workloads put the tail sample, and for gap-spectral
the median too, inside one call's cluster of times rather than at its
edge, where a single fast or slow call would move it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as o

ALIASING = "the 4096-node design aliases for n >= 2048"
VERIFY = (0.4, 2.6)
GRID_STEP = 1e-3  # the CLI default; finer grids at n = 4000 need several GB


@dataclass
class Call:
    argv: list[str]
    check: Callable[[dict], str | None]
    exit_code: Callable[[dict], int] | int = 0
    # a known defect excuses a failed check only when the report shows
    # that defect's outcome, which ``defect_check`` tests (None: it does)
    known_defect: str | None = None
    defect_check: Callable[[dict], str | None] | None = None

    def expected_exit(self, payload: dict) -> int:
        return self.exit_code(payload) if callable(self.exit_code) else self.exit_code


@dataclass
class Workload:
    name: str
    calls: list[Call]
    passes: int


def _num(x: float) -> str:
    return repr(float(x))


def _write_points(path: Path, points: np.ndarray) -> str:
    path.write_text("\n".join(map(repr, points.tolist())) + "\n", encoding="utf-8")
    return str(path)


def _jittered(rng, half: int) -> np.ndarray:
    k = np.arange(-half, half + 1, dtype=float)
    return k + rng.uniform(-0.3, 0.3, k.size)


def _lattice(step: float, radius: float) -> np.ndarray:
    n_max = int(math.floor(radius / step))
    return np.arange(-n_max, n_max + 1) * float(step)


def _level(a, n_terms, smoothness):
    return functools.cache(lambda: o.gap_level(a, n_terms, smoothness, VERIFY[1]))


def density_bulk(rng, work: Path, tiny: bool) -> Workload:
    radius = 1e4 if tiny else 1e6
    half = 2000 if tiny else 200000
    jittered = _write_points(work / "jittered.txt", _jittered(rng, half))
    calls = [
        Call(["classify", "--seq", "squares", "--radius", _num(radius)], o.not_polya_with_long_witness),
        Call(
            ["density", "--seq", "lattice:1", "--radius", _num(radius)],
            lambda p: o.bracket_contains(p, 1.0),
        ),
        Call(
            ["density", "--input", jittered, "--radius", _num(half)],
            lambda p: o.bracket_contains(p, 1.0),
        ),
        Call(["classify", "--seq", "logperturbed", "--radius", _num(radius)], o.polya_without_witness),
    ]
    return Workload("density-bulk", calls, passes=6)


def gap_spectral(rng, work: Path, tiny: bool) -> Workload:
    a = 3.0 + 0.3 * rng.random()
    sizes = (16, 32, 64) if tiny else (64, 128, 256, 512)
    n_small, n_big = (128, 256) if tiny else (1024, 4000)
    size_flags = [f for n in sizes for f in ("--n", str(n))]
    verify = ["--verify-interval", f"{VERIFY[0]!r},{VERIFY[1]!r}", "--grid-step", _num(GRID_STEP)]
    small_level = _level(a, n_small, 8)
    big_level = _level(a, n_big, "inf")
    defect = ALIASING if n_big >= 2048 else None
    y_count = 20 if tiny else 200
    calls = [
        Call(
            ["gap-probe", "--seq", "lattice:1", "--radius", _num(sizes[-1] // 2 + 44), "--gap", _num(a)]
            + size_flags,
            lambda p: o.classification(p, "DecaysToZero"),
        ),
        Call(
            ["gap-probe", "--seq", "logperturbed", "--radius", _num(100 if tiny else 400), "--gap", "7.0"]
            + size_flags,
            lambda p: o.classification(p, "BoundedBelow"),
        ),
        Call(
            ["gap-measure", "--gap", _num(a), "--n", str(n_small), "--smoothness", "8"] + verify,
            lambda p: o.designed_gap(p, small_level()),
        ),
        Call(
            ["gap-measure", "--gap", _num(a), "--n", str(n_big)] + verify,
            lambda p: o.designed_gap(p, big_level()),
            known_defect=defect,
            defect_check=o.aliased_gap,
        ),
        # at x = 0.7 a/2 an alias-free n = 4000 design ends 20x or more
        # below the verdict tolerance; the tiny n = 256 design needs x nearer 0
        Call(
            ["cauchy", "--gap", _num(a), "--n", str(n_big), "--x", _num((0.125 if tiny else 0.35) * a),
             "--y-count", str(y_count)],
            o.cauchy_vanishes,
            known_defect=defect,
            defect_check=lambda p: o.cauchy_aliased(p, y_count),
        ),
    ]
    return Workload("gap-spectral", calls, passes=7)


def interactive_small(rng, work: Path, tiny: bool) -> Workload:
    steps = [float(s) for s in rng.uniform(0.8, 1.25, 4)]
    radii = [2000.0 * s * rng.uniform(1.0, 1.1) for s in steps]
    g = 3.0 + 0.3 * rng.random()
    slope = rng.uniform(0.85, 0.95)
    r_logp = rng.uniform(3000.0, 3500.0)
    r_squares = rng.uniform(8000.0, 10000.0)
    half = 500 if tiny else 2000
    points = _jittered(rng, half)
    jittered = _write_points(work / "small.txt", points)
    family = str(work / "family.csv")
    measure = str(work / "measure.csv")
    level_64 = _level(g, 64, "inf")

    def lattice_density(i):
        return Call(
            ["density", "--seq", f"lattice:{steps[i]!r}", "--radius", _num(radii[i]),
             "--tol", _num(0.05 / steps[i])],
            lambda p: o.bracket_contains(p, 1.0 / steps[i]),
        )

    def file_family(p):
        return o.envelope_membership(points[np.abs(points) <= half], slope, (-half, half), p["intervals"])

    above = 1.5 / steps[3]

    def lattice_family(p):
        return o.envelope_membership(_lattice(steps[3], radii[3]), above, (-radii[3], radii[3]), p["intervals"])

    def written_measure(p):
        return o.unit_mass(p) or o.measure_file_gap(measure, 64, VERIFY, GRID_STEP, level_64())

    calls = [
        lattice_density(0),
        lattice_density(1),
        Call(["density", "--input", jittered, "--radius", _num(half)], lambda p: o.bracket_contains(p, 1.0)),
        Call(
            ["density", "--seq", "logperturbed", "--radius", _num(r_logp)],
            o.polya,
        ),
        Call(
            ["classify", "--seq", f"lattice:{steps[2]!r}", "--radius", _num(radii[2])],
            o.polya_without_witness,
        ),
        Call(["classify", "--seq", "squares", "--radius", _num(r_squares)], o.not_polya_with_long_witness),
        Call(["classify", "--input", jittered, "--radius", _num(half)], o.polya_without_witness),
        Call(
            ["bm", "--input", jittered, "--radius", _num(half), "--a", _num(slope), "--csv-out", family],
            file_family,
        ),
        Call(
            ["short", "--family", family],
            lambda p: o.short_family_report(p, o.read_family_csv(family)),
            exit_code=lambda p: 2 if p["verdict"] == "Inconclusive" else 0,
        ),
        Call(
            ["bm", "--seq", f"lattice:{steps[3]!r}", "--radius", _num(radii[3]), "--a", _num(above)],
            lattice_family,
        ),
        Call(["cauchy", "--gap", _num(g), "--x", _num(0.25 * g)], o.cauchy_vanishes),
        Call(["ftype", "--function", "cos"], o.type_of_cos),
        Call(["ftype"], o.type_of_qcos),
        Call(
            ["gap-probe", "--seq", "lattice:1", "--radius", "101", "--gap", _num(g)],
            lambda p: o.classification(p, "DecaysToZero"),
        ),
        Call(
            ["gap-probe", "--seq", "logperturbed", "--radius", "150", "--gap", "7.0"],
            lambda p: o.classification(p, "BoundedBelow"),
        ),
        Call(["gap-measure", "--gap", _num(g), "--n", "64", "--csv-out", measure], written_measure),
    ]
    return Workload("interactive-small", calls, passes=80)


WORKLOADS = {
    "density-bulk": density_bulk,
    "gap-spectral": gap_spectral,
    "interactive-small": interactive_small,
}


def build(name: str, seed: int, work: Path, tiny: bool = False) -> Workload:
    """Generate the inputs of one workload into ``work`` and list its calls."""
    return WORKLOADS[name](np.random.default_rng(seed), Path(work), tiny)
