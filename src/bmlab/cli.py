"""Command line front end: one subcommand per engine capability.

Each run prints a single JSON object on stdout (or to ``--out``);
``--csv-out`` writes plot-friendly curves next to it.  JSON output is
deterministic: keys are sorted and floats are printed with 17 significant
digits, so identical argv and input files give byte-identical bytes.
Every JSON object embeds the resolved parameter set under ``params``;
the rest is the report, printed as its own fields.  Two projections are
narrower than their types: a density trial prints as {a, verdict}, its
shortness evidence going to the CSV, and an interval family as a list of
{left, right[, flag]} objects rather than as columns.

Exit codes: 0 definite verdict (and pure construction/dump commands),
2 Inconclusive verdict, 1 computation errors, 64 usage errors and
arguments outside their domain (the generator grammar is printed), 65
unreadable or malformed data files.  Each argument is checked once, by
the engine that owns it; ``run`` maps the error types to these codes.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import _json
from .density import (
    NOT_POLYA,
    default_radius_ladder,
    interior_density,
    null_ratio_witness,
)
from .envelope import (
    INCONCLUSIVE,
    bm_family,
    classify_short_long,
    family_from_csv,
    family_to_csv,
)
from .errors import (
    BadArgument,
    BadDataFile,
    BmLabError,
    DuplicatePoint,
    EmptyRange,
    NotSeparated,
    SizeGuard,
    WindowTooSmall,
)
from .gap import (
    TWO_PI,
    cauchy_decay,
    check_grid_step,
    lattice_gap_measure,
    measure_to_csv,
    min_gap_residual,
    symmetric_gap_measure,
    verify_gap,
)
from .sequences import (
    check_points,
    gamma_line,
    load_sequence,
    read_sequence_file,
    write_csv,
)
from .zerotype import log_abs_cos, log_abs_qcos, type_estimate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65

Y_COUNT_CAP = 1 << 16           # --y-count of cauchy and ftype

GENERATOR_GRAMMAR = """\
generator grammar:
  lattice:<step>    points n*step for all integers n with |n*step| <= radius
  squares           points sign(n)*n^2 for |n| <= floor(sqrt(radius))
  logperturbed      points n + n/log(|n|+2), kept while |point| <= radius
  file:<path>       text file, one decimal real per line, # comments allowed
Built-in generators require --radius; file sources use it as an optional cut."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64 plus grammar."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        print(GENERATOR_GRAMMAR, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_generator(spec: str, radius: float | None = None):
    """Materialize a sequence from a generator spec string.

    Grammar: ``lattice:<step>`` | ``squares`` | ``logperturbed`` |
    ``file:<path>``.  The radius, positive and finite, bounds the built-in
    generators (their index ranges are derived from it) and is required
    for them; for file sources it optionally cuts the points to [-radius,
    radius].  The data window of a radius-bounded sequence is (-radius,
    radius).  A built-in generator of more than POINTS_CAP points, and a
    file of more than POINTS_CAP lines, raise SizeGuard before anything is
    allocated or parsed.
    """
    name, _, param = spec.partition(":")
    name = name.strip()
    if radius is not None and not 0.0 < radius < math.inf:
        raise BadArgument(f"radius must be positive and finite, got {radius!r}")

    if name == "file":
        if not param:
            raise BadArgument("file generator needs a path: file:<path>")
        base = read_sequence_file(param)
        if radius is None:
            return base
        try:
            return base.within(radius)
        except EmptyRange:
            raise EmptyRange(f"no points of {param} within radius {radius:g}") from None

    if name == "lattice":
        if not param:
            raise BadArgument("lattice generator needs a step: lattice:<step>")
        try:
            step = float(param)
        except ValueError:
            raise BadArgument(f"lattice step is not a number: {param!r}") from None
        if not (math.isfinite(step) and step > 0):
            raise BadArgument(f"lattice step must be positive, got {param}")
    elif ":" in spec:
        raise BadArgument(f"generator {name!r} takes no parameter")
    elif name not in ("squares", "logperturbed"):
        raise BadArgument(f"unknown generator {spec!r}")
    if radius is None:
        raise BadArgument(f"a radius is required to materialize {name}")
    window = (-radius, radius)

    if name == "lattice":
        check_points(2.0 * (radius / step) + 1.0)
        n_max = int(math.floor(radius / step))
        if n_max * step > radius:  # radius / step rounded up past the last point within the radius
            n_max -= 1
        if n_max < 1:
            raise WindowTooSmall(f"radius {radius:g} is below one lattice step {step:g}")
        return load_sequence(np.arange(-n_max, n_max + 1) * step, window)

    if name == "squares":
        check_points(2.0 * math.sqrt(radius) + 1.0)
        m = int(math.floor(math.sqrt(radius)))
        if m < 1:
            raise WindowTooSmall(f"radius {radius:g} holds no nonzero square")
        n = np.arange(-m, m + 1)
        return load_sequence(np.unique(np.sign(n) * n.astype(float) ** 2), window)

    check_points(2.0 * radius + 1.0)
    n_max = int(math.floor(radius))
    if n_max < 1:
        raise WindowTooSmall(f"radius {radius:g} holds no perturbed point")
    n = np.arange(-n_max, n_max + 1).astype(float)
    return load_sequence(n + n / np.log(np.abs(n) + 2.0)).within(radius)


def _seq_spec(parser, args) -> str:
    if args.seq and args.input:
        parser.error("use exactly one of --seq and --input")
    if args.input:
        return f"file:{args.input}"
    if args.seq:
        return args.seq
    parser.error("one of --seq or --input is required")


def _evidence_ladder(parser, args):
    """Explicit radius ladder when --radius is repeated, else None."""
    if args.radius and len(args.radius) > 1:
        ladder = sorted(set(args.radius))
        if len(ladder) < 4:
            parser.error("an explicit radius ladder needs at least 4 distinct values")
        return ladder
    return None


def _build_sequence(parser, args):
    spec = _seq_spec(parser, args)
    radius = max(args.radius) if args.radius else None
    return parse_generator(spec, radius), spec, radius


def _parse_pair(parser, text, flag):
    parts = text.split(",")
    if len(parts) != 2:
        parser.error(f"{flag} expects lo,hi")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        parser.error(f"{flag} expects two numbers, got {text!r}")


def _single_n(parser, args, default):
    if not args.n:
        return default
    if len(args.n) > 1:
        parser.error("--n must be given exactly once for this subcommand")
    return int(args.n[0])


def _y_ladder(parser, args, spacing):
    """The ladder the flags describe; whether it is a valid one is the engine's call."""
    if args.y_count > Y_COUNT_CAP:
        raise SizeGuard(f"--y-count {args.y_count} beyond the cap {Y_COUNT_CAP}")
    if spacing == "log" and not (args.y_min > 0 and args.y_max > 0):  # what geomspace needs
        parser.error("a log ladder needs --y-min > 0 and --y-max > 0")
    build = np.geomspace if spacing == "log" else np.linspace
    with np.errstate(all="ignore"):  # the engine refuses the non-finite values an overflow or a non-finite end leaves
        return build(args.y_min, args.y_max, max(args.y_count, 0))


def _emit(args, payload) -> None:
    text = _json.dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _density_fields(rep):
    return {**_json.fields(rep), "trials": [{"a": t.a, "verdict": t.verdict} for t in rep.trials]}


def _intervals(fam, keys=("left", "right")):
    return [dict(zip(keys, row)) for row in zip(fam.left.tolist(), fam.right.tolist(), fam.flags)]


def _cmd_density(parser, args) -> int:
    seq, spec, radius = _build_sequence(parser, args)
    ladder = _evidence_ladder(parser, args)
    rep = interior_density(seq, radii=ladder, a_tolerance=args.tol)
    payload = {
        "params": {"command": "density", "seq": spec, "radius": radius, "tol": args.tol},
        **_density_fields(rep),
    }
    _emit(args, payload)
    if args.csv_out:
        sums = [(t.a, r, s) for t in rep.trials for r, s in zip(t.shortness.radii, t.shortness.partial_sums)]
        trials = [(t.a, t.verdict) for t in rep.trials]
        write_csv(args.csv_out, ("trials", "a,verdict", trials), ("partial_sums", "a,radius,partial_sum", sums))
    return EXIT_INCONCLUSIVE if rep.polya_class == INCONCLUSIVE else EXIT_OK


def _cmd_classify(parser, args) -> int:
    seq, spec, radius = _build_sequence(parser, args)
    ladder = _evidence_ladder(parser, args)
    density = interior_density(seq, radii=ladder, a_tolerance=args.tol)
    witness = null_ratio_witness(seq)
    # a long null-ratio family is a certificate, it overrides the bracket
    polya_class = NOT_POLYA if witness is not None else density.polya_class
    payload = {
        "params": {"command": "classify", "seq": spec, "radius": radius, "tol": args.tol},
        "polya_class": polya_class,
        "density": _density_fields(density),
        "witness": None,
    }
    if witness is not None:
        payload["witness"] = fields = _json.fields(witness)
        fields["intervals"] = _intervals(fields.pop("family"))
    _emit(args, payload)
    if args.csv_out:
        blocks = [("trials", "a,verdict", [(t.a, t.verdict) for t in density.trials])]
        if witness is not None:
            rows = zip(witness.family.left, witness.family.right, witness.ratios)
            blocks.append(("witness", "left,right,ratio", rows))
        write_csv(args.csv_out, *blocks)
    return EXIT_INCONCLUSIVE if polya_class == INCONCLUSIVE else EXIT_OK


def _cmd_bm(parser, args) -> int:
    seq, spec, radius = _build_sequence(parser, args)
    if args.window:
        window = _parse_pair(parser, args.window, "--window")
    elif radius is not None:
        window = (-radius, radius)
    else:
        window = seq.window
    fam = bm_family(gamma_line(seq, args.a), window)
    payload = {
        "params": {
            "command": "bm",
            "seq": spec,
            "radius": radius,
            "a": args.a,
            "window": list(window),
        },
        "count": len(fam),
        "intervals": _intervals(fam, ("left", "right", "flag")),
    }
    _emit(args, payload)
    if args.csv_out:
        family_to_csv(fam, args.csv_out)
    return EXIT_OK


def _cmd_short(parser, args) -> int:
    fam = family_from_csv(args.family)
    ladder = _evidence_ladder(parser, args)
    if ladder is None:
        if args.radius:
            r_max = args.radius[0]
        elif len(fam):
            # sorted and disjoint: the extreme endpoints are the outermost ones; the
            # floor keeps the first rung, r_max/2^7, above the smallest normal double
            r_max = max(abs(fam.left[0]), abs(fam.right[-1]), 2.0**8 * sys.float_info.min)
        else:
            r_max = 16.0
        ladder = default_radius_ladder(r_max)
    rep = classify_short_long(lambda _r: fam, ladder)
    payload = {
        "params": {"command": "short", "family": args.family, "radii": ladder},
        "count": len(fam),
        **_json.fields(rep),
    }
    _emit(args, payload)
    if args.csv_out:
        write_csv(args.csv_out, (None, "radius,partial_sum", zip(rep.radii, rep.partial_sums)))
    return EXIT_INCONCLUSIVE if rep.verdict == INCONCLUSIVE else EXIT_OK


def _cmd_gap_probe(parser, args) -> int:
    seq, spec, radius = _build_sequence(parser, args)
    sizes = sorted(set(args.n or (21, 51, 101, 201)))
    rep = min_gap_residual(seq, args.gap, sizes)
    payload = {
        "params": {
            "command": "gap-probe",
            "seq": spec,
            "radius": radius,
            "gap": args.gap,
            "sizes": sizes,
        },
        **_json.fields(rep),
    }
    _emit(args, payload)
    if args.csv_out:
        header = "size,min_eigenvalue,floored,noise_floor,vector_l1"
        columns = (rep.min_eigenvalues, rep.floored_eigenvalues, rep.noise_floors, rep.vector_l1)
        write_csv(args.csv_out, (None, header, zip(rep.sizes, *columns)))
    return EXIT_INCONCLUSIVE if rep.classification == INCONCLUSIVE else EXIT_OK


def _parse_smoothness(parser, text):
    if text == "inf":
        return "inf"
    try:
        return int(text)
    except ValueError:
        parser.error(f"--smoothness must be 'inf' or a nonnegative integer, got {text!r}")


def _cmd_gap_measure(parser, args) -> int:
    a, n = args.gap, _single_n(parser, args, 256)
    smooth = _parse_smoothness(parser, args.smoothness)
    mu = lattice_gap_measure(a, n, smooth)
    payload = {
        "params": {
            "command": "gap-measure",
            "gap": a,
            "n": n,
            "smoothness": args.smoothness,
            "verify_interval": args.verify_interval,
            "grid_step": args.grid_step,
        },
        "n_atoms": len(mu),
        "total_variation": mu.total_variation,
        "margin": (TWO_PI - a) / 8.0,
    }
    if args.verify_interval:
        lo, hi = _parse_pair(parser, args.verify_interval, "--verify-interval")
        payload["verify"] = verify_gap(mu, (lo, hi), args.grid_step)
    else:
        check_grid_step(args.grid_step)  # unused, but echoed under params
    _emit(args, payload)
    if args.csv_out:
        measure_to_csv(mu, args.csv_out)
    return EXIT_OK


def _cmd_cauchy(parser, args) -> int:
    a, n = args.gap, _single_n(parser, args, 256)
    ys = _y_ladder(parser, args, "linear")
    mu = symmetric_gap_measure(a / 2.0, n)
    rep = cauchy_decay(mu, args.x, ys, args.tol)
    payload = {
        "params": {
            "command": "cauchy",
            "gap": a,
            "n": n,
            "x": args.x,
            "y_min": args.y_min,
            "y_max": args.y_max,
            "y_count": args.y_count,
            "tol": args.tol,
        },
        "half_gap": a / 2.0,
        **_json.fields(rep),
    }
    _emit(args, payload)
    if args.csv_out:
        rows = zip(rep.y_values, rep.plus.log_abs, rep.minus.log_abs)
        write_csv(args.csv_out, (None, "y,log_abs_plus,log_abs_minus", rows))
    return EXIT_OK


def _cmd_ftype(parser, args) -> int:
    ys = _y_ladder(parser, args, "log")
    # resolved per call from the module globals, so a rebound bmlab.cli.log_abs_* is what runs
    log_modulus = log_abs_qcos if args.function == "qcos" else log_abs_cos
    est = type_estimate(log_modulus, ys)
    payload = {
        "params": {
            "command": "ftype",
            "function": args.function,
            "y_min": args.y_min,
            "y_max": args.y_max,
            "y_count": args.y_count,
        },
        **_json.fields(est),
    }
    _emit(args, payload)
    if args.csv_out:
        write_csv(args.csv_out, (None, "y,log_modulus", zip(est.y_values, est.log_moduli)))
    return EXIT_OK


def _add_out_flags(p) -> None:
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--csv-out", help="write plot-friendly curves to this CSV file")


def _add_seq_flags(p) -> None:
    p.add_argument("--seq", help="sequence generator spec; see the grammar below --help")
    p.add_argument("--input", help="sequence file path, same as --seq file:<path>")
    p.add_argument(
        "--radius",
        action="append",
        type=float,
        help="window radius; repeat 4+ times for an explicit evidence ladder",
    )


@functools.cache  # one parser per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bm-lab",
        description="Interior density, shortness envelopes and spectral gap probes "
        "for separated real sequences.",
        epilog=GENERATOR_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="bracket the interior density by bisection")
    p.set_defaults(handler=_cmd_density)
    _add_seq_flags(p)
    p.add_argument("--tol", type=float, default=0.05, help="bracket tolerance on a")
    _add_out_flags(p)

    p = sub.add_parser("classify", help="full classification: density bracket plus witness search")
    p.set_defaults(handler=_cmd_classify)
    _add_seq_flags(p)
    p.add_argument("--tol", type=float, default=0.05, help="bracket tolerance on a")
    _add_out_flags(p)

    p = sub.add_parser("bm", help="dump the envelope interval family of a*x - n(x)")
    p.set_defaults(handler=_cmd_bm)
    _add_seq_flags(p)
    p.add_argument("--a", type=float, required=True, help="slope of the test line")
    p.add_argument("--window", help="computation window lo,hi (default -radius,radius)")
    _add_out_flags(p)

    p = sub.add_parser("short", help="classify an interval family file as Short or Long")
    p.set_defaults(handler=_cmd_short)
    p.add_argument("--family", required=True, help="CSV file with left,right[,flag] rows")
    p.add_argument(
        "--radius",
        action="append",
        type=float,
        help="evidence radius; repeat 4+ times for an explicit ladder",
    )
    _add_out_flags(p)

    p = sub.add_parser("gap-probe", help="smallest Gram eigenvalue along growing windows")
    p.set_defaults(handler=_cmd_gap_probe)
    _add_seq_flags(p)
    p.add_argument("--gap", type=float, required=True, help="interval length a of the Gram inner product")
    p.add_argument(
        "--n",
        action="append",
        type=int,
        help="window sizes (repeatable); default 21 51 101 201",
    )
    _add_out_flags(p)

    p = sub.add_parser("gap-measure", help="design an integer-atom measure with a spectral gap")
    p.set_defaults(handler=_cmd_gap_measure)
    p.add_argument("--gap", type=float, required=True, help="designed gap length a in (0, 2*pi)")
    p.add_argument("--n", action="append", type=int, help="coefficient cutoff N (default 256)")
    p.add_argument("--smoothness", default="inf", help="'inf' or an integer k for a C^k bump")
    p.add_argument("--verify-interval", help="check max |transform| on lo,hi")
    p.add_argument("--grid-step", type=float, default=1e-3, help="verification grid step")
    _add_out_flags(p)

    p = sub.add_parser("cauchy", help="Cauchy transform decay test on a symmetric gap measure")
    p.set_defaults(handler=_cmd_cauchy)
    p.add_argument("--gap", type=float, required=True, help="symmetric gap length; transform vanishes on +-gap/2")
    p.add_argument("--n", action="append", type=int, help="coefficient cutoff N (default 256)")
    p.add_argument("--x", type=float, required=True, help="test abscissa of the decay criterion")
    p.add_argument("--y-min", type=float, default=2.0)
    p.add_argument("--y-max", type=float, default=20.0)
    p.add_argument("--y-count", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-6, help="terminal magnitude for VanishesCompatible")
    _add_out_flags(p)

    p = sub.add_parser("ftype", help="exponential type fit along the imaginary axis")
    p.set_defaults(handler=_cmd_ftype)
    p.add_argument("--function", choices=("qcos", "cos"), default="qcos")
    p.add_argument("--y-min", type=float, default=10.0)
    p.add_argument("--y-max", type=float, default=1e6)
    p.add_argument("--y-count", type=int, default=64)
    _add_out_flags(p)

    return parser


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(parser, args)
    except BadArgument as exc:
        parser.error(str(exc))
    except (OSError, BadDataFile, DuplicatePoint, NotSeparated, EmptyRange) as exc:
        print(f"{parser.prog}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BmLabError as exc:
        print(f"{parser.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
