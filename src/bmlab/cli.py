"""Command line front end: one subcommand per engine capability.

Each run prints a single JSON object on stdout (or to ``--out``);
``--csv-out`` writes plot-friendly curves next to it.  JSON output is
deterministic: keys are sorted and floats are printed with 17 significant
digits, so identical argv and input files give byte-identical bytes.
Every JSON object embeds the resolved parameter set under ``params``:
every flag under its dest except ``--out``, ``--csv-out`` and
``--input``, with the values a command resolves in place of the raw ones
(``seq`` folds ``--input`` into ``file:<path>``, ``radius`` is the
largest given; ``window``, ``radii`` and ``sizes`` are the ones used).
A flag is thus declared once, in the parser.  The rest is the report,
printed as its own fields.  A report table is declared once, as a
``_json.Table`` of columns: a CSV block is a Table, and a Table in the
payload prints as a list of row objects.  So the density trials are one
Table {a, verdict}, the JSON ``trials`` and the CSV ``# trials`` block,
and an interval family prints as the Table {left, right[, flag]}.

A ``_cmd_*`` handler takes the parsed arguments only and returns
``(verdict, payload, write_csv_to)``; it raises ``BadArgument`` for an
argument outside its domain.  ``run`` alone prints the payload (or
writes it to ``--out``), calls ``write_csv_to`` on ``--csv-out``, and
maps the verdict (None for construction and dump commands) to the exit
code.  An empty path fails to open: 65.

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
import re
import sys

import numpy as np

from . import _json
from .density import (
    LADDER_END_FLOOR,
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
    cauchy_decay,
    check_grid_step,
    design_margin,
    lattice_gap_measure,
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

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a value starting with "-" for a flag unless it is a
        # plain decimal, so "--window -10,10" or "--a -1e-3" would fail with
        # "expected one argument"; no bm-lab flag starts with "-" and a digit,
        # ".digit", "inf" or "nan", so such a value is always a value.  There
        # is no public hook for this; subparsers are _Parser too.
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

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


def _evidence_ladder(radii):
    """Explicit radius ladder when --radius is repeated, else None."""
    if radii and len(radii) > 1:
        ladder = sorted(set(radii))
        if len(ladder) < 4:
            raise BadArgument("an explicit radius ladder needs at least 4 distinct values")
        return ladder
    return None


def _build_sequence(args):
    spec = args.seq if args.input is None else f"file:{args.input}"
    radius = max(args.radius) if args.radius else None
    return parse_generator(spec, radius), spec, radius


_NOT_ECHOED = ("handler", "out", "csv_out", "input")


def _params(args, **resolved):
    """The parsed flags by dest, with the values the command resolved in place of the raw ones."""
    return {**{k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}, **resolved}


def _parse_pair(text, flag):
    parts = text.split(",")
    if len(parts) != 2:
        raise BadArgument(f"{flag} expects lo,hi")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise BadArgument(f"{flag} expects two numbers, got {text!r}") from None


def _y_ladder(args, spacing):
    """The ladder the flags describe; whether it is a valid one is the engine's call."""
    if args.y_count > Y_COUNT_CAP:
        raise SizeGuard(f"--y-count {args.y_count} beyond the cap {Y_COUNT_CAP}")
    if spacing == "log" and not (args.y_min > 0 and args.y_max > 0):  # what geomspace needs
        raise BadArgument("a log ladder needs --y-min > 0 and --y-max > 0")
    build = np.geomspace if spacing == "log" else np.linspace
    with np.errstate(all="ignore"):  # the engine refuses the non-finite values an overflow or a non-finite end leaves
        return build(args.y_min, args.y_max, max(args.y_count, 0))


def _csv(**columns):
    """The ``write_csv_to`` of one untitled table."""
    return lambda path: write_csv(path, (None, _json.Table(**columns)))


def _trials(rep):
    """A density report's trials as the table {a, verdict}."""
    return _json.Table(a=[t.a for t in rep.trials], verdict=[t.verdict for t in rep.trials])


def _partial_sums(rep):
    """Each trial's shortness sums, a row per rung of the report's ladder, which is every trial's."""
    return _json.Table(
        a=np.repeat([t.a for t in rep.trials], len(rep.radii)),
        radius=np.tile(rep.radii, len(rep.trials)),
        partial_sum=np.ravel([t.shortness.partial_sums for t in rep.trials]),
    )


def _cmd_density(args):
    seq, spec, radius = _build_sequence(args)
    rep = interior_density(seq, radii=_evidence_ladder(args.radius), a_tolerance=args.tol)
    trials = _trials(rep)
    payload = {"params": _params(args, seq=spec, radius=radius), **_json.fields(rep), "trials": trials}
    return rep.polya_class, payload, lambda path: write_csv(
        path, ("trials", trials), ("partial_sums", _partial_sums(rep))
    )


def _cmd_classify(args):
    seq, spec, radius = _build_sequence(args)
    density = interior_density(seq, radii=_evidence_ladder(args.radius), a_tolerance=args.tol)
    witness = null_ratio_witness(seq)
    # a long null-ratio family is a certificate, it overrides the bracket
    polya_class = NOT_POLYA if witness is not None else density.polya_class
    trials = _trials(density)
    payload = {
        "params": _params(args, seq=spec, radius=radius),
        "polya_class": polya_class,
        "density": {**_json.fields(density), "trials": trials},
        "witness": None,
    }
    blocks = [("trials", trials)]
    if witness is not None:
        payload["witness"] = fields = _json.fields(witness)
        fam = fields.pop("family")
        fields["intervals"] = _json.Table(left=fam.left, right=fam.right)
        blocks.append(("witness", _json.Table(left=fam.left, right=fam.right, ratio=witness.ratios)))
    return polya_class, payload, lambda path: write_csv(path, *blocks)


def _cmd_bm(args):
    seq, spec, radius = _build_sequence(args)
    if args.window is not None:
        window = _parse_pair(args.window, "--window")
    elif radius is not None:
        window = (-radius, radius)
    else:
        window = seq.window
    fam = bm_family(gamma_line(seq, args.a), window)
    payload = {
        "params": _params(args, seq=spec, radius=radius, window=list(window)),
        "count": len(fam),
        "intervals": _json.Table(left=fam.left, right=fam.right, flag=fam.flags),
    }
    return None, payload, lambda path: family_to_csv(fam, path)


def _cmd_short(args):
    fam = family_from_csv(args.family)
    ladder = _evidence_ladder(args.radii)
    if ladder is None:
        if args.radii:
            r_max = args.radii[0]
        elif len(fam):
            # sorted and disjoint: the extreme endpoints are the outermost ones
            r_max = max(abs(fam.left[0]), abs(fam.right[-1]), LADDER_END_FLOOR)
        else:
            r_max = 16.0
        ladder = default_radius_ladder(r_max)
    rep = classify_short_long(lambda _r: fam, ladder)
    payload = {"params": _params(args, radii=ladder), "count": len(fam), **_json.fields(rep)}
    return rep.verdict, payload, _csv(radius=rep.radii, partial_sum=rep.partial_sums)


def _cmd_gap_probe(args):
    seq, spec, radius = _build_sequence(args)
    sizes = sorted(set(args.sizes or (21, 51, 101, 201)))
    rep = min_gap_residual(seq, args.gap, sizes)
    payload = {"params": _params(args, seq=spec, radius=radius, sizes=sizes), **_json.fields(rep)}
    return rep.classification, payload, _csv(
        size=rep.sizes,
        min_eigenvalue=rep.min_eigenvalues,
        floored=rep.floored_eigenvalues,
        noise_floor=rep.noise_floors,
    )


def _parse_smoothness(text):
    if text == "inf":
        return "inf"
    try:
        return int(text)
    except ValueError:
        raise BadArgument(f"--smoothness must be 'inf' or a nonnegative integer, got {text!r}") from None


def _cmd_gap_measure(args):
    mu = lattice_gap_measure(args.gap, args.n, _parse_smoothness(args.smoothness))
    payload = {
        "params": _params(args),
        "n_atoms": len(mu),
        "total_variation": mu.total_variation,
        "margin": design_margin(args.gap),
    }
    if args.verify_interval is not None:
        payload["verify"] = verify_gap(mu, _parse_pair(args.verify_interval, "--verify-interval"), args.grid_step)
    else:
        check_grid_step(args.grid_step)  # unused, but echoed under params
    return None, payload, _csv(point=mu.points, re=mu.weights.real, im=mu.weights.imag)


def _cmd_cauchy(args):
    ys = _y_ladder(args, "linear")
    mu = symmetric_gap_measure(args.gap / 2.0, args.n)
    rep = cauchy_decay(mu, args.x, ys, args.tol)
    payload = {"params": _params(args), "half_gap": args.gap / 2.0, **_json.fields(rep)}
    return rep.verdict, payload, _csv(y=rep.y_values, log_abs_plus=rep.plus.log_abs, log_abs_minus=rep.minus.log_abs)


def _cmd_ftype(args):
    ys = _y_ladder(args, "log")
    # resolved per call from the module globals, so a rebound bmlab.cli.log_abs_* is what runs
    log_modulus = log_abs_qcos if args.function == "qcos" else log_abs_cos
    est = type_estimate(log_modulus, ys)
    payload = {"params": _params(args), **_json.fields(est)}
    return None, payload, _csv(y=est.y_values, log_modulus=est.log_moduli)


def _subcommand(sub, name, handler, summary, seq=False):
    """A subparser whose handler runs with it; ``seq`` adds the sequence source flags."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(handler=(handler, p))
    if seq:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--seq", help="sequence generator spec; see the grammar below --help")
        source.add_argument("--input", help="sequence file path, same as --seq file:<path>")
        p.add_argument(
            "--radius",
            action="append",
            type=float,
            help="window radius; repeat 4+ times for an explicit evidence ladder",
        )
    return p


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

    for name, handler, summary in (
        ("density", _cmd_density, "bracket the interior density by bisection"),
        ("classify", _cmd_classify, "full classification: density bracket plus witness search"),
    ):
        p = _subcommand(sub, name, handler, summary, seq=True)
        p.add_argument("--tol", type=float, default=0.05, help="bracket tolerance on a")

    p = _subcommand(sub, "bm", _cmd_bm, "dump the envelope interval family of a*x - n(x)", seq=True)
    p.add_argument("--a", type=float, required=True, help="slope of the test line")
    p.add_argument("--window", help="computation window lo,hi (default -radius,radius)")

    p = _subcommand(sub, "short", _cmd_short, "classify an interval family file as Short or Long")
    p.add_argument("--family", required=True, help="CSV file with left,right[,flag] rows")
    p.add_argument(
        "--radius",
        action="append",
        type=float,
        dest="radii",
        metavar="RADIUS",
        help="evidence radius; repeat 4+ times for an explicit ladder",
    )

    p = _subcommand(sub, "gap-probe", _cmd_gap_probe, "smallest Gram eigenvalue along growing windows", seq=True)
    p.add_argument("--gap", type=float, required=True, help="interval length a of the Gram inner product")
    p.add_argument(
        "--n",
        action="append",
        type=int,
        dest="sizes",
        metavar="N",
        help="window sizes (repeatable); default 21 51 101 201",
    )

    p = _subcommand(sub, "gap-measure", _cmd_gap_measure, "design an integer-atom measure with a spectral gap")
    p.add_argument("--gap", type=float, required=True, help="designed gap length a in (0, 2*pi)")
    p.add_argument("--n", type=int, default=256, help="coefficient cutoff N (default 256)")
    p.add_argument("--smoothness", default="inf", help="'inf' or an integer k for a C^k bump")
    p.add_argument("--verify-interval", help="check max |transform| on lo,hi")
    p.add_argument("--grid-step", type=float, default=1e-3, help="verification grid step")

    p = _subcommand(sub, "cauchy", _cmd_cauchy, "Cauchy transform decay test on a symmetric gap measure")
    p.add_argument("--gap", type=float, required=True, help="symmetric gap length; transform vanishes on +-gap/2")
    p.add_argument("--n", type=int, default=256, help="coefficient cutoff N (default 256)")
    p.add_argument("--x", type=float, required=True, help="test abscissa of the decay criterion")
    p.add_argument("--y-min", type=float, default=2.0)
    p.add_argument("--y-max", type=float, default=20.0)
    p.add_argument("--y-count", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-6, help="terminal magnitude for VanishesCompatible")

    p = _subcommand(sub, "ftype", _cmd_ftype, "exponential type fit along the imaginary axis")
    p.add_argument("--function", choices=("qcos", "cos"), default="qcos")
    p.add_argument("--y-min", type=float, default=10.0)
    p.add_argument("--y-max", type=float, default=1e6)
    p.add_argument("--y-count", type=int, default=64)

    for p in sub.choices.values():
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--csv-out", help="write plot-friendly curves to this CSV file")

    return parser


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    root = build_parser()
    args = root.parse_args(argv)
    handler, parser = args.handler
    try:
        verdict, payload, write_csv_to = handler(args)
        text = _json.dumps(payload)
        if args.out is None:
            print(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        if args.csv_out is not None:
            write_csv_to(args.csv_out)
        return EXIT_INCONCLUSIVE if verdict == INCONCLUSIVE else EXIT_OK
    except BadArgument as exc:
        parser.error(str(exc))
    except (OSError, BadDataFile, DuplicatePoint, NotSeparated, EmptyRange) as exc:
        print(f"{root.prog}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BmLabError as exc:
        print(f"{root.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
