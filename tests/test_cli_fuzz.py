"""Fuzz of the command line over argv and data-file contents.

Every subcommand, fed floats from {nan, +-inf, 0, -1, 1e-320, 1e300} and
ordinary values, and sequence and family files with junk, non-finite and
extreme lines, must end with a documented exit code (0, 1, 2, 64, 65).
No other exception may escape ``run`` and no RuntimeWarning may be
raised.  Sizes stay bounded: a built-in radius of at most 2000, ``--n``
at most 256, ``--y-count`` at most 64, ``--grid-step`` at least 1e-3 and
verification intervals inside [-10, 10].  Larger values come only from
the special list, which the program refuses before allocating (a size
cap, a radius beyond the generator cap, a grid beyond the grid cap).
"""

import contextlib
import io
import math
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bmlab.cli import run

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-320, 1e300]
EXIT_CODES = {0, 1, 2, 64, 65}


def _f(lo, hi):
    return st.floats(lo, hi).map(repr)


def _opt(name, values):
    """``--name=value``, so that a leading minus is not read as a flag."""
    return values.map(lambda v: [f"--{name}={v}"])


def _maybe(name, values):
    """The flag with one of ``values``, or left at its default."""
    return st.one_of(st.just([]), _opt(name, values))


def _bad(name, *extra):
    """A special float for the flag, an extra bad value, or the flag left out."""
    values = st.sampled_from([*map(repr, SPECIAL), *extra])
    return st.one_of(_opt(name, values), st.just([]))


def _ladder(name, lo, hi, size):
    return st.lists(st.floats(lo, hi), min_size=size, max_size=size, unique=True).map(
        lambda vs: [f"--{name}={v!r}" for v in vs]
    )


def _lines(values):
    return st.lists(values, max_size=40).map("\n".join)


# sequence files: distinct ordinary points; bad ones mix in non-finite,
# extreme, duplicate and junk lines
GOOD_POINTS = st.lists(st.floats(-60.0, 60.0), unique=True, min_size=2, max_size=40).map(
    lambda ps: "\n".join(map(repr, ps))
)
BAD_POINTS = _lines(st.one_of(_f(-60.0, 60.0), st.sampled_from([*map(repr, SPECIAL), "", "# c", "abc", "1.0"])))
# family files: disjoint intervals from sorted distinct ends
GOOD_FAMILY = st.lists(st.floats(-100.0, 100.0), unique=True, max_size=24).map(sorted).map(
    lambda e: "left,right\n" + "\n".join(f"{a!r},{b!r}" for a, b in zip(e[::2], e[1::2]))
)
BAD_FAMILY = _lines(
    st.one_of(
        st.tuples(st.sampled_from(list(map(repr, SPECIAL))), _f(-100.0, 100.0)).map(",".join),
        st.sampled_from(["left,right,flag", "", "# c", "1", "x,y", "1,2,bogus", "2,1", "0,5", "1,3"]),
    )
)

SEQ_GOOD = st.one_of(
    _f(0.5, 2.0).map(lambda s: ["--seq", f"lattice:{s}"]),
    st.sampled_from([["--seq", "squares"], ["--seq", "logperturbed"]]),
    st.sampled_from([["--input", "{seq}"], ["--seq", "file:{seq}"]]),
)
SEQ_BAD = st.one_of(
    st.sampled_from(list(map(repr, SPECIAL))).map(lambda s: ["--seq", f"lattice:{s}"]),
    st.sampled_from([["--seq", "wat"], ["--seq", "lattice:x"], ["--seq", "squares:2"], ["--seq", "file:"], []]),
)
N_BAD = ["-2", "0", "31", "256", str(10**6)]

# per subcommand: (flag, good values, bad values); each value is a list of argv words
COMMANDS = {
    "density": [
        ("seq", SEQ_GOOD, SEQ_BAD),
        (
            "radius",
            st.one_of(_ladder("radius", 16.0, 2000.0, 1), _ladder("radius", 16.0, 2000.0, 4)),
            st.one_of(_bad("radius"), _ladder("radius", -10.0, 10.0, 3)),
        ),
        ("tol", _opt("tol", _f(0.01, 0.4)), _bad("tol", "0.6")),
    ],
    "bm": [
        ("seq", SEQ_GOOD, SEQ_BAD),
        ("radius", _ladder("radius", 16.0, 2000.0, 1), _bad("radius")),
        ("a", _opt("a", _f(-3.0, 3.0)), _bad("a")),
        (
            "window",
            _maybe("window", st.sampled_from(["-10,10", "-3000,5", "0,2000"])),
            _bad("window", "1", "a,b", "1,2,3", "5,-5", "-inf,1", "-1e300,1e300", "nan,1"),
        ),
    ],
    "short": [
        ("family", st.just(["--family", "{fam}"]), st.just(["--family", "{fam}.missing"])),
        (
            "radius",
            st.one_of(st.just([]), _ladder("radius", 1.0, 1e6, 1), _ladder("radius", 1.0, 1e6, 4)),
            _bad("radius"),
        ),
    ],
    "gap-probe": [
        ("seq", SEQ_GOOD, SEQ_BAD),
        ("radius", _ladder("radius", 16.0, 600.0, 1), _bad("radius")),
        ("gap", _opt("gap", _f(0.5, 8.0)), _bad("gap")),
        ("n", st.lists(_opt("n", st.integers(1, 40)), max_size=3).map(lambda ns: sum(ns, [])), _bad("n", *N_BAD)),
    ],
    "gap-measure": [
        ("gap", _opt("gap", _f(0.5, 6.0)), _bad("gap", "7")),
        ("n", _maybe("n", st.integers(32, 256)), _bad("n", *N_BAD)),
        (
            "smoothness",
            _maybe("smoothness", st.sampled_from(["inf", "0", "8"])),
            _bad("smoothness", "-1", "100000", "x", "1e3", "1" + "0" * 400),
        ),
        (
            "verify-interval",
            _maybe("verify-interval", st.sampled_from(["0.4,2.6", "-10,10", "3,9"])),
            _bad("verify-interval", "2,1", "a,b", "0,1e300", "-1e300,1e300"),
        ),
        ("grid-step", _maybe("grid-step", _f(1e-3, 1.0)), _bad("grid-step")),
    ],
    "cauchy": [
        ("gap", _opt("gap", _f(0.5, 6.0)), _bad("gap", "7")),
        ("n", _maybe("n", st.integers(32, 128)), _bad("n", *N_BAD)),
        ("x", _opt("x", _f(-1.0, 1.0)), _bad("x")),
        ("y-min", _opt("y-min", _f(0.1, 5.0)), _bad("y-min", "30", "-1e308")),
        ("y-max", _opt("y-max", _f(10.0, 60.0)), _bad("y-max", "1e308")),
        ("y-count", _opt("y-count", st.integers(4, 64)), _bad("y-count", "-1", "3", str(10**10))),
        ("tol", _opt("tol", _f(1e-12, 1e-2)), _bad("tol")),
    ],
    "ftype": [
        ("function", _opt("function", st.sampled_from(["qcos", "cos"])), st.just(["--function=sin"])),
        ("y-min", _opt("y-min", _f(0.1, 5.0)), _bad("y-min", "30", "-1e308")),
        ("y-max", _opt("y-max", _f(10.0, 60.0)), _bad("y-max", "1e308")),
        ("y-count", _opt("y-count", st.integers(8, 64)), _bad("y-count", "-1", "7", str(10**10))),
    ],
}
COMMANDS["classify"] = COMMANDS["density"]


@st.composite
def argvs(draw):
    """A valid argv for one subcommand with zero, one or two of its flags made bad."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command]
    bad = draw(st.lists(st.sampled_from(range(len(flags))), unique=True, max_size=2))
    argv = [command]
    for k, (_, good_values, bad_values) in enumerate(flags):
        argv += draw(bad_values if k in bad else good_values)
    return argv + draw(st.sampled_from([[], ["--csv-out", "{csv}"]]))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return code, err.getvalue()


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=argvs(), seq_text=st.one_of(GOOD_POINTS, BAD_POINTS), fam_text=st.one_of(GOOD_FAMILY, BAD_FAMILY))
@example(argv=["ftype", "--y-min=1", "--y-max=1.0000000000000002", "--y-count=64"], seq_text="", fam_text="")
@example(argv=["ftype", "--y-min", "0"], seq_text="", fam_text="")
@example(argv=["short", "--family", "{fam}", "--radius", "0"], seq_text="", fam_text="1,2")
@example(
    argv=["density", "--seq", "lattice:1", "--radius=-10", "--radius", "20", "--radius", "40", "--radius", "80"],
    seq_text="",
    fam_text="",
)
@example(argv=["cauchy", "--gap", "3", "--x", "1", "--y-max", "inf"], seq_text="", fam_text="")
@example(argv=["gap-measure", "--gap=3", "--verify-interval=0.4,2.6", "--grid-step=inf"], seq_text="", fam_text="")
@example(argv=["gap-measure", "--gap=3", "--grid-step=inf"], seq_text="", fam_text="")
@example(argv=["cauchy", "--gap", "3", "--x", "1", "--y-min=-1e308", "--y-max=1e308"], seq_text="", fam_text="")
@example(argv=["short", "--family", "{fam}"], seq_text="", fam_text="1e49,1e50")
@example(argv=["bm", "--seq", "lattice:1", "--radius", "10", "--a", "nan"], seq_text="", fam_text="")
@example(argv=["cauchy", "--gap", "3", "--x", "nan"], seq_text="", fam_text="")
@example(argv=["density", "--seq", "lattice:1", "--radius", "1000", "--tol", "1"], seq_text="", fam_text="")
@example(argv=["density", "--seq", "lattice:1", "--radius", "100", "--tol", "1e-320"], seq_text="", fam_text="")
@example(argv=["gap-measure", "--gap", "3", "--n", "64", "--smoothness", "100000"], seq_text="", fam_text="")
@example(argv=["gap-measure", "--gap", "5.5", "--n", "64", "--smoothness", "100000"], seq_text="", fam_text="")
@example(argv=["density", "--input", "{seq}", "--radius", "20"], seq_text="1\r2\r\n3\x0c4\n# c\r\n5", fam_text="")
@example(argv=["density", "--input", "{seq}", "--radius", "20"], seq_text="-3\r-1_0\r\n2\r\n\u0663\n7", fam_text="")
@example(argv=["short", "--family", "{fam}"], seq_text="", fam_text="left,right\r1,2\r\n3,4\r")
def test_every_argv_ends_with_a_documented_exit_code(tmp_path_factory, argv, seq_text, fam_text):
    work = tmp_path_factory.mktemp("fuzz")
    seq, fam = work / "seq.txt", work / "fam.csv"
    seq.write_text(seq_text)
    fam.write_text(fam_text)
    argv = [a.format(seq=seq, fam=fam, csv=work / "out.csv") for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = _run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err
    if code in (1, 64, 65):
        assert err.count("error:") <= 1, err
