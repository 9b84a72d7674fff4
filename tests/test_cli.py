import argparse
import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import bmlab
from bmlab import _json, cli, errors
from bmlab.cli import GENERATOR_GRAMMAR, build_parser, run
from bmlab.density import interior_density
from bmlab.envelope import INTERIOR, TOUCHES_WINDOW_EDGE, IntervalFamily
from bmlab.gap import lattice_gap_measure
from bmlab.sequences import parse_generator

PI = math.pi


def run_cli(argv):
    """In-process run; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    assert out.strip().startswith("{"), f"no JSON on stdout; stderr: {err}"
    return code, json.loads(out)


# --------------------------------------------------------------- exit codes


def test_definite_verdict_exits_zero():
    code, payload = run_json(["density", "--seq", "lattice:1", "--radius", 100])
    assert code == 0
    assert payload["polya_class"] == "Polya"


def test_inconclusive_exits_two():
    # tolerance below the resolution the window supports
    code, payload = run_json(
        ["density", "--seq", "lattice:1", "--radius", 50, "--tol", 0.001]
    )
    assert code == 2
    assert payload["polya_class"] == "Inconclusive"
    assert payload["resolution_ok"] is False


def test_computation_error_exits_one():
    # 7 lattice points is below the 16-point floor of the density engine
    code, out, err = run_cli(["density", "--seq", "lattice:1", "--radius", 3])
    assert code == 1
    assert out == ""
    assert "WindowTooSmall" in err


@pytest.mark.parametrize(
    "spec, code, line",
    [
        ("squares", 1, "bm-lab: WindowTooSmall: radius 0.5 holds no nonzero square"),
        ("logperturbed", 1, "bm-lab: WindowTooSmall: radius 0.5 holds no perturbed point"),
        ("file:{path}", 65, "bm-lab: data error: no points of {path} within radius 0.5"),
    ],
    ids=["squares", "logperturbed", "file"],
)
def test_a_radius_that_holds_no_point_exits_with_one_line(tmp_path, spec, code, line):
    path = tmp_path / "pts.txt"
    path.write_text("1\n2\n3\n")
    got = run_cli(["density", "--seq", spec.format(path=path), "--radius", 0.5])
    assert got == (code, "", line.format(path=path) + "\n")


@pytest.mark.parametrize("radii", [[5, "nan"], ["nan", 5], [5, -3], [5, 0]], ids=["5,nan", "nan,5", "5,-3", "5,0"])
@pytest.mark.parametrize("command", ["bm", "gap-probe", "density", "classify"])
def test_every_repeated_radius_is_checked(command, radii):
    # a bad value is refused wherever it stands, not only as the largest
    extra = {"bm": ["--a", 1], "gap-probe": ["--gap", 3]}.get(command, [])
    argv = [command, "--seq", "lattice:1", *extra]
    for r in radii:
        argv += ["--radius", r]
    code, out, err = run_cli(argv)
    bad = next(r for r in radii if r != 5)
    assert (code, out) == (64, "")
    assert f"error: radius must be positive and finite, got {float(bad)!r}\n" in err


def _error_classes():
    return [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.BmLabError)]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_every_error_class_exits_with_the_code_of_its_base(monkeypatch, cls):
    # a new error type is classified where it is declared: DataError 65, BadArgument 64, the rest 1
    def fail(*args):
        raise cls("the message")

    monkeypatch.setattr(cli, "type_estimate", fail)
    code, out, err = run_cli(["ftype"])
    assert out == ""
    if issubclass(cls, errors.BadArgument):
        assert code == 64
        assert [line for line in err.splitlines() if "error:" in line] == ["bm-lab ftype: error: the message"]
    elif issubclass(cls, errors.DataError):
        assert (code, err) == (65, "bm-lab: data error: the message\n")
    else:
        assert (code, err) == (1, f"bm-lab: {cls.__name__}: the message\n")


def test_usage_errors_exit_sixtyfour():
    for argv in (
        ["density", "--seq", "wat", "--radius", 10],
        ["density", "--seq", "lattice:-1", "--radius", 10],
        ["density", "--seq", "lattice:1"],  # built-in without radius
        ["density", "--seq", "lattice:1", "--input", "x.txt", "--radius", 10],
        ["nope"],
        ["gap-measure", "--gap", 7.0],  # outside (0, 2 pi)
        ["bm", "--seq", "lattice:1", "--radius", 10],  # missing --a
        ["gap-probe", "--seq", "lattice:1", "--radius", 101, "--gap", PI, "--n", 300],
    ):
        code, out, err = run_cli(argv)
        assert code == 64, argv
        assert "generator grammar" in err


def test_short_explicit_ladder_needs_four_distinct():
    code, out, err = run_cli(
        ["density", "--seq", "lattice:1",
         "--radius", 10, "--radius", 20, "--radius", 30]
    )
    assert code == 64
    assert "at least 4 distinct" in err


def test_missing_file_exits_sixtyfive():
    code, out, err = run_cli(["density", "--input", "/nonexistent/pts.txt"])
    assert code == 65
    assert "data error" in err


def test_a_gap_beyond_the_double_range_exits_sixtyfive(tmp_path, recwarn):
    # the gap and the counting function's edge slopes would overflow
    path = tmp_path / "wide.txt"
    path.write_text("-1.7e308\n1.7e308\n")
    code, out, err = run_cli(["bm", "--input", path, "--a", 0])
    assert (code, out) == (65, "")
    assert err == "bm-lab: data error: the gap from -1.7e+308 to 1.7e+308 is beyond the largest double\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_malformed_file_reports_line_number(tmp_path):
    bad = tmp_path / "pts.txt"
    bad.write_text("1.0\n2.0\nbogus\n")
    code, out, err = run_cli(["density", "--input", str(bad)])
    assert code == 65
    assert f"{bad}:3" in err


def test_non_finite_data_line_exits_sixtyfive(tmp_path):
    bad = tmp_path / "pts.txt"
    bad.write_text("1.0\n2.0\nnan\n3.0\n")
    code, out, err = run_cli(["density", "--input", str(bad)])
    assert code == 65
    assert out == ""
    assert f"{bad}:3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "rows, line",
    [("1,2\n3,inf\n", 3), ("0,1e200\n2e200,3e200\n", 2)],
    ids=["infinite", "huge"],
)
def test_bad_family_endpoints_exit_sixtyfive(tmp_path, rows, line):
    fam = tmp_path / "fam.csv"
    fam.write_text("left,right\n" + rows)
    code, out, err = run_cli(["short", "--family", fam])
    assert code == 65
    assert out == ""
    assert f"{fam}:{line}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gap-measure", "--gap", 3, "--n", 1000000],
        ["cauchy", "--gap", 3, "--n", 1000000, "--x", 1.0],
        ["gap-measure", "--gap", 3, "--n", 64, "--verify-interval", "0.4,2.6", "--grid-step", 1e-9],
        ["cauchy", "--gap", 3, "--x", 1.0, "--y-count", 10000000000],
        ["ftype", "--y-count", 10000000000],
        ["density", "--seq", "lattice:1", "--radius", 1e11],
        ["density", "--seq", "lattice:1e-320", "--radius", 10],  # the point count overflows to inf
        ["classify", "--seq", "squares", "--radius", 1e300],
        ["bm", "--seq", "logperturbed", "--radius", 1e7, "--a", 1.0],
    ],
)
def test_size_caps_exit_one(argv):
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "SizeGuard" in err


# ------------------------------------------------------------ determinism


def test_json_output_is_byte_deterministic():
    argv = ["density", "--seq", "lattice:1", "--radius", 100]
    _, out1, _ = run_cli(argv)
    _, out2, _ = run_cli(argv)
    assert out1 == out2
    assert out1.endswith("\n")


def test_json_keys_are_sorted():
    def check_sorted(obj):
        if isinstance(obj, dict):
            assert list(obj) == sorted(obj)
            for v in obj.values():
                check_sorted(v)
        elif isinstance(obj, list):
            for v in obj:
                check_sorted(v)

    _, out, _ = run_cli(["density", "--seq", "lattice:1", "--radius", 100])
    check_sorted(json.loads(out, object_pairs_hook=dict))
    # key order in the raw text, not only after parsing
    pairs = json.loads(out, object_pairs_hook=lambda p: [k for k, _ in p])
    assert pairs == sorted(pairs)


def escaped_by_rule(ch):
    """The written rule for one character of a JSON string."""
    if ch in '"\\':
        return "\\" + ch
    if ord(ch) < 0x20:
        return "\\u00%02x" % ord(ch)
    return ch


def test_json_strings_escape_by_the_rule():
    # every ASCII code point, non-ASCII text, a lone surrogate and a mix
    for text in [chr(c) for c in range(0x80)] + ["\u00e9\u4e2d\U0001f600", "\ud800", 'a"b\\c\n\x7f\udcff']:
        want = '"' + "".join(escaped_by_rule(ch) for ch in text) + '"'
        assert _json.dumps(text) == want, repr(text)
        assert _json.dumps({text: 0}) == "{" + want + ": 0}", repr(text)


def in_text_order(pairs):
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys), keys
    return pairs


def parse_raw(text):
    """The emitted text as the stdlib reads it, every number kept as its
    ("num", token) and every object as its (key, value) pairs, whose keys
    must be sorted in the text."""
    num = lambda token: ("num", token)  # noqa: E731
    return json.loads(text, parse_float=num, parse_int=num, object_pairs_hook=in_text_order)


def g17(x):
    return ("num", f"{float(x):.17g}")


@dataclass
class _Inner:
    b: float
    a: list


def test_json_emitter_against_the_stdlib_parser():
    obj = {
        "neg_zero": -0.0, "subnormal": 5e-324, "huge": 1e308, "nan": math.nan, "inf": math.inf,
        "ninf": -math.inf, "f32": np.float32(0.1), "i64": np.int64(-7), "yes": np.bool_(True),
        "no": np.False_, "inner": _Inner(b=1 / 3, a=[2, "x", None, (0.5,)]), "empty_list": [], "empty_dict": {},
    }
    text = _json.dumps(obj)
    assert parse_raw(text) == [
        ("empty_dict", []), ("empty_list", []), ("f32", g17(np.float32(0.1))), ("huge", g17(1e308)),
        ("i64", ("num", "-7")), ("inf", "inf"),
        ("inner", [("a", [("num", "2"), "x", None, [g17(0.5)]]), ("b", g17(1 / 3))]),
        ("nan", "nan"), ("neg_zero", ("num", "-0")), ("ninf", "-inf"), ("no", False),
        ("subnormal", g17(5e-324)), ("yes", True),
    ]
    assert '"empty_dict": {}' in text and '"empty_list": []' in text


def test_json_prints_numpy_bools():
    assert _json.dumps(np.True_) == "true" and _json.dumps(np.False_) == "false"
    assert _json.dumps({"ok": np.arange(3) < 2}) == '{"ok": [true, true, false]}'
    assert _json.dumps([np.bool_(1 > 2)]) == "[false]"


@pytest.mark.parametrize("obj", [{1: 2, "1": 3}, {1: 2}, {None: 0}, {"a": {("b",): 1}}, {1.5: 0, 2.5: 1}])
def test_json_refuses_a_dict_key_that_is_not_str(obj):
    with pytest.raises(TypeError):
        _json.dumps(obj)


@pytest.mark.parametrize("rows", [0, 1, 1000])
@pytest.mark.parametrize("flag", [False, True])
def test_json_column_table_is_the_list_of_its_rows(rows, flag):
    rng = np.random.default_rng(rows)
    special = [-0.0, 5e-324, 1e50, -1e50][: 2 * rows]
    ends = np.sort(np.concatenate([special, rng.normal(size=2 * rows - len(special)) * 1e3]))
    fam = IntervalFamily(ends[0::2], ends[1::2], rng.random(rows) < 0.5)
    table = _json.Table(left=fam.left, right=fam.right, **({"flag": fam.flags} if flag else {}))
    text = _json.dumps({"intervals": table})
    [(key, got)] = parse_raw(text)
    flags = [TOUCHES_WINDOW_EDGE if e else INTERIOR for e in fam.edge.tolist()]
    want = [
        [("flag", f)] * flag + [("left", g17(lo)), ("right", g17(hi))]
        for lo, hi, f in zip(fam.left.tolist(), fam.right.tolist(), flags)
    ]
    assert key == "intervals" and got == want
    as_dicts = [
        {"left": lo, "right": hi, **({"flag": f} if flag else {})}
        for lo, hi, f in zip(fam.left.tolist(), fam.right.tolist(), flags)
    ]
    assert _json.dumps(table) == _json.dumps(as_dicts)


def test_json_column_table_takes_any_column_by_the_value_rule():
    table = _json.Table(**{
        "x": np.array([math.nan, -0.0, -math.inf]),
        'k"%s': np.array(['a"b', "c\n", "a\"b"]),
        "n": np.array([1, -2, 3]),
        "o": np.array([None, np.True_, [1.5]], dtype=object),
    })
    rows = [
        {"x": math.nan, 'k"%s': 'a"b', "n": 1, "o": None},
        {"x": -0.0, 'k"%s': "c\n", "n": -2, "o": True},
        {"x": -math.inf, 'k"%s': 'a"b', "n": 3, "o": [1.5]},
    ]
    assert _json.dumps(table) == _json.dumps(rows)
    assert _json.dumps(_json.Table(x=np.zeros(0))) == "[]"


def test_bm_json_makes_as_many_dumps_calls_for_any_family_size(monkeypatch, tmp_path):
    # the family prints from its columns: no Python-level call per interval
    counts = []
    dumps = _json.dumps

    def counted(obj):
        counts[-1] += 1
        return dumps(obj)

    monkeypatch.setattr(_json, "dumps", counted)
    for radius in (10, 1000):
        points = tmp_path / f"points{radius}.txt"
        points.write_text("".join(f"{k + 0.25 * (k % 2)!r}\n" for k in range(-radius, radius + 1)))
        counts.append(0)
        code, payload = run_json(["bm", "--input", points, "--radius", radius, "--a", 1.0])
        assert code == 0 and payload["count"] == radius
    assert counts[0] == counts[1]


def key_paths(obj, prefix=""):
    """The nested key tree of a JSON value as sorted dotted paths; a list
    of objects contributes its first element's keys under ``[]``."""
    if isinstance(obj, dict):
        paths = []
        for k, v in obj.items():
            paths += key_paths(v, f"{prefix}{k}.") or [prefix + k]
        return sorted(paths)
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        return key_paths(obj[0], prefix[:-1] + "[].")
    return []


DENSITY_KEYS = """a_lower a_tolerance a_upper delta gap_lower gap_upper n_points polya_class
    radii resolution_ok trials[].a trials[].verdict window""".split()
SHORTNESS_KEYS = "coefficient degenerate model partial_sums r_squared radii verdict".split()
MEASURE_KEYS = """margin n_atoms params.command params.gap params.grid_step params.n
    params.smoothness params.verify_interval total_variation""".split()
SEQ_PARAMS = "params.command params.radius params.seq".split()


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["density", "--seq", "lattice:1", "--radius", 100], [*DENSITY_KEYS, *SEQ_PARAMS, "params.tol"]),
        (
            ["classify", "--seq", "lattice:1", "--radius", 100],
            [*("density." + k for k in DENSITY_KEYS), *SEQ_PARAMS, "params.tol", "polya_class", "witness"],
        ),
        (
            ["classify", "--seq", "squares", "--radius", "1e4"],
            [
                *("density." + k for k in DENSITY_KEYS), *SEQ_PARAMS, "params.tol", "polya_class",
                "witness.intervals[].left", "witness.intervals[].right", "witness.ladder", "witness.ratios",
                *("witness.shortness." + k for k in SHORTNESS_KEYS),
            ],
        ),
        (
            ["bm", "--seq", "lattice:1", "--radius", 20, "--a", 1.2],
            ["count", "intervals[].flag", "intervals[].left", "intervals[].right", *SEQ_PARAMS,
             "params.a", "params.window"],
        ),
        (["short", "--family", "{fam}"], [*SHORTNESS_KEYS, "count", "params.command", "params.family", "params.radii"]),
        (
            ["gap-probe", "--seq", "lattice:1", "--radius", 101, "--gap", 3, "--n", 11, "--n", 21],
            ["breakdown", "classification", "fall_factor", "floored_eigenvalues", "min_eigenvalues",
             "noise_floors", *SEQ_PARAMS, "params.gap", "params.sizes", "sizes", "step_ratios"],
        ),
        (["gap-measure", "--gap", 2, "--n", 64], MEASURE_KEYS),
        (
            ["gap-measure", "--gap", 2, "--n", 64, "--verify-interval", "2.5,3.5"],
            [*MEASURE_KEYS, "verify.argmax", "verify.grid_step", "verify.interval", "verify.max_abs"],
        ),
        (
            ["cauchy", "--gap", 3, "--x", 0.5],
            ["half_gap", "minus.log_abs", "minus.rate", "params.command", "params.gap", "params.n",
             "params.tol", "params.x", "params.y_count", "params.y_max", "params.y_min", "plus.log_abs",
             "plus.rate", "tolerance", "verdict", "x", "y_values"],
        ),
        (
            ["ftype", "--y-count", 16],
            ["fitted_sqrt_coeff", "fitted_type", "log_moduli", "params.command", "params.function",
             "params.y_count", "params.y_max", "params.y_min", "y_max", "y_values"],
        ),
    ],
    ids="density classify classify-witness bm short gap-probe gap-measure gap-measure-verify cauchy ftype".split(),
)
def test_json_key_tree_of_every_subcommand(tmp_path, argv, keys):
    # JSON prints a report as its own fields, so an added or dropped field shows up here
    fam = tmp_path / "fam.csv"
    fam.write_text("1,2,Interior\n4,8,TouchesWindowEdge\n")
    code, payload = run_json([str(a).format(fam=fam) for a in argv])
    assert code in (0, 2)
    assert key_paths(payload) == sorted(keys)


def test_params_echo_resolved_arguments():
    _, payload = run_json(["density", "--seq", "lattice:0.5", "--radius", 20])
    assert payload["params"] == {
        "command": "density",
        "seq": "lattice:0.5",
        "radius": 20.0,
        "tol": 0.05,
    }


def subparsers():
    """{command: the subparser that declares its flags}."""
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def flag_dests(command):
    """The dests of a subcommand's flags, read from the parser that declares them."""
    return {a.dest for a in subparsers()[command]._actions if a.option_strings and a.dest != "help"}


def test_only_density_and_classify_promise_a_radius_ladder():
    # bm and gap-probe take no ladder: a repeated --radius cuts at the largest
    sequence_commands = {name: p for name, p in subparsers().items() if "seq" in flag_dests(name)}
    assert sorted(sequence_commands) == ["bm", "classify", "density", "gap-probe"]
    promising = {name for name, p in sequence_commands.items() if "ladder" in p.format_help()}
    assert promising == {"density", "classify"}


@pytest.mark.parametrize(
    "argv, resolved",
    [
        (["density", "--seq", "lattice:1", "--radius", 100, "--radius", 12.5, "--radius", 25, "--radius", 50],
         {"seq": "lattice:1", "radius": 100.0}),
        (["classify", "--input", "{pts}"], {"seq": "file:{pts}", "radius": None}),
        (["bm", "--seq", "lattice:1", "--radius", 20, "--a", 1.2], {"window": [-20.0, 20.0]}),
        (["bm", "--seq", "lattice:1", "--radius", 20, "--a", 1.2, "--window", "-10,10"], {"window": [-10.0, 10.0]}),
        (["short", "--family", "{fam}", "--radius", 8], {"radii": [8.0 / 2**k for k in range(7, -1, -1)]}),
        (["gap-probe", "--seq", "lattice:1", "--radius", 101, "--gap", 3, "--n", 21, "--n", 11, "--n", 21],
         {"sizes": [11, 21]}),
        (["gap-measure", "--gap", 2, "--n", 64], {"n": 64}),
        (["gap-measure", "--gap", 3, "--n", 64, "--n", 32], {"n": 32}),  # the last value, as for --gap
        (["cauchy", "--gap", 3, "--x", 0.5], {"n": 256}),
        (["cauchy", "--gap", 3, "--x", 0.5, "--n", 64, "--n", 40], {"n": 40}),
        (["ftype", "--y-count", 16], {"y_count": 16}),
    ],
    ids="density classify bm bm-window short gap-probe gap-measure gap-measure-last-n cauchy cauchy-last-n ftype".split(),
)
def test_params_are_the_flag_dests_with_resolved_values(tmp_path, argv, resolved):
    # every echoed key is a flag's dest, so a flag is declared in one place
    fam, pts = tmp_path / "fam.csv", tmp_path / "pts.txt"
    fam.write_text("1,2,Interior\n4,8,TouchesWindowEdge\n")
    pts.write_text("".join(f"{k}\n" for k in range(-20, 21)))
    fill = {"fam": fam, "pts": pts}
    code, payload = run_json([str(a).format(**fill) for a in argv])
    assert code in (0, 2)
    params = payload["params"]
    assert set(params) == {"command"} | flag_dests(argv[0]) - {"out", "csv_out", "input"}
    assert params["command"] == argv[0]
    for key, value in resolved.items():
        value = value.format(**fill) if isinstance(value, str) else value
        assert params[key] == value, key


@pytest.mark.parametrize("flag", ["--out", "--csv-out"])
def test_an_empty_output_path_is_a_data_error(flag):
    # "" is a path that cannot be opened, not an absent flag
    code, out, err = run_cli(["bm", "--seq", "lattice:1", "--radius", 10, "--a", 1, flag, ""])
    assert code == 65
    assert "data error" in err
    assert (out == "") == (flag == "--out")


def test_out_flag_writes_file_and_silences_stdout(tmp_path):
    dest = tmp_path / "report.json"
    code, out, err = run_cli(
        ["density", "--seq", "lattice:1", "--radius", 100, "--out", str(dest)]
    )
    assert code == 0
    assert out == ""
    payload = json.loads(dest.read_text())
    assert payload["polya_class"] == "Polya"


# ------------------------------------------------------------- generators


def test_lattice_step_grammar():
    _, payload = run_json(["density", "--seq", "lattice:0.5", "--radius", 20])
    assert payload["n_points"] == 81
    assert payload["delta"] == 0.5
    assert payload["window"] == [-20.0, 20.0]


@pytest.mark.parametrize(
    "step, radius, n_max, exit_code", [(0.52, 7.8, 14, 2), (0.08, 91.6, 1144, 0), (0.01, 13.7, 1369, 0)]
)
def test_lattice_keeps_only_the_points_within_its_radius(step, radius, n_max, exit_code):
    # radius/step rounds up to n_max + 1, whose multiple of step lies past the
    # radius; 29 points at 0.52 resolve slopes only to 2*delta/R > --tol, so exit 2
    assert math.floor(radius / step) == n_max + 1 and (n_max + 1) * step > radius
    code, payload = run_json(["density", "--seq", f"lattice:{step}", "--radius", radius])
    assert code == exit_code
    assert payload["n_points"] == 2 * n_max + 1
    assert payload["window"] == [-radius, radius]
    assert payload["a_lower"] <= 1.0 / step <= payload["a_upper"]


def test_squares_generator_counts_zero_once():
    _, payload = run_json(["density", "--seq", "squares", "--radius", 100])
    assert payload["n_points"] == 21


def test_squares_just_below_a_square_leave_that_square_out():
    # sqrt rounds these radii up to 5 and 9, whose squares lie past them
    code, payload = run_json(["bm", "--seq", "squares", "--radius", "24.999999999999996", "--a", 0.5])
    assert code == 0 and payload["intervals"][0]["left"] == -24.999999999999996
    code, payload = run_json(["gap-probe", "--seq", "squares", "--radius", "80.99999999999999", "--gap", 1, "--n", 5])
    assert code == 2 and payload["classification"] == "Inconclusive"


def test_file_generator_with_and_without_radius(tmp_path):
    src = tmp_path / "pts.txt"
    src.write_text("# integers\n" + "\n".join(str(k) for k in range(-40, 41)) + "\n")
    code, payload = run_json(["density", "--input", str(src)])
    assert code == 0
    assert payload["n_points"] == 81
    assert payload["params"]["seq"] == f"file:{src}"
    _, payload = run_json(["density", "--seq", f"file:{src}", "--radius", 20.5])
    assert payload["n_points"] == 41
    assert payload["window"] == [-20.5, 20.5]


def test_parse_generator_direct():
    seq = parse_generator("logperturbed", 30.0)
    assert seq.window == (-30.0, 30.0)
    assert all(abs(p) <= 30.0 for p in seq.points)
    assert "lattice:<step>" in GENERATOR_GRAMMAR


def test_the_readme_shows_the_generator_grammar():
    # the README's generator block is the grammar's list of generators, line for line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Sequences come from a small generator grammar:\n\n```\n", 1)[1].split("\n```", 1)[0]
    assert block.splitlines() == [line[2:] for line in GENERATOR_GRAMMAR.splitlines() if line.startswith("  ")]


# ------------------------------------------------------------ subcommands


def test_classify_witness_overrides_bracket():
    code, payload = run_json(["classify", "--seq", "squares", "--radius", 10000])
    assert code == 0
    assert payload["polya_class"] == "NotPolya"
    wit = payload["witness"]
    assert wit is not None
    assert wit["shortness"]["verdict"] == "Long"
    assert len(wit["intervals"]) == len(wit["ratios"])
    assert len(wit["intervals"]) >= 4


def test_classify_lattice_has_no_witness():
    code, payload = run_json(["classify", "--seq", "lattice:1", "--radius", 100])
    assert code == 0
    assert payload["polya_class"] == "Polya"
    assert payload["witness"] is None
    assert payload["density"]["a_lower"] == 1.0


def test_bm_below_density_yields_empty_family():
    _, payload = run_json(["bm", "--seq", "lattice:1", "--radius", 10, "--a", 0.5])
    assert payload["count"] == 0
    assert payload["intervals"] == []


def test_bm_above_density_yields_edge_component():
    _, payload = run_json(["bm", "--seq", "lattice:1", "--radius", 10, "--a", 1.5])
    assert payload["count"] == 1
    iv = payload["intervals"][0]
    assert iv["flag"] == "TouchesWindowEdge"
    assert iv["left"] == -10.0 and iv["right"] == 10.0


def test_bm_explicit_window():
    _, payload = run_json(
        ["bm", "--seq", "lattice:1", "--radius", 50, "--a", 1.5, "--window=-10,10"]
    )
    assert payload["params"]["window"] == [-10.0, 10.0]
    assert payload["count"] == 1


def test_bm_without_radius_or_window_takes_the_file_hull(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("".join(f"{k}\n" for k in range(-20, 21)))
    code, out, err = run_cli(["bm", "--input", path, "--a", 0.9])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["params"]["window"] == [-20.0, 20.0] and payload["params"]["radius"] is None
    _, explicit = run_json(["bm", "--input", path, "--a", 0.9, "--window=-20,20"])
    assert payload["intervals"] == explicit["intervals"]


@pytest.mark.parametrize(
    "source, data, window",
    [
        (["--seq", "lattice:1", "--radius", 10], "-10,10", "20,30"),
        (["--seq", "lattice:1", "--radius", 10], "-10,10", "-10,10.5"),
        (["--seq", "lattice:1", "--radius", 10], "-10,10", "-10.5,0"),
        (["--seq", "lattice:1", "--radius", 10], "-10,10", "-10,10.000000000000002"),
        (["--input", "{path}"], "-5,5", "0,9"),
    ],
)
def test_bm_window_past_the_data_window_is_refused(tmp_path, source, data, window):
    # past the data window gamma would be the edge slope's continuation,
    # not the sequence: exit 1 naming both windows exactly, even an ulp apart
    path = tmp_path / "points.txt"
    path.write_text("".join(f"{k}\n" for k in range(-5, 6)))
    argv = ["bm", *(str(a).format(path=path) for a in source), "--a", 1]
    code, out, err = run_cli(argv + [f"--window={window}"])
    assert (code, out) == (1, "")
    (lo, hi), (d0, d1) = (map(float, w.split(",")) for w in (window, data))
    assert err == f"bm-lab: OutOfWindow: --window [{lo!r}, {hi!r}] exceeds the data window [{d0!r}, {d1!r}]\n"
    # the data window itself is a window
    assert run_cli(argv + [f"--window={data}"])[0] == 0


def test_short_subcommand_short_family(tmp_path):
    fam = tmp_path / "short.csv"
    fam.write_text(
        "left,right,flag\n"
        + "\n".join(f"{2**k},{2**k + 1}" for k in range(2, 18))
        + "\n"
    )
    argv = ["short", "--family", str(fam)]
    for r in (1e3, 1e4, 1e5, 1e6):
        argv += ["--radius", r]
    code, payload = run_json(argv)
    assert code == 0
    assert payload["verdict"] == "Short"
    assert payload["count"] == 16
    assert payload["partial_sums"][-1] < PI**2 / 6.0


def test_short_subcommand_long_family(tmp_path):
    fam = tmp_path / "long.csv"
    fam.write_text(
        "left,right\n"
        + "\n".join(f"{2**k},{2**k + 2**(k-1)}" for k in range(2, 22))
        + "\n"
    )
    argv = ["short", "--family", str(fam)]
    for r in (1e2, 1e3, 1e4, 1e5, 1e6):
        argv += ["--radius", r]
    code, payload = run_json(argv)
    assert code == 0
    assert payload["verdict"] == "Long"
    assert payload["model"] == "LogGrowth"


def test_short_empty_family_is_a_degenerate_short(tmp_path):
    fam = tmp_path / "fam.csv"
    fam.write_text("left,right\n")
    code, payload = run_json(["short", "--family", fam])
    assert code == 0
    assert (payload["verdict"], payload["degenerate"], payload["radii"][-1]) == ("Short", True, 16.0)
    # an interval beyond every radius leaves the same zero sums, but the family is not empty
    fam.write_text("100,101\n")
    code, payload = run_json(["short", "--family", fam, *(a for r in (1, 2, 4, 8) for a in ("--radius", r))])
    assert code == 0
    assert (payload["verdict"], payload["degenerate"], payload["partial_sums"]) == ("Short", False, [0.0] * 4)


def test_short_ladder_whose_logs_collapse_is_inconclusive(tmp_path):
    # four adjacent doubles share one log: no growth fit is defined, and the
    # classifier says Other with slope 0, not a division by zero
    fam = tmp_path / "fam.csv"
    fam.write_text("0,1\n2,3\n")
    rungs = [1e50]
    for _ in range(3):
        rungs.insert(0, float(np.nextafter(rungs[0], 0.0)))
    assert len(set(np.log(rungs).tolist())) == 1
    code, out, err = run_cli(["short", "--family", fam, *(a for r in rungs for a in ("--radius", repr(r)))])
    assert code == 2 and err == ""
    payload = json.loads(out)
    assert payload["radii"] == rungs
    assert (payload["verdict"], payload["model"], payload["coefficient"]) == ("Inconclusive", "Other", 0.0)


def test_gap_measure_with_verification():
    code, payload = run_json(
        ["gap-measure", "--gap", 3.14159, "--n", 256,
         "--verify-interval", "0.4,2.7", "--grid-step", 1e-3]
    )
    assert code == 0
    assert payload["n_atoms"] == 513
    assert payload["total_variation"] == pytest.approx(1.0)
    assert payload["verify"]["max_abs"] <= 1e-6
    assert payload["verify"]["interval"] == [0.4, 2.7]


def test_gap_probe_signatures():
    code, payload = run_json(
        ["gap-probe", "--seq", "lattice:1", "--radius", 101, "--gap", PI]
    )
    assert code == 0
    assert payload["classification"] == "DecaysToZero"
    assert payload["sizes"] == [21, 51, 101, 201]
    code, payload = run_json(
        ["gap-probe", "--seq", "lattice:1", "--radius", 101, "--gap", 7.0]
    )
    assert code == 0
    assert payload["classification"] == "BoundedBelow"
    assert payload["min_eigenvalues"][-1] == pytest.approx(2 * PI, rel=1e-6)


def eigvalsh_failing_at(call):
    """np.linalg.eigvalsh, but its ``call``-th call fails to converge."""
    real, calls = np.linalg.eigvalsh, []

    def eigvalsh(matrix):
        calls.append(matrix.shape)
        if len(calls) == call:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(matrix)

    return eigvalsh


def test_an_eigensolver_breakdown_keeps_the_sizes_before_it(monkeypatch):
    argv = ["gap-probe", "--seq", "lattice:1", "--radius", 101, "--gap", PI]
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_failing_at(2))
    code, out, err = run_cli(argv)
    assert (code, err) == (2, "")
    payload = json.loads(out)
    assert payload["sizes"] == [21] and len(payload["min_eigenvalues"]) == 1
    assert payload["breakdown"] is True and payload["classification"] == "Inconclusive"
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_failing_at(1))
    assert run_cli(argv) == (1, "", "bm-lab: NumericalBreakdown: eigensolver failed on the smallest window\n")


def test_cauchy_round_trip_and_growth():
    code, payload = run_json(["cauchy", "--gap", 3.0, "--x", 0.75])
    assert code == 0
    assert payload["verdict"] == "VanishesCompatible"
    assert payload["half_gap"] == 1.5
    assert payload["plus"]["log_abs"][-1] <= math.log(1e-6)
    assert payload["minus"]["log_abs"][-1] <= math.log(1e-6)
    code, payload = run_json(["cauchy", "--gap", 3.0, "--x", 3.0])
    assert code == 0
    assert payload["verdict"] == "Not"


def test_ftype_defaults_qcos():
    code, payload = run_json(["ftype", "--function", "qcos"])
    assert code == 0
    assert payload["fitted_type"] <= 0.01
    assert payload["fitted_sqrt_coeff"] == pytest.approx(2 * math.sqrt(PI), rel=1e-3)
    assert len(payload["y_values"]) == 64


def test_ftype_cos_ladder():
    code, payload = run_json(
        ["ftype", "--function", "cos", "--y-min", 0.05, "--y-max", 50, "--y-count", 16]
    )
    assert code == 0
    assert payload["fitted_type"] == pytest.approx(1.0, abs=0.01)


# ------------------------------------------------------------- csv output


def test_density_csv_blocks(tmp_path):
    csv = tmp_path / "density.csv"
    run_cli(["density", "--seq", "lattice:1", "--radius", 100, "--csv-out", str(csv)])
    text = csv.read_text()
    assert text.startswith("# trials\na,verdict\n")
    assert "\n# partial_sums\na,radius,partial_sum\n" in text


def test_family_csv_round_trips_through_bm(tmp_path):
    csv = tmp_path / "family.csv"
    _, payload = run_json(
        ["bm", "--seq", "lattice:1", "--radius", 10, "--a", 1.5, "--csv-out", str(csv)]
    )
    lines = csv.read_text().splitlines()
    assert lines[0] == "left,right,flag"
    assert lines[1] == "-10.0,10.0,TouchesWindowEdge"


def test_measure_csv_columns(tmp_path):
    csv = tmp_path / "measure.csv"
    run_cli(["gap-measure", "--gap", PI, "--n", 64, "--csv-out", str(csv)])
    lines = csv.read_text().splitlines()
    assert lines[0] == "point,re,im"
    assert len(lines) == 1 + 129
    first = lines[1].split(",")
    assert float(first[0]) == -64.0
    float(first[1]), float(first[2])  # parse as decimals


def test_gap_probe_csv(tmp_path):
    csv = tmp_path / "probe.csv"
    run_cli(
        ["gap-probe", "--seq", "lattice:1", "--radius", 101, "--gap", 7.0,
         "--csv-out", str(csv)]
    )
    lines = csv.read_text().splitlines()
    assert lines[0] == "size,min_eigenvalue,floored,noise_floor"
    assert len(lines) == 5


# --------------------------------------------------------- argument domains


@pytest.mark.parametrize(
    "argv",
    [
        ["ftype", "--y-min", 1, "--y-max", 1.0000000000000002, "--y-count", 64],
        ["ftype", "--y-min", 0],
        ["short", "--family", "{fam}", "--radius", 0],
        ["density", "--seq", "lattice:1", "--radius=-10", "--radius", 20, "--radius", 40, "--radius", 80],
        ["cauchy", "--gap", 3, "--x", 1, "--y-max", "inf"],
        ["gap-measure", "--gap", 3, "--verify-interval", "0.4,2.6", "--grid-step", "inf"],
        ["bm", "--seq", "lattice:1", "--radius", 10, "--a", "nan"],
        ["cauchy", "--gap", 3, "--x", "nan"],
        ["cauchy", "--gap", 3, "--x", 1, "--y-min=-1e308", "--y-max=1e308"],
        ["density", "--seq", "lattice:1", "--radius", 1000, "--tol", 1],
        ["gap-measure", "--gap", 3, "--n", 64, "--smoothness", 100000],
        ["gap-measure", "--gap", 5.5, "--n", 64, "--smoothness", 100000],
        ["gap-probe", "--seq", "lattice:1", "--radius", 101, "--gap", "inf"],
        ["bm", "--seq", "lattice:1", "--radius", 10, "--a", 1, "--window=-inf,1"],
        ["gap-measure", "--gap", 3, "--grid-step", "inf"],
        ["gap-measure", "--gap", 3, "--n", 64, "--grid-step", 0],
        ["gap-probe", "--seq", "lattice:1", "--radius", 101, "--gap", 1e308],
    ],
)
def test_domain_errors_exit_sixtyfour(tmp_path, recwarn, argv):
    fam = tmp_path / "fam.csv"
    fam.write_text("left,right\n1,2\n")
    code, out, err = run_cli([str(a).format(fam=fam) for a in argv])
    assert code == 64
    assert out == ""
    assert err.count("error:") == 1 and "usage:" in err and "generator grammar" in err
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_short_refuses_a_negative_radius_naming_r_max(tmp_path):
    # the ladder always has 8 rungs, so the message names only r_max
    fam = tmp_path / "fam.csv"
    fam.write_text("left,right\n1,2\n")
    code, out, err = run_cli(["short", "--family", fam, "--radius", -1])
    assert code == 64 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        "bm-lab short: error: r_max must be positive and finite, got -1.0"
    ]


@pytest.mark.parametrize("radius", ["1e-310", "1e60"])
def test_short_refuses_a_radius_beyond_the_ladder_range_naming_it(tmp_path, radius):
    fam = tmp_path / "fam.csv"
    fam.write_text("left,right\n1,2\n")
    code, out, err = run_cli(["short", "--family", fam, "--radius", radius])
    assert code == 64 and out == ""
    [line] = [line for line in err.splitlines() if "error:" in line]
    assert line.startswith("bm-lab short: error: r_max must be in") and line.endswith(f"got {float(radius)!r}")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bm", "--seq", "lattice:1", "--radius", 20, "--a", 1.2, "--window", "-10,10"], 0),
        (["gap-measure", "--gap", 2, "--n", 64, "--verify-interval", "-1,2"], 0),
        (["bm", "--seq", "lattice:1", "--radius", 20, "--a", "-1e-3"], 0),
        (["cauchy", "--gap", 3, "--x", "-1e-1"], 0),
        (["bm", "--seq", "lattice:1", "--radius", 20, "--a", "-inf"], 64),
    ],
    ids="window verify-interval a x a-inf".split(),
)
def test_a_value_starting_with_minus_is_a_value(argv, code):
    # argparse alone reads "-10,10", "-1e-3" and "-inf" as flags: "expected one argument"
    got, out, err = run_cli(argv)
    assert got == code, err
    assert "expected one argument" not in err
    if code == 64:
        assert "bm-lab bm: error: the slope a must keep a*x finite on the sequence, got -inf" in err.splitlines()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bm", "--seq", "lattice:1", "--radius", 10, "--a", 1, "--window", ""], "window"),
        (["gap-measure", "--gap", 3, "--n", 32, "--verify-interval", ""], "verify-interval"),
    ],
    ids=["window", "verify-interval"],
)
def test_an_empty_pair_is_refused_not_taken_as_absent(argv, flag):
    code, out, err = run_cli(argv)
    assert code == 64 and out == ""
    assert f"error: --{flag} expects lo,hi" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bm", "--seq", "lattice:1", "--radius", 10, "--a", 1, "--window", "1,x"],
         "--window expects two numbers, got '1,x'"),
        (["bm", "--seq", "lattice:1", "--radius", 10, "--a", 1, "--window", "1,2,3"], "--window expects lo,hi"),
        (["ftype", "--y-min", -1], "a log ladder needs --y-min > 0 and --y-max > 0"),
        (["density", "--seq", "lattice:1", "--radius", 10, "--radius", 20],
         "an explicit radius ladder needs at least 4 distinct values"),
        (["gap-measure", "--gap", 3, "--smoothness", "soft"],
         "--smoothness must be 'inf' or a nonnegative integer, got 'soft'"),
        (["density", "--seq", "file:", "--radius", 10], "file generator needs a path: file:<path>"),
        (["density", "--seq", "lattice", "--radius", 10], "lattice generator needs a step: lattice:<step>"),
    ],
    ids="window-numbers window-pair y-ladder radius-ladder smoothness file-path lattice-step".split(),
)
def test_handler_usage_errors_print_the_subcommand_usage(argv, message):
    code, out, err = run_cli(argv)
    command = argv[0]
    assert code == 64 and out == ""
    assert err.startswith(f"usage: bm-lab {command} ")
    assert err == f"{subparsers()[command].format_usage()}bm-lab {command}: error: {message}\n{GENERATOR_GRAMMAR}\n"


def test_no_handler_writes_output_or_calls_the_parser():
    # a handler returns (verdict, payload, write_csv_to); run alone prints, writes and exits
    handlers = {p.get_default("handler")[0].__name__ for p in subparsers().values()}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    defs = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")]
    assert {fn.name for fn in defs} == handlers
    found = []
    for fn in defs:
        found += [f"{fn.name}({a.arg})" for a in fn.args.args if a.arg == "parser"]
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr in ("out", "csv_out"):
                found.append(f"{fn.name}: .{node.attr}")
            elif isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) in ("print", "open", "_emit")
                or getattr(node.func, "attr", None) == "error"
            ):
                found.append(f"{fn.name}: {ast.unparse(node.func)}()")
    assert found == []


def test_tolerance_above_half_inverse_delta_is_refused():
    # D_* <= 1/delta, so a_lower >= 2*tol cannot hold once tol > 0.5/delta
    code, out, err = run_cli(["density", "--seq", "lattice:1", "--radius", 1000, "--tol", 1])
    assert code == 64 and "0.5/delta" in err
    code, payload = run_json(["density", "--seq", "lattice:1", "--radius", 1000, "--tol", 0.5])
    assert code == 0
    assert payload["polya_class"] == "Polya"


def test_default_tolerance_on_a_sparse_sequence_is_refused():
    # delta = 20 puts the default --tol 0.05 above 0.5/delta = 0.025
    code, out, err = run_cli(["density", "--seq", "lattice:20", "--radius", 100000])
    assert code == 64 and out == "" and "0.5/delta" in err


def test_family_endpoints_at_the_bound_are_classified(tmp_path):
    # the default ladder ends at the largest endpoint, 1e50, which a family file may hold
    fam = tmp_path / "fam.csv"
    fam.write_text("left,right\n-1e50,-1e49\n1,2\n1e49,1e50\n")
    code, payload = run_json(["short", "--family", fam])
    assert code == 2
    assert payload["radii"][-1] == 1e50 and payload["verdict"] == "Inconclusive"


def test_default_ladder_of_a_data_file_beyond_the_bound_ends_at_it(tmp_path):
    # the ladder the user never gave stops at 1e50, the largest ladder value
    path = tmp_path / "far.txt"
    path.write_text("\n".join(map(str, [*range(-20, 21), -1e60, 1e60])) + "\n")
    for command in ("density", "classify"):
        code, payload = run_json([command, "--input", path])
        density = payload if command == "density" else payload["density"]
        assert code == 0 and density["radii"][-1] == 1e50
        assert payload["polya_class"] == "NotPolya"


def test_default_ladder_of_a_family_at_subnormal_endpoints_is_classified(tmp_path):
    # r_max/2^7 would be subnormal; the ladder the user never gave ends at 2^8 * 2.2e-308 instead
    fam = tmp_path / "fam.csv"
    fam.write_text("1e-310,2e-310\n")
    code, payload = run_json(["short", "--family", fam])
    assert code == 0 and payload["verdict"] == "Short"
    assert payload["radii"][0] == 2.0 * sys.float_info.min
    assert payload["radii"][-1] == 2.0**8 * sys.float_info.min


def test_density_of_a_file_within_the_subnormal_range_is_a_window_error(tmp_path):
    # the 41 points k*1e-307 reach 2e-306, where the first of 8 doubling
    # rungs would be subnormal: the derived ladder end is raised to
    # 2^8 * 2.2e-308, which the data window does not reach
    path = tmp_path / "tiny.txt"
    path.write_text("\n".join(repr(k * 1e-307) for k in range(-20, 21)) + "\n")
    for command in ("density", "classify"):
        code, out, err = run_cli([command, "--input", path])
        assert code == 1 and out == ""
        assert err == "bm-lab: WindowTooSmall: radius ladder exceeds the data window\n"
    # at k*2e-307 the reach, 4e-306, is inside the ladder's range and is the ladder's end
    path.write_text("\n".join(repr(k * 2e-307) for k in range(-20, 21)) + "\n")
    code, payload = run_json(["density", "--input", path])
    assert code == 2 and payload["radii"][-1] == 20 * 2e-307


def test_density_of_a_file_short_on_one_side_is_a_window_error(tmp_path):
    # the data window [-1e-310, 15] holds no rung window (-r, r) of the
    # ladder, whose end is raised to 2^8 * 2.2e-308
    path = tmp_path / "short_left.txt"
    path.write_text("-1e-310\n" + "\n".join(str(k) for k in range(1, 16)) + "\n")
    for command in ("density", "classify"):
        code, out, err = run_cli([command, "--input", path])
        assert code == 1 and out == ""
        assert err == "bm-lab: WindowTooSmall: radius ladder exceeds the data window\n"


def _csv_blocks(text):
    """A CSV file's blocks by title (None for an untitled one), each as (header, {column: cells})."""
    blocks = {}
    for chunk in text.split("\n\n"):
        lines = chunk.splitlines()
        title = lines.pop(0)[2:] if lines[0].startswith("# ") else None
        header, rows = lines[0], [line.split(",") for line in lines[1:]]
        blocks[title] = header, {name: [row[k] for row in rows] for k, name in enumerate(header.split(","))}
    return blocks


def _reprs(values):
    """JSON floats as the CSV writes them: repr, with "nan" and "+-inf" read back from their strings."""
    return [repr(float(v)) for v in values]


def _csv_mirrors_of_the_json(p):
    """The CSV blocks each subcommand's JSON report ``p`` says it writes: header and cells."""
    command = p["params"]["command"]
    if command in ("density", "classify"):
        density = p if command == "density" else p["density"]
        trials = {"a": _reprs(t["a"] for t in density["trials"]), "verdict": [t["verdict"] for t in density["trials"]]}
        blocks = {"trials": ("a,verdict", trials)}
        if command == "density":
            reports = interior_density(parse_generator(p["params"]["seq"], p["params"]["radius"])).trials
            blocks["partial_sums"] = "a,radius,partial_sum", {
                "a": [a for a in trials["a"] for _ in density["radii"]],
                "radius": _reprs(density["radii"]) * len(trials["a"]),
                "partial_sum": [repr(s) for t in reports for s in t.shortness.partial_sums],
            }
        else:
            intervals = p["witness"]["intervals"]
            blocks["witness"] = "left,right,ratio", {
                "left": _reprs(i["left"] for i in intervals),
                "right": _reprs(i["right"] for i in intervals),
                "ratio": _reprs(p["witness"]["ratios"]),
            }
        return blocks
    if command == "bm":
        intervals = p["intervals"]
        return {None: ("left,right,flag", {
            "left": _reprs(i["left"] for i in intervals),
            "right": _reprs(i["right"] for i in intervals),
            "flag": [i["flag"] for i in intervals],
        })}
    if command == "short":
        return {None: ("radius,partial_sum", {"radius": _reprs(p["radii"]), "partial_sum": _reprs(p["partial_sums"])})}
    if command == "gap-probe":
        return {None: ("size,min_eigenvalue,floored,noise_floor", {
            "size": [str(n) for n in p["sizes"]],
            "min_eigenvalue": _reprs(p["min_eigenvalues"]),
            "floored": _reprs(p["floored_eigenvalues"]),
            "noise_floor": _reprs(p["noise_floors"]),
        })}
    if command == "gap-measure":
        # the atoms are not in the JSON: they are the design's, bit for bit
        mu = lattice_gap_measure(p["params"]["gap"], p["params"]["n"], "inf")
        return {None: ("point,re,im", {
            name: [repr(x) for x in col.tolist()]
            for name, col in (("point", mu.points), ("re", mu.weights.real), ("im", mu.weights.imag))
        })}
    if command == "cauchy":
        return {None: ("y,log_abs_plus,log_abs_minus", {
            "y": _reprs(p["y_values"]),
            "log_abs_plus": _reprs(p["plus"]["log_abs"]),
            "log_abs_minus": _reprs(p["minus"]["log_abs"]),
        })}
    assert command == "ftype"
    return {None: ("y,log_modulus", {"y": _reprs(p["y_values"]), "log_modulus": _reprs(p["log_moduli"])})}


def test_every_csv_cell_is_a_label_or_a_float(tmp_path):
    # each block's header is pinned, and each cell is the repr of the JSON value it mirrors
    fam = tmp_path / "fam.csv"
    fam.write_text("left,right\n" + "\n".join(f"{2**k},{2**k + 1}" for k in range(2, 12)) + "\n")
    csv = tmp_path / "out.csv"
    for argv in (
        ["density", "--seq", "lattice:1", "--radius", 100],
        ["classify", "--seq", "squares", "--radius", 10000],
        ["bm", "--seq", "lattice:1", "--radius", 10, "--a", 1.5],
        ["short", "--family", fam],
        ["gap-probe", "--seq", "lattice:1", "--radius", 101, "--gap", 7.0],
        ["gap-measure", "--gap", 3, "--n", 32],
        ["cauchy", "--gap", 3.0, "--x", 0.75],
        ["ftype", "--y-count", 8],
    ):
        code, out, err = run_cli(argv + ["--csv-out", csv])
        assert code in (0, 2), err
        blocks = _csv_blocks(csv.read_text())
        want = _csv_mirrors_of_the_json(json.loads(out))
        assert list(blocks) == list(want), argv
        for title, (header, columns) in want.items():
            assert blocks[title][0] == header, argv
            assert blocks[title][1] == columns, (argv, title)
            assert all(columns.values()), (argv, title)  # no empty block
        if argv[0] == "gap-measure":
            mu = lattice_gap_measure(3.0, 32)
            for name, col in (("point", mu.points), ("re", mu.weights.real), ("im", mu.weights.imag)):
                got = np.array(blocks[None][1][name], dtype=float)
                assert got.view(np.int64).tolist() == col.view(np.int64).tolist()


VALID_PROBE = ["gap-probe", "--seq", "lattice:1", "--radius", "101", "--gap", "7.0"]


@pytest.fixture(scope="module")
def probe_in_fresh_process():
    src = str(Path(bmlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    alone = subprocess.run([sys.executable, "-m", "bmlab.cli", *VALID_PROBE], capture_output=True, text=True, env=env)
    return alone.returncode, alone.stdout, alone.stderr


@pytest.mark.parametrize(
    "bad",
    [
        ["gap-probe", "--seq", "lattice:1", "--radius", 50, "--radius", 60, "--gap", "inf", "--n", 5],
        ["gap-probe", "--seq", "lattice:1", "--radius", 101, "--gap", 7.0, "--no-such-flag"],
        ["gap-probe", "--seq", "nosuch", "--radius", 101, "--gap", 7.0, "--n", 31],
        ["density", "--seq", "lattice:1", "--radius", 100, "--tol", 1],
    ],
)
def test_an_erroring_run_leaves_nothing_for_the_next(probe_in_fresh_process, bad):
    # the parser is built once per process; a valid call after an error must
    # give the bytes and exit code of the same call in a fresh process
    assert run_cli(bad)[0] in (1, 64)
    assert run_cli(VALID_PROBE) == probe_in_fresh_process


@pytest.mark.parametrize("flag", ["--input", "--seq", "--family"])
def test_data_files_beyond_the_line_cap_exit_one(tmp_path, monkeypatch, flag):
    monkeypatch.setattr(bmlab.sequences, "POINTS_CAP", 64)
    path = tmp_path / "data.txt"
    path.write_text("".join(f"{k},{k + 0.5}\n" if flag == "--family" else f"{k}\n" for k in range(65)))
    if flag == "--family":
        argv = ["short", "--family", path]
    else:
        argv = ["density", flag, path if flag == "--input" else f"file:{path}", "--radius", 100]
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "SizeGuard" in err
    path.write_text("".join(f"{k},{k + 0.5}\n" if flag == "--family" else f"{k}\n" for k in range(64)))
    code, _, err = run_cli(argv)
    assert "SizeGuard" not in err


@pytest.mark.parametrize("flag", ["--input", "--seq", "--family"])
def test_data_files_that_are_not_utf8_exit_sixtyfive(tmp_path, flag):
    path = tmp_path / "data.txt"
    path.write_bytes(b"1.0,2.0\n\xff3.0,4.0\n" if flag == "--family" else b"1.0\n\xff2.0\n")
    if flag == "--family":
        argv = ["short", "--family", path]
    else:
        argv = ["density", flag, path if flag == "--input" else f"file:{path}", "--radius", 100]
    code, out, err = run_cli(argv)
    assert code == 65
    assert out == ""
    assert err.count("\n") == 1 and f"{path}:2: not UTF-8 text" in err
    assert "Traceback" not in err


def test_interval_families_stay_columns_through_the_cli(tmp_path):
    points = tmp_path / "points.txt"
    points.write_text("".join(f"{k + 0.125 * (k % 2)!r}\n" for k in range(-300, 301)))
    fam = tmp_path / "fam.csv"
    for argv in (
        ["classify", "--seq", "squares", "--radius", 10000, "--csv-out", tmp_path / "c.csv"],
        ["bm", "--input", points, "--radius", 300, "--a", 0.9, "--csv-out", fam],
        ["short", "--family", fam],
    ):
        code, out, err = run_cli(argv)
        assert code in (0, 2), err
    assert json.loads(out)["count"] == 300  # the bm family the short call read back
