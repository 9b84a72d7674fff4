import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bmlab
from bmlab import _json
from bmlab.cli import GENERATOR_GRAMMAR, parse_generator, run

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
SHORTNESS_KEYS = """boundary_dominated coefficient degenerate edge_mass model partial_sums
    r_squared radii verdict""".split()
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
             "noise_floors", *SEQ_PARAMS, "params.gap", "params.sizes", "sizes", "step_ratios", "vector_l1"],
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
    assert lines[0] == "size,min_eigenvalue,floored,noise_floor,vector_l1"
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
        "bm-lab: error: r_max must be positive and finite, got -1.0"
    ]


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


def test_every_csv_cell_is_a_label_or_a_float(tmp_path):
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
        code, _, err = run_cli(argv + ["--csv-out", csv])
        assert code in (0, 2), err
        rows = [line for line in csv.read_text().splitlines() if line and not line.startswith("#")]
        assert len(rows) > 1, argv
        for cell in ",".join(rows).split(","):
            if not cell.isidentifier():  # a label or a header name
                float(cell)


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
    path.write_bytes(b"1.0\n\xff2.0\n")
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
