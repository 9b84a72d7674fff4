"""The bench tracer still finds every layer it times.

``bench/spans.py`` wraps named functions of the program; a function that
is renamed or moved leaves its per-layer metric null.  The tracer is
imported by path, as the bench harness runs it, and left unedited.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from bmlab.cli import run

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_gap_probe_records_a_gram_span():
    spans = _spans_module()
    tracer = spans.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        code = run(["gap-probe", "--seq", "lattice:1", "--radius", "101", "--gap", "7.0"])
    assert code == 0
    assert tracer.unwrapped == []
    names = [s.name for s in tracer.spans]
    assert "gap.gram" in names and "gap.probe" in names
    metrics = spans.layer_metrics(tracer.spans, tracer.missing)
    assert metrics["gap.gram_s"] > 0 and metrics["gap.probe_self_s"] > 0


def test_density_records_every_layer_span(tmp_path, monkeypatch):
    # the components a bm_family span records are the lengths of the families
    # it returned, also where a monotone gamma skips the sweep
    import bmlab.envelope

    lengths = []
    bm_family = bmlab.envelope.bm_family

    def counted(*args, **kwargs):
        family = bm_family(*args, **kwargs)
        lengths.append(len(family))
        return family

    monkeypatch.setattr(bmlab.envelope, "bm_family", counted)
    points = tmp_path / "points.txt"
    points.write_text("".join(f"{k + 0.125 * (k % 2)!r}\n" for k in range(-300, 301)))
    spans = _spans_module()
    for argv in (
        ["density", "--seq", "lattice:1", "--radius", "1000"],
        ["density", "--input", str(points), "--radius", "300"],
    ):
        tracer = spans.Tracer()
        lengths.clear()
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
        assert code == 0
        assert tracer.unwrapped == []
        names = {s.name for s in tracer.spans}
        assert {"sequences.load", "sequences.gamma_line", "envelope.bm_family"} <= names
        components = [s.attrs["components"] for s in tracer.spans if s.name == "envelope.bm_family"]
        assert components == lengths and len(lengths) > 0
        metrics = spans.layer_metrics(tracer.spans, tracer.missing)
        assert all(value is not None for value in metrics.values())


def test_witness_and_family_files_record_their_spans(tmp_path):
    points = tmp_path / "points.txt"
    points.write_text("".join(f"{k + 0.125 * (k % 2)!r}\n" for k in range(-300, 301)))
    fam = tmp_path / "fam.csv"
    spans = _spans_module()
    tracer = spans.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["classify", "--seq", "squares", "--radius", "10000"],
            ["bm", "--input", str(points), "--radius", "300", "--a", "0.9", "--csv-out", str(fam)],
            ["short", "--family", str(fam)],
        ):
            assert run(argv) in (0, 2)
    assert tracer.unwrapped == []
    names = [s.name for s in tracer.spans]
    assert "density.witness" in names
    assert names.count("envelope.csv") == 2  # the family written, then read back
    metrics = spans.layer_metrics(tracer.spans, tracer.missing)
    assert all(value is not None for value in metrics.values())
    assert metrics["density.witness_s"] > 0 and metrics["envelope.csv_s"] > 0
