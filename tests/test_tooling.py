"""Checks on the repository's own tooling that the package tests would
otherwise not exercise."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_third_party_import_is_a_declared_dependency():
    """A module of the package that imports a third-party package the
    project does not declare works here and fails on a clean install."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                    for req in tomllib.load(f)["project"]["dependencies"]}
    imported = set()
    for path in (ROOT / "src" / "facegen").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"facegen"}
    assert "numpy" in third_party        # the scan sees the imports
    assert sorted(third_party - declared) == []


def test_every_traced_span_resolves():
    """The per-layer tracer patches module attributes by name; a refactor
    that drops or renames one must fail here, not in a benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.SPANS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_benchmark_groom_builds_ragged(monkeypatch):
    """The benchmark harness builds grooms through the public Groom
    constructor; an API break must fail here, not in a benchmark run."""
    monkeypatch.syspath_prepend(str(TRACING.parent))
    harness = importlib.import_module("harness")
    g = harness.clustered_groom(np.random.default_rng(0), 40, 4, 8)
    assert g.n_strands == 40
    assert np.array_equal(np.concatenate(g.strands), g.points)


def test_benchmark_fit_desk_runs(monkeypatch, tmp_path):
    """The benchmark harness drives the learner through its public API; an
    API break must fail here, not in a benchmark run."""
    monkeypatch.syspath_prepend(str(TRACING.parent))
    harness = importlib.import_module("harness")
    # 8 iterations: the fewest at which this seed's loss has dropped, which
    # the workload's own check requires
    workload = harness.FitDesk(0, harness.Sizes(desk_scans=5, desk_iterations=8), tmp_path)
    assert len(workload.setup()) == 1
    out = workload.op(0)
    assert workload.check(0, out)
    assert workload.units(out, 0.0)[0] == 8


def test_benchmark_fit_large_runs(monkeypatch, tmp_path):
    """The fit-large workload runs its loss on chunk worker threads; a span
    the tracer wraps and a worker thread calls must neither crash nor get
    lost, and the fit must stay the one-chunk fit bit for bit."""
    monkeypatch.syspath_prepend(str(TRACING.parent))
    harness = importlib.import_module("harness")
    learning = importlib.import_module("facegen.learning")
    sizes = harness.Sizes(large_lat=8, large_lon=10, large_scans=8, large_m=4,
                          large_iterations=5)
    workload = harness.FitLarge(0, sizes, tmp_path)
    assert len(workload.setup()) == 1          # one chunk: the reference fit
    V = workload.scans.n_vertices
    monkeypatch.setattr(learning, "_CHUNK_BYTES", 2 * 24 * V)
    monkeypatch.setattr(learning, "_cpu_count", lambda: 2)
    n_chunks = len(learning._scan_chunks(8, V, 2))
    assert n_chunks == 4

    out = workload.op(0)
    assert workload.check(0, out)
    tracer = harness.Tracer()
    with tracer.installed():
        out = workload.op(1)
    assert workload.check(1, out)
    # one loss per iteration plus fit's final one
    assert len(tracer.self_ms["learning.total_loss"]) == 6
    assert len(tracer.self_ms["model.lbs_apply"]) == 6 * n_chunks


def _calls_by_function(attrs):
    """{(module, enclosing def's qualified name)} of every call `x.<attr>(...)`
    with attr in `attrs` ("json.dumps" names the call on the name json)
    in the package's modules."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                owner = child.func.value
                name = (f"{owner.id}.{child.func.attr}" if isinstance(owner, ast.Name)
                        else child.func.attr)
                if child.func.attr in attrs or name in attrs:
                    found.add((module, scope))
            visit(child, module, inner)

    for path in sorted((ROOT / "src" / "facegen").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def test_one_json_encoder_and_one_file_set_writer():
    """Every JSON file goes through container.encode_json and every file but
    a lone OBJ or HDR through container.write_files, so output format and
    write order are decided in one module."""
    assert _calls_by_function({"json.dumps"}) == {
        ("container", "encode_json"), ("cli", "_JsonLogFormatter.format")}
    assert _calls_by_function({"write_text", "write_bytes"}) == {
        ("container", "write_files"), ("objio", "save_obj"), ("hdr", "write_hdr")}
