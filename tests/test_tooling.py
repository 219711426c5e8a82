"""Checks on the repository's own tooling that the package tests would
otherwise not exercise."""

import ast
import dataclasses
import importlib
import importlib.util
import itertools
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


def test_every_loss_stage_resolves_by_name():
    """A later benchmark traces each loss stage as it traces the spans
    above, by patching a module attribute: every function a loss plan can
    pick must be a module-level function of facegen.learning that its name
    resolves to, picked by that name when the plan is built (no lambda,
    nested function or partial in LossPlan.build), and total_loss stays a
    function that checks its arguments and runs the stages."""
    from conftest import tiny_problem
    from facegen import learning
    tree = ast.parse((ROOT / "src" / "facegen" / "learning.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    plan_class = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "LossPlan")
    build = next(node for node in plan_class.body
                 if isinstance(node, ast.FunctionDef) and node.name == "build")
    inner = [node for node in ast.walk(build) if node is not build and isinstance(
        node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef))]
    assert inner == []
    named = {node.id for node in ast.walk(build) if isinstance(node, ast.Name)}
    assert "partial" not in named
    named &= functions.keys()

    picked = set()
    rng = np.random.default_rng(0)
    for rest_frames in (False, True):
        # with rest frames a pose frozen at zero is not at rest; the second
        # model's zero expression basis picks the zero-basis beta stage
        base, scans, theta, _ = tiny_problem(rng, n_scans=4)
        if rest_frames:
            frames = dataclasses.replace(base.skeleton, rest_rotations=np.tile(np.eye(3), (4, 1, 1)))
            base = dataclasses.replace(
                base, skeleton=frames, expression_basis=np.zeros_like(base.expression_basis))
        ctx = learning.LossContext.build(scans, base)
        for thetas in (theta, learning.ThetaBlocks.zeros(4, 2, base.n_expression)):
            for r in range(len(learning.BLOCKS) + 1):
                for frozen in itertools.combinations(sorted(learning.BLOCKS), r):
                    plan = learning.LossPlan.build(ctx, frozenset(frozen), thetas)
                    picked |= {*plan.stages, plan.place, plan.back} - {None}
    assert all(getattr(learning, f.__name__) is f for f in picked)
    assert {f.__name__ for f in picked} == named - {"_scan_chunks"}

    # the plan is the one statement of the scans, base model and frozen
    # blocks a loss runs on
    total_loss = functions["total_loss"]
    assert total_loss.end_lineno - total_loss.lineno + 1 <= 40
    assert [arg.arg for arg in total_loss.args.args] == ["plan", "thetas", "phi", "weights"]
    assert not (total_loss.args.vararg or total_loss.args.kwarg or total_loss.args.kwonlyargs)


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


def test_only_mesh_reaches_scipys_private_sparse_kernel():
    """mesh.BlockOperator writes its products through scipy's private
    csr_matvecs kernel; with one module naming `scipy.sparse._sparsetools`,
    one file breaks if scipy moves it."""
    naming = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
                 *(ROOT / "tests").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, (ast.Import, ast.ImportFrom))
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if any("_sparsetools" in name for name in names):
                naming.add(path.relative_to(ROOT).as_posix())
    assert naming == {"src/facegen/mesh.py"}


def _package_nodes():
    """(module, enclosing def's qualified name, node) of every AST node in
    the package's modules."""
    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            yield module, scope, child
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield from visit(child, module, inner)

    for path in sorted((ROOT / "src" / "facegen").glob("*.py")):
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")


def _calls_by_function(attrs):
    """{(module, enclosing def's qualified name)} of every call `x.<attr>(...)`
    with attr in `attrs` ("json.dumps" names the call on the name json)
    in the package's modules."""
    found = set()
    for module, scope, node in _package_nodes():
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            name = (f"{owner.id}.{node.func.attr}" if isinstance(owner, ast.Name)
                    else node.func.attr)
            if node.func.attr in attrs or name in attrs:
                found.add((module, scope))
    return found


def test_scipy_linalg_and_ndimage_are_not_loaded_at_start_up():
    """No module imports scipy.linalg, and scipy.ndimage is imported only
    inside pore_map: a process that makes no pore map loads neither, which
    saves start-up time and memory in every `sample` run."""
    found = set()
    for module, scope, node in _package_nodes():
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found |= {(heavy, module, scope) for heavy in ("scipy.linalg", "scipy.ndimage")
                  for name in names if f"{name}.".startswith(f"{heavy}.")}
    assert found == {("scipy.ndimage", "poremap", "pore_map")}


def test_one_json_encoder_and_one_file_set_writer():
    """Every JSON file goes through container.encode_json and every file but
    a lone OBJ or HDR through container.write_files, so output format and
    write order are decided in one module."""
    assert _calls_by_function({"json.dumps"}) == {
        ("container", "encode_json"), ("cli", "_JsonLogFormatter.format")}
    assert _calls_by_function({"write_text", "write_bytes"}) == {
        ("container", "write_files"), ("objio", "save_obj"), ("hdr", "write_hdr")}


def test_no_ufunc_at_scatter():
    """Scatter-adds go through np.bincount, which adds each bin's values in
    index order as np.add.at does, many times faster: no module calls a
    ufunc's `.at`."""
    assert _calls_by_function({"at"}) == set()


def test_every_thread_pool_is_opened_in_a_with_statement():
    """A pool opened in a `with` statement joins its threads when the block
    ends, also on an error: no worker thread outlives the call that
    started it.  parallel.run_workers is the one place that opens a pool
    and hands the caller's numpy error state to its threads, so every
    fan-out gets both."""
    pools, in_with = [], set()
    for module, scope, node in _package_nodes():
        if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "ThreadPoolExecutor"
                or getattr(node.func, "attr", None) == "ThreadPoolExecutor"):
            pools.append((module, scope, node))
        elif isinstance(node, ast.withitem):
            in_with |= {id(n) for n in ast.walk(node.context_expr)}
    assert {(module, scope) for module, scope, _ in pools} == {("parallel", "run_workers")}
    assert _calls_by_function({"geterr"}) == {("parallel", "run_workers")}
    assert [(module, scope) for module, scope, node in pools if id(node) not in in_with] == []


def _public_api() -> set[str]:
    """The backticked names of the README's "Public API" list."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Public API", 1)[1].split("Removed, with what replaces them", 1)[0]
    return set(re.findall(r"`([A-Za-z_][\w.]*)`", section))


def test_every_function_is_used_or_public_api():
    """Each top-level function and each public method of a public class in
    the package is referenced by the package outside its own definition or
    named in the README's public-API list: code that only tests call is
    either deleted, moved into the tests or declared public."""
    defined, used = [], set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            name = (child.id if isinstance(child, ast.Name) else
                    child.attr if isinstance(child, ast.Attribute) else
                    child.name.rpartition(".")[2] if isinstance(child, ast.alias) else None)
            if name is not None:
                used.add((name, module, scope))
            visit(child, module, inner)

    for path in sorted((ROOT / "src" / "facegen").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((path.stem, node.name, node.name))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defined += [(path.stem, f"{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
        visit(tree, path.stem, "")

    public = _public_api()
    assert {"pca.load_pca", "SceneDescription.to_json"} <= public   # the list parses
    unused = [f"{module}.{qualname}" for module, qualname, name in defined
              if f"{module}.{qualname}" not in public and qualname not in public
              and not any(n == name and not (m == module and (s == qualname or
                                                             s.startswith(qualname + ".")))
                          for n, m, s in used)]
    assert unused == []


def _defaulted_parameters(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """(name, position in a call or None for keyword-only) of each
    parameter of `fn` with a default; a `bound` method's self is not
    passed."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def test_every_defaulted_parameter_is_set_by_some_call():
    """Each defaulted parameter of a top-level function or of a public
    class's method in the package is set, by keyword or by position, by at
    least one call in the package, the benchmark or the tests: a parameter
    that every caller leaves at its default is a constant.  A call by the
    function's name with *args or **kwargs sets them all."""
    params = []
    for path in sorted((ROOT / "src" / "facegen").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                params += [(f"{path.stem}.{node.name}", node.name, p)
                           for p in _defaulted_parameters(node, False)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        bound = not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                        for d in item.decorator_list)
                        called = node.name if item.name == "__init__" else item.name
                        params += [(f"{path.stem}.{node.name}.{item.name}", called, p)
                                   for p in _defaulted_parameters(item, bound)]

    set_by = {}     # called name -> parameter names and positions some call sets
    sources = [*(ROOT / "src" / "facegen").glob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
               *(ROOT / "tests").rglob("*.py")]
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                got = set_by.setdefault(name, set())
                got |= {k.arg for k in node.keywords} | set(range(len(node.args)))
                if (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords)):
                    got.add("*")

    assert ("model.evaluate", "evaluate", ("check_limits", 2)) in params   # the scan sees them
    unset = [f"{qualname}({name})" for qualname, called, (name, position) in params
             if not set_by.get(called, set()) & {name, position, "*"}]
    assert unset == []
