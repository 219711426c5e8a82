"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import time
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402
from tracing import SPANS, Tracer  # noqa: E402

TINY = harness.Sizes(
    setup_repeats=1, warmup_rounds=1, scene_check_count=2,
    desk_scans=6, desk_m=2, desk_iterations=20,
    large_lat=6, large_lon=8, large_scans=6, large_m=3, large_iterations=3,
    groom_strands=120, groom_clusters=6, groom_uv_res=16, groom_vol_res=16,
    gmm_samples=60, gmm_dim=3, gmm_components=2,
    hdr_files=2, hdr_height=16, hdr_width=32, hdr_rotations=1, pca_components=2,
    pore_size=64)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two runs of every workload in both modes, all with seed 5."""
    out = {}
    for name in harness.WORKLOADS:
        for trace in (False, True):
            out[name, trace] = [
                harness.run(name, 5, 0.0, trace,
                            tmp_path_factory.mktemp(f"{name}-{int(trace)}-{k}"), TINY)
                for k in range(2)]
    return out


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == harness.per_layer_units()
    assert len(BENCHMARK["per_layer"]) <= 128


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_emits_every_metric(runs, name, trace):
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    for result in runs[name, trace]:
        assert result.correct and result.failed == 0 and result.attempted >= 1
        assert {k: u for k, (_, u) in result.metrics.items()} \
            == {m["name"]: m["unit"] for m in wanted}
        if not trace:
            assert all(v > 0 for v, _ in result.metrics.values())
        last = json.loads(result.to_json())
        assert set(last) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_no_span_has_negative_self_time(runs, name):
    for result in runs[name, True]:
        for metric, (value, _) in result.metrics.items():
            if ".self_" in metric:
                assert value >= 0.0, metric


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_counts_repeat_exactly_for_a_seed(runs, name):
    first, second = runs[name, True]
    for count in harness.COUNTS:
        assert first.metrics[count] == second.metrics[count], count
    assert any(first.metrics[c][0] > 0 for c in harness.COUNTS)


def test_traced_run_restores_wrapped_functions(tmp_path):
    import importlib
    before = [getattr(importlib.import_module(m), a) for m, a, _ in SPANS]
    traced = harness.run("fit-desk", 2, 0.0, True, tmp_path / "traced", TINY)
    after = [getattr(importlib.import_module(m), a) for m, a, _ in SPANS]
    assert all(x is y for x, y in zip(before, after))
    # operations alternate untraced, traced: only every second one is wrapped
    assert traced.metrics["learning.fit.calls"][0] == traced.attempted // 2 >= 1
    untraced = harness.run("fit-desk", 2, 0.0, False, tmp_path / "untraced", TINY)
    assert set(untraced.metrics) == set(harness.END_TO_END)


def test_tracer_self_time_excludes_children_and_restores_on_error():
    mod = types.ModuleType("perfbench_fake_layer")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()
        mod.inner()

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    spans = [(mod.__name__, "inner", "fake.inner"), (mod.__name__, "outer", "fake.outer")]
    tracer = Tracer()
    try:
        with tracer.installed(spans):
            mod.outer()
        with pytest.raises(RuntimeError), tracer.installed(spans):
            raise RuntimeError("body failed")
    finally:
        del sys.modules[mod.__name__]
    assert mod.inner is inner and mod.outer is outer
    assert len(tracer.self_ms["fake.inner"]) == 2
    (outer_self,) = tracer.self_ms["fake.outer"]
    assert 10.0 <= outer_self < 50.0     # the inner sleeps alone take 40 ms
    total = outer_self + sum(tracer.self_ms["fake.inner"])
    assert total == pytest.approx(1e3 * tracer.top_level_s)
