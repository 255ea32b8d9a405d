"""Self-tests of the benchmark.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer, boundary_objects, package_modules  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def tg():
    return run.load_package()


def traced_pass(tg, workload, directory):
    plan = run.write_plan(workload, workloads.program_seed(SEED), directory / "configs")
    tracer = Tracer(tg)
    with tracer:
        result = run.run_pass(tg.cli, plan, directory / "work", "traced")
    return run.layer_metrics(tracer, result), result


EXPECTED = {
    "sandwich-2d": {"sampler.site_updates": workloads.UPDATES_PER_PASS["sandwich-2d"],
                    "streams.derive_key_calls": 3},
    "ident4-wide": {"sampler.site_updates": workloads.UPDATES_PER_PASS["ident4-wide"],
                    "truncnorm.quantiles": workloads.UPDATES_PER_PASS["ident4-wide"]},
    "cftp-oracle": {"streams.derive_key_calls": 3 * workloads.CFTP_REPLICAS,
                    "sampler.site_updates": 0},
    "exact-2d": {"sampler.site_updates": 0, "truncnorm.quantiles": 0},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_and_digests_repeat(tg, workload, tmp_path):
    first_metrics, first = traced_pass(tg, workload, tmp_path / "a")
    second_metrics, second = traced_pass(tg, workload, tmp_path / "b")
    assert first.failed == second.failed == 0, first.problems + second.problems
    assert first.digests and first.digests == second.digests
    for name in run.COUNTS:
        assert first_metrics[name] == second_metrics[name], name
    for name, value in EXPECTED[workload].items():
        assert first_metrics[name] == value, name
    ratio = first_metrics.get("truncnorm.quantiles_per_update")
    if workload == "sandwich-2d":
        assert round(ratio, 2) == 1.50
    elif workload == "ident4-wide":
        assert ratio == 1.0
    else:                          # no site updates, so no ratio to report
        assert ratio is None


def test_tracer_restores_every_binding(tg):
    import truncgibbs.sampler as sampler
    before = {name: getattr(sampler, name) for name in vars(sampler)}
    with Tracer(tg):
        assert sampler.run_sandwich is not before["run_sandwich"]
    assert {name: getattr(sampler, name) for name in vars(sampler)} == before


def test_boundary_follows_bindings_not_names(tg):
    import truncgibbs.sampler as sampler
    import truncgibbs.streams as streams
    import truncgibbs.truncnorm as truncnorm
    boundary = {id(obj) for obj in boundary_objects(tg)}
    # the private quantile functions sampler binds from truncnorm
    private = [obj for name, obj in vars(sampler).items() if name.startswith("_")
               and inspect.isfunction(obj) and obj.__module__ == truncnorm.__name__]
    assert private and all(id(obj) in boundary for obj in private)
    # streams functions that no other module binds (no module uses streams.<name>)
    others = [mod for mod in package_modules(tg) if mod is not streams]
    unbound = [obj for obj in vars(streams).values()
               if inspect.isfunction(obj) and obj.__module__ == streams.__name__
               and not any(obj is value for mod in others for value in vars(mod).values())]
    assert unbound and not any(id(obj) in boundary for obj in unbound)


def test_result_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.LAYER_UNITS[name] for name in run.REPORTED_LAYER_METRICS}


def test_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, a run must fail and print no result."""
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sandwich-2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode != 0
    assert "correct" not in done.stdout
