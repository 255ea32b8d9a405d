"""Benchmark for truncgibbs: four CLI workloads, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload sandwich-2d --seed 7 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 10 --trace 0

One run drives one workload through ``truncgibbs.cli.main`` in this
process: a single closed-loop client, one thread.  One pass of the
workload is run as a warm-up and discarded; then passes are repeated until
``--seconds`` have passed.  With ``--trace 0`` each timed pass is followed
by a fixed reference task and a set-up probe in a fresh interpreter (at
least three passes and five probes); ``wall_s`` and ``setup_s`` are given
in seconds at a fixed speed of the reference task, because the machine's
own speed drifts.  Every call's output is checked.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones that every workload exercises.  The last line of
standard output is one JSON object; details (environment, per-pass times,
payload digests, every metric the workload exercises, spans) go to
``.bench_out/``.  ``--workload all`` runs each workload in its own process
and prints a table instead.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
INHERITED_THREADS = {var: os.environ.get(var) for var in THREAD_VARS}
# BLAS thread start-up costs about 0.3 s on the first factorization; pin
# before numpy is imported, for this process and the set-up probes alike.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_TIMED_PASSES = 3
REFERENCE_LOOP = 1_000_000
REFERENCE_ARRAY = 1_000_000
# Times are reported in seconds at the speed where the reference task takes
# this long, about its median on the machine the bounds were set on.
REFERENCE_NOMINAL_S = 0.25
PROBE_REPEATS = 5

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402


def load_package():
    """Import truncgibbs from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "truncgibbs" / "__init__.py").is_file():
        sys.exit(f"no truncgibbs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import truncgibbs
    import truncgibbs.cli
    if Path(truncgibbs.__file__).resolve().parent.parent != SRC:
        sys.exit(f"imported truncgibbs from {truncgibbs.__file__}, not from {SRC}")
    return truncgibbs


def git_rev() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env_inherited": INHERITED_THREADS,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "git_rev": git_rev(),
        "workload": args.workload, "seed": args.seed,
        "program_seed": workloads.program_seed(args.seed),
        "seconds": args.seconds, "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Pass:
    """One run of every call of a workload, with its times and checks."""

    def __init__(self, kind):
        self.kind = kind
        self.wall_s = 0.0
        self.call_s = []
        self.problems = []
        self.digests = {}
        self.artifact_bytes = 0
        self.failed = 0

    def record(self) -> dict:
        return {"kind": self.kind, "wall_s": self.wall_s, "call_s": self.call_s,
                "problems": self.problems, "artifact_bytes": self.artifact_bytes}


def write_plan(workload, seed, directory) -> list:
    """Write the workload's configs; returns (subcommand, path, config) triples."""
    directory.mkdir(parents=True, exist_ok=True)
    plan = []
    for k, (sub, cfg) in enumerate(workloads.calls(workload, seed)):
        path = directory / f"{k}-{sub}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n")
        plan.append((sub, path, cfg))
    return plan


def run_pass(cli, plan, work, kind) -> Pass:
    result = Pass(kind)
    for k, (sub, path, cfg) in enumerate(plan):
        out = work / f"{k}-{sub}"
        shutil.rmtree(out, ignore_errors=True)
        argv = [sub, "--config", str(path), "--out", str(out)]
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:                        # a raise is a failed operation
            code = traceback.format_exc()
        elapsed = perf_counter() - start
        result.wall_s += elapsed
        result.call_s.append(elapsed)
        problems = workloads.check(sub, cfg, code, out) if isinstance(code, int) else [code]
        if problems:
            result.failed += 1
            result.problems.append({"call": f"{k}-{sub}", "problems": problems})
        if out.is_dir():
            for item in sorted(out.iterdir()):
                data = item.read_bytes()
                result.artifact_bytes += len(data)
                result.digests[f"{k}-{sub}/{item.name}"] = hashlib.sha256(data).hexdigest()
            shutil.rmtree(out)
    return result


def reference_s() -> float:
    """Wall time of a fixed task that runs no truncgibbs code.

    It does the two kinds of work the passes do, an interpreter loop and
    numpy / ``scipy.special`` array work, so its time follows the speed of
    the machine, which drifts (NOTES.md); a pass or a set-up probe divided
    by the reference run right after the pass does not.
    """
    import numpy as np
    from scipy import special
    start = perf_counter()
    acc = 0.0
    for i in range(REFERENCE_LOOP):
        acc += (i * 0.5) % 7.0
    values = np.random.default_rng(0).random(REFERENCE_ARRAY)
    for _ in range(4):
        special.ndtri(values)
        np.sort(values)
    return perf_counter() - start


def at_reference_speed(times, reference_times) -> float:
    """Median of times, each scaled by the reference task timed next to it."""
    return statistics.median(t / r for t, r in zip(times, reference_times)) \
        * REFERENCE_NOMINAL_S


def setup_probe(config_path) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)],
        capture_output=True, text=True, timeout=60, check=False)
    if done.returncode != 0:
        sys.exit(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Public-function probes (per value or per call, untraced)
# ---------------------------------------------------------------------------

def _ns_per(fn, n) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e9 / n


def probes(tg, seed) -> dict:
    import numpy as np
    rng = np.random.default_rng(seed)
    n_vec, n_calls = 100_000, 2_000
    counters = np.arange(n_vec, dtype=np.uint64)
    key = tg.derive_key(seed, "probe")
    p = rng.random(n_vec)
    narrow = tg.SpinInterval(0.0, 1.0)
    wide = tg.SpinInterval(0.0, 10.0)
    tn_narrow = tg.TruncatedNormal(rng.random(n_vec), narrow)
    tn_wide = tg.TruncatedNormal(10.0 * rng.random(n_vec), wide)

    kernel = tg.nearest_neighbor(2)
    table = tg.wrapped_offsets(kernel, tg.LatticeGeometry.torus([32, 32]))
    field = tg.FieldConfiguration(table, narrow, rng.random(table.n_sites))
    sites = rng.integers(0, table.n_sites, n_calls).tolist()
    us = rng.random(n_calls).tolist()

    def derive_keys():
        for r in range(n_calls):
            tg.derive_key(seed, "cftp", r)

    def site_updates():
        for i, u in zip(sites, us):
            tg.site_update(field, i, u)

    def local_means():
        for i in sites:
            tg.local_mean(field, i)

    return {
        "streams.derive_key_ns": _ns_per(derive_keys, n_calls),
        "streams.uniforms_ns": _ns_per(lambda: tg.streams.uniforms(key, counters), n_vec),
        "truncnorm.inverse_cdf_ns.narrow": _ns_per(lambda: tg.inverse_cdf(tn_narrow, p), n_vec),
        "truncnorm.inverse_cdf_ns.wide": _ns_per(lambda: tg.inverse_cdf(tn_wide, p), n_vec),
        "sampler.site_update_ns": _ns_per(site_updates, n_calls),
        "sampler.local_mean_ns": _ns_per(local_means, n_calls),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}

LAYER_UNITS = {
    "cli.self_s": "s", "cli.artifact_bytes": "count",
    "kernel.self_s": "s",
    "streams.self_s": "s", "streams.derive_key_calls": "count",
    "streams.key_setup_s": "s", "streams.derive_key_ns": "ns", "streams.uniforms_ns": "ns",
    "truncnorm.self_s": "s", "truncnorm.quantiles": "count",
    "truncnorm.quantiles_per_update": "ratio",
    "truncnorm.inverse_cdf_ns.narrow": "ns", "truncnorm.inverse_cdf_ns.wide": "ns",
    "sampler.self_s": "s", "sampler.site_updates": "count", "sampler.ns_per_update": "ns",
    "sampler.cftp_key_s": "s", "sampler.cftp_dynamics_s": "s",
    "sampler.cftp_replica_updates": "count", "sampler.cftp_rounds": "count",
    "sampler.site_update_ns": "ns", "sampler.local_mean_ns": "ns",
    "diagnostics.self_s": "s", "diagnostics.quadrature_s": "s",
    "diagnostics.grid_mib": "MiB-computed", "diagnostics.ks_s": "s",
    "diagnostics.stationarity_s": "s",
    "finite_spec.self_s": "s", "finite_spec.build_matrices_s": "s",
    "finite_spec.specification_s": "s", "finite_spec.pd_certificate_s": "s",
    "finite_spec.hamiltonian_calls": "count",
    "transforms.self_s": "s",
    "trace.overhead_frac": "ratio", "trace.span_cost_ns": "ns",
}

# A result object carries the same names on every workload, and no 0 may
# stand in for a layer that a workload bypasses.  So it holds only the
# layer metrics that every workload exercises; the others are reported in
# detail.json and the table, on the workloads that exercise them.
REPORTED_LAYER_METRICS = (
    "cli.self_s", "cli.artifact_bytes", "kernel.self_s",
    "streams.self_s", "streams.derive_key_calls",
    "streams.derive_key_ns", "streams.uniforms_ns",
    "truncnorm.inverse_cdf_ns.narrow", "truncnorm.inverse_cdf_ns.wide",
    "sampler.site_update_ns", "sampler.local_mean_ns",
    "trace.overhead_frac", "trace.span_cost_ns",
)

# Deterministic counts: two runs at one seed must agree on these exactly.
COUNTS = ("sampler.site_updates", "truncnorm.quantiles", "streams.derive_key_calls",
          "finite_spec.hamiltonian_calls", "cli.artifact_bytes",
          "sampler.cftp_replica_updates", "sampler.cftp_rounds")


def layer_metrics(tracer, traced: Pass) -> dict:
    """Per-layer metrics of one traced pass; a ratio only where it has a base."""
    out = {f"{layer}.self_s": s for layer, s in tracer.layer_self_s().items()}
    updates = tracer.site_updates
    dynamics_s = sum(tracer.total_s(name) for name in
                     ("sampler.run_sandwich", "sampler.stationary_run"))
    out.update({
        "cli.artifact_bytes": traced.artifact_bytes,
        "streams.derive_key_calls": tracer.count("streams.derive_key"),
        "streams.key_setup_s": tracer.corrected_s(tracer.key_setup),
        "truncnorm.quantiles": tracer.quantiles,
        "sampler.site_updates": updates,
        "sampler.cftp_key_s": tracer.corrected_s(tracer.cftp_key),
        "sampler.cftp_dynamics_s": tracer.corrected_s(tracer.cftp_dynamics),
        "sampler.cftp_replica_updates": tracer.cftp_replica_updates,
        "sampler.cftp_rounds": tracer.cftp_rounds,
        "diagnostics.quadrature_s": tracer.total_s("diagnostics.quadrature_marginals"),
        "diagnostics.grid_mib": tracer.grid_bytes / 2 ** 20,
        "diagnostics.ks_s": tracer.total_s("diagnostics.ks_distance"),
        "diagnostics.stationarity_s": tracer.total_s("diagnostics.stationarity_check"),
        "finite_spec.build_matrices_s": tracer.total_s("finite_spec.build_matrices"),
        "finite_spec.specification_s": tracer.total_s("finite_spec.specification"),
        "finite_spec.pd_certificate_s": tracer.total_s("finite_spec.pd_certificate"),
        "finite_spec.hamiltonian_calls": tracer.count("finite_spec.hamiltonian"),
    })
    if updates:
        out["truncnorm.quantiles_per_update"] = tracer.quantiles / updates
        out["sampler.ns_per_update"] = dynamics_s * 1e9 / updates
    return out


def median_metrics(rows) -> dict:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    tg = load_package()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    plan = write_plan(args.workload, workloads.program_seed(args.seed), run_dir / "configs")
    work = run_dir / "work"
    detail = {"environment": environment(args), "configs": [str(p) for _, p, _ in plan]}

    setup_times, reference_times = [], []
    passes = [run_pass(tg.cli, plan, work, "warmup")]
    layer_rows = []
    spans = None
    start = perf_counter()
    if args.trace == 0:
        # The machine's speed drifts over tens of seconds to minutes, so each
        # timed pass is followed by the reference task, and set-up probes
        # alternate with the passes so that they sample the whole run.
        while (perf_counter() - start < args.seconds or len(passes) <= MIN_TIMED_PASSES
               or len(setup_times) < SETUP_PROBES):
            passes.append(run_pass(tg.cli, plan, work, "timed"))
            reference_times.append(reference_s())
            setup_times.append(setup_probe(plan[0][1]))
    else:
        tracer = Tracer(tg)
        tracer.calibrate()
        while perf_counter() - start < args.seconds or len(layer_rows) < 1:
            passes.append(run_pass(tg.cli, plan, work, "untraced"))
            with tracer:
                traced = run_pass(tg.cli, plan, work, "traced")
            passes.append(traced)
            layer_rows.append(layer_metrics(tracer, traced))
        spans = {"span_cost_ns": tracer.span_cost_ns, "stats": tracer.stats_records(),
                 "spans": tracer.span_records()}
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(p.call_s) for p in passes)
    failed = sum(p.failed for p in passes)
    digests = passes[0].digests
    detail.update({
        "passes": [p.record() for p in passes],
        "payload_sha256": digests,
        "payload_sha256_stable_across_passes": all(p.digests == digests for p in passes),
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
    })

    if args.trace == 0:
        timed = [p.wall_s for p in passes if p.kind == "timed"]
        wall = statistics.median(timed)
        metrics = {"setup_s": at_reference_speed(setup_times, reference_times),
                   "wall_s": at_reference_speed(timed, reference_times),
                   "peak_rss_mib": peak_rss_mib}
        units = END_TO_END_UNITS
        extra = {"setup_raw_s": statistics.median(setup_times), "wall_raw_s": wall,
                 "setup_probe_s": setup_times, "reference_s": reference_times,
                 "timed_passes": len(timed),
                 "wall_s_min": min(timed), "wall_s_max": max(timed)}
        if args.workload in workloads.UPDATES_PER_PASS:
            extra["updates_per_s"] = workloads.UPDATES_PER_PASS[args.workload] / wall
        if args.workload in workloads.SAMPLES_PER_PASS:
            extra["samples_per_s"] = workloads.SAMPLES_PER_PASS[args.workload] / wall
        detail["extra"] = extra
    else:
        metrics = median_metrics(layer_rows)
        untraced = statistics.median(p.wall_s for p in passes if p.kind == "untraced")
        traced = statistics.median(p.wall_s for p in passes if p.kind == "traced")
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        metrics["trace.span_cost_ns"] = tracer.span_cost_ns
        metrics.update(probes(tg, args.seed))
        # a layer the workload bypasses measures 0 and is not reported
        detail["layer_metrics"] = {name: value for name, value in metrics.items() if value}
        units = {name: LAYER_UNITS[name] for name in REPORTED_LAYER_METRICS}
        detail["layer_passes"] = layer_rows
        detail["counts_stable_across_passes"] = all(
            row[name] == layer_rows[0][name] for row in layer_rows for name in COUNTS)
        (run_dir / "spans.json").write_text(json.dumps(spans) + "\n")

    shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    detail["result"] = result
    (run_dir / "detail.json").write_text(json.dumps(detail, indent=1) + "\n")
    for p in passes:
        for problem in p.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Every workload, as a table
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    print(f"{'workload':<12} {'metric':<32} {'value':>14} {'unit':<12} samples")
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900,
                              check=False)
        if done.returncode != 0:
            print(f"{name:<12} failed: {done.stderr.strip()}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        detail = json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}"
                             / "detail.json").read_text())
        if args.trace == 0:
            rows = [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
            extra = detail["extra"]
            rows += [(m, extra[m], "s") for m in ("setup_raw_s", "wall_raw_s")]
            rows += [(m, extra[m], "1/s") for m in ("updates_per_s", "samples_per_s")
                     if m in extra]
            samples = {"setup_s": len(extra["setup_probe_s"]),
                       "setup_raw_s": len(extra["setup_probe_s"]), "peak_rss_mib": 1}
            default = extra["timed_passes"]
        else:
            measured = detail["layer_metrics"]
            rows = [(m, measured.get(m), unit) for m, unit in LAYER_UNITS.items()]
            samples = {m: PROBE_REPEATS for m in LAYER_UNITS if "_ns" in m}
            default = len(detail["layer_passes"])
        rows.append(("fail_frac", detail["fail_frac"], "ratio"))
        samples["fail_frac"] = detail["attempted"]
        for metric, value, unit in rows:
            if value is None:
                print(f"{name:<12} {metric:<32} {'bypassed':>14}")
                continue
            count = samples.get(metric, default)
            print(f"{name:<12} {metric:<32} {value:>14.6g} {unit:<12} {count}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
