"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is deterministic and finishes in well under a
minute on a laptop.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from truncgibbs.cli import main as cli_main
from truncgibbs.diagnostics import (
    ks_distance,
    quadrature_marginals,
    stationarity_check,
)
from truncgibbs.finite_spec import (
    build_matrices,
    hamiltonian,
    pd_certificate,
    specification,
    toeplitz_matrix,
    toeplitz_quadratic_form,
)
from truncgibbs.kernel import LatticeGeometry, SpinInterval, nearest_neighbor, wrapped_offsets
from truncgibbs.sampler import cftp_samples, run_sandwich, stationary_run
from truncgibbs.streams import derive_key, uniforms
from truncgibbs.transforms import beta_scaling_check
from truncgibbs.truncnorm import (
    TruncatedNormal,
    cdf,
    density,
    inverse_cdf,
    mean,
    varphi,
    _sample_many,
)
from helpers import random_kernel, random_volume

NN1 = nearest_neighbor(1)
UNIT = SpinInterval(0.0, 1.0)
SYM = SpinInterval(-1.0, 1.0)


def report(num, name, ok, detail):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def simpson(f, a, b, n=4000):
    xs = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float(w @ f(xs)) * (b - a) / (3.0 * n)


# ---------------------------------------------------------------------------
# 1. Monotone coupling exactness
# ---------------------------------------------------------------------------

def test_criterion_01_monotone_coupling_exact():
    table = wrapped_offsets(NN1, LatticeGeometry.torus([8]))
    idx = table.idx
    w = table.weights
    batch, batches = 100_000, 10
    violations = 0
    for j in range(batches):
        lo_span = np.arange(j * batch * 8, (j + 1) * batch * 8, dtype=np.uint64)
        v = uniforms(derive_key(2026, "c1-v"), lo_span).reshape(batch, 8)
        x = uniforms(derive_key(2026, "c1-w"), lo_span).reshape(batch, 8)
        field_lo, field_up = np.minimum(v, x), np.maximum(v, x)   # ordered inputs
        span = np.arange(j * batch, (j + 1) * batch, dtype=np.uint64)
        sites = np.minimum((uniforms(derive_key(2026, "c1-s"), span) * 8).astype(int), 7)
        shared_u = uniforms(derive_key(2026, "c1-u"), span)
        rows = np.arange(batch)[:, None]
        m_lo = np.clip((field_lo[rows, idx[sites]] * w).sum(axis=1), 0.0, 1.0)
        m_up = np.clip((field_up[rows, idx[sites]] * w).sum(axis=1), 0.0, 1.0)
        new_lo = _sample_many(m_lo, 0.0, 1.0, shared_u)
        new_up = _sample_many(m_up, 0.0, 1.0, shared_u)
        violations += int(np.count_nonzero(new_lo > new_up))
    total = batch * batches
    report(1, "monotone coupling exactness", violations == 0,
           f"{violations} violations in {total} paired updates, tolerance 0")
    assert violations == 0


# ---------------------------------------------------------------------------
# 2. Sandwich collapse on the desk-scale torus
# ---------------------------------------------------------------------------

def test_criterion_02_sandwich_collapse():
    t0 = time.perf_counter()
    seeds = (1, 2, 3, 4, 5)
    traces = [run_sandwich(LatticeGeometry.torus([32]), NN1, UNIT, 500, seed=s)
              for s in seeds]
    elapsed = time.perf_counter() - t0
    averaged = np.mean([t.sup_gap for t in traces], axis=0)
    checkpoints = [0, 10, 25, 50, 100, 250, 500]
    decay = [averaged[c] for c in checkpoints]
    monotone = all(a >= b for a, b in zip(decay, decay[1:])) and decay[-1] < decay[0]
    ok = averaged[-1] < 1e-2 and monotone and elapsed < 30.0
    report(2, "sandwich collapse (torus 32, 5 seeds)", ok,
           f"seed-averaged final sup-gap {averaged[-1]:.2e} < 1e-2, "
           f"decay at sweeps {checkpoints} = {[f'{d:.1e}' for d in decay]}, "
           f"runtime {elapsed:.1f}s < 30s")
    assert averaged[-1] < 1e-2
    assert monotone
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. Exact sampling versus the closed form on one site
# ---------------------------------------------------------------------------

def test_criterion_03_cftp_vs_closed_form():
    box = LatticeGeometry.box([(0,)], NN1)
    boundary = {(-1,): 0.1, (1,): 0.4}
    draws = cftp_samples(box, NN1, UNIT, boundary, 10_000, seed=33)[:, 0]
    tn = TruncatedNormal(0.25, UNIT)              # the local boundary mean
    target = mean(tn)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    z = (draws.mean() - target) / se
    grid = np.linspace(0.0, 1.0, 1025)
    distance = ks_distance(draws, grid, cdf(tn, grid))
    ok = distance < 0.02 and abs(z) <= 3.0
    report(3, "cftp vs closed form (|V|=1, 1e4 samples)", ok,
           f"KS {distance:.4f} < 0.02, mean z {z:+.2f} within 3 SE")
    assert distance < 0.02
    assert abs(z) <= 3.0


# ---------------------------------------------------------------------------
# 4. Exact sampling versus the quadrature oracle on two sites
# ---------------------------------------------------------------------------

def test_criterion_04_cftp_vs_quadrature():
    box = LatticeGeometry.box([(0,), (1,)], NN1)
    gamma = np.array([0.0, 1.0])
    samples = cftp_samples(box, NN1, UNIT, {(-1,): 0.0, (2,): 1.0}, 10_000, seed=44)
    vh = build_matrices([(0,), (1,)], NN1)
    oracle = quadrature_marginals(vh, gamma, UNIT, n_q=256)
    refined = quadrature_marginals(vh, gamma, UNIT, n_q=512)
    refinement = float(np.max(np.abs(refined.means - oracle.means)))
    zs = []
    for j in range(2):
        col = samples[:, j]
        se = col.std(ddof=1) / np.sqrt(col.size)
        zs.append(float((col.mean() - oracle.means[j]) / se))
    ok = all(abs(z) <= 3.0 for z in zs) and refinement < 1e-6
    report(4, "cftp vs quadrature (|V|=2, 1e4 samples)", ok,
           f"mean z-scores {[f'{z:+.2f}' for z in zs]} within 3 SE, "
           f"oracle refinement shift {refinement:.1e} < 1e-6")
    assert all(abs(z) <= 3.0 for z in zs)
    assert refinement < 1e-6


# ---------------------------------------------------------------------------
# 5. The conditional-Gaussian identity on random volumes
# ---------------------------------------------------------------------------

def test_criterion_05_specification_identity():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(200):
        kern = random_kernel(rng)
        sites = random_volume(rng, kern.dimension, max_sites=4)
        vh = build_matrices(sites, kern)
        gamma = rng.uniform(0, 1, len(vh.shell))
        spec = specification(vh, gamma, UNIT)
        eta1 = rng.uniform(0, 1, vh.n_sites)
        eta2 = rng.uniform(0, 1, vh.n_sites)
        dh = (hamiltonian(vh, np.concatenate([eta1, gamma]))
              - hamiltonian(vh, np.concatenate([eta2, gamma])))
        d1, d2 = eta1 - spec.mean, eta2 - spec.mean
        dq = 0.5 * (d1 @ vh.precision @ d1) - 0.5 * (d2 @ vh.precision @ d2)
        worst = max(worst, abs(dh - dq))
    ok = worst <= 1e-10
    report(5, "specification identity (200 random volumes)", ok,
           f"max |energy diff - quadratic form diff| = {worst:.2e} <= 1e-10")
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# 6. Constructive positive definiteness
# ---------------------------------------------------------------------------

def test_criterion_06_positive_definiteness():
    rng = np.random.default_rng(66)
    reassembly_worst = 0.0
    for _ in range(100):
        kern = random_kernel(rng)
        sites = random_volume(rng, kern.dimension, max_sites=6)
        vh = build_matrices(sites, kern)
        specification(vh, np.zeros(len(vh.shell)), UNIT)   # Cholesky must succeed
        cert = pd_certificate(vh)
        reassembly_worst = max(reassembly_worst,
                               float(np.max(np.abs(cert.reassemble() - vh.precision))))
    form_worst = 0.0
    positive = True
    for _ in range(100):
        d = int(rng.integers(1, 3))
        sites = random_volume(rng, d, max_sites=6)
        z = tuple(int(c) for c in rng.integers(-2, 3, d)) or (1,)
        if not any(z):
            z = (1,) * d
        eta = rng.normal(size=len(sites))
        by_classes = toeplitz_quadratic_form(sites, z, eta)
        dense = float(eta @ toeplitz_matrix(sites, z) @ eta)
        form_worst = max(form_worst, abs(by_classes - dense))
        if np.any(eta != 0.0):
            positive = positive and by_classes > 0.0
    ok = reassembly_worst <= 1e-14 and form_worst <= 1e-12 and positive
    report(6, "positive definiteness certificate", ok,
           f"reassembly {reassembly_worst:.1e} <= 1e-14, "
           f"progression form vs dense {form_worst:.1e} <= 1e-12, "
           f"strictly positive on nonzero vectors: {positive}")
    assert reassembly_worst <= 1e-14
    assert form_worst <= 1e-12
    assert positive


# ---------------------------------------------------------------------------
# 7. The stationarity identity of the mean shift
# ---------------------------------------------------------------------------

def test_criterion_07_stationarity_identity():
    torus = LatticeGeometry.torus([16])
    details = []
    ok = True
    for interval, label in ((SYM, "[-1,1]"), (UNIT, "[0,1]")):
        trace = stationary_run(torus, NN1, interval, seed=7, burn_in=1000,
                               n_sweeps=10_000)
        shift = stationarity_check(trace, batches=32)
        details.append(f"{label}: z={shift.z:+.2f}")
        ok = ok and shift.passed
    control = stationary_run(torus, NN1, UNIT, seed=2, burn_in=0, n_sweeps=2,
                             start="upper")
    control_shift = stationarity_check(control)
    ok = ok and not control_shift.passed
    details.append(f"negative control z={control_shift.z:.1f} flagged={not control_shift.passed}")
    report(7, "stationarity identity (torus 16)", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 8. Inverse-temperature rescaling identity
# ---------------------------------------------------------------------------

def test_criterion_08_beta_rescaling():
    betas = (0.25, 1.0, 2.5, 10.0)
    worst = dict(zip(betas, beta_scaling_check(build_matrices([(0,), (1,), (2,)], NN1), UNIT,
                                               betas, trials=100, seed=88)))
    ok = all(r <= 1e-10 for r in worst.values())
    report(8, "inverse-temperature rescaling", ok,
           "max residuals " + ", ".join(f"beta={b}: {r:.1e}" for b, r in worst.items())
           + " all <= 1e-10")
    assert ok


# ---------------------------------------------------------------------------
# 9. Truncated-normal mathematics
# ---------------------------------------------------------------------------

def test_criterion_09_truncated_normal_math():
    cases = [(0.0, SYM), (0.4, UNIT), (-2.0, SpinInterval(-3.0, 7.0)), (5.0, UNIT)]
    integral_worst = 0.0
    mean_worst = 0.0
    for m, interval in cases:
        tn = TruncatedNormal(m, interval)
        integral = simpson(lambda u: np.asarray(density(tn, u)),
                           interval.a, interval.b)
        integral_worst = max(integral_worst, abs(integral - 1.0))
        quad_mean = simpson(lambda u: u * np.asarray(density(tn, u)),
                            interval.a, interval.b)
        mean_worst = max(mean_worst, abs(mean(tn) - quad_mean))

    rng = np.random.default_rng(99)
    odd_worst = 0.0
    increasing = True
    for interval in (SYM, UNIT):
        t = rng.uniform(0, interval.width / 2, 100)
        odd_worst = max(odd_worst, float(np.max(np.abs(
            varphi(interval.midpoint + t, interval)
            + varphi(interval.midpoint - t, interval)))))
        grid = np.linspace(interval.a, interval.b, 1000)
        increasing = increasing and bool(np.all(np.diff(varphi(grid, interval)) > 0))

    residual_worst = 0.0
    for interval in (SYM, UNIT):
        for m in np.linspace(interval.a - 8, interval.b + 8, 33):
            tn = TruncatedNormal(float(m), interval)
            p = np.linspace(0.0, 1.0, 101)
            q = inverse_cdf(tn, p)
            residual_worst = max(residual_worst, float(np.max(np.abs(cdf(tn, q) - p))))

    ok = (integral_worst <= 1e-10 and mean_worst <= 1e-8
          and odd_worst <= 1e-12 and increasing and residual_worst <= 1e-12)
    report(9, "truncated-normal math", ok,
           f"density integral off by {integral_worst:.1e} <= 1e-10, "
           f"mean vs quadrature {mean_worst:.1e} <= 1e-8, "
           f"odd symmetry {odd_worst:.1e} <= 1e-12, increasing={increasing}, "
           f"quantile residual {residual_worst:.1e} <= 1e-12")
    assert integral_worst <= 1e-10
    assert mean_worst <= 1e-8
    assert odd_worst <= 1e-12
    assert increasing
    assert residual_worst <= 1e-12


# ---------------------------------------------------------------------------
# 10. Byte-level determinism of every subcommand
# ---------------------------------------------------------------------------

CLI_CONFIGS = {
    "sandwich": {"kernel": {"preset": "nn", "dimension": 1},
                 "geometry": {"kind": "torus", "extents": [16]},
                 "interval": [0.0, 1.0], "seed": 7, "sweeps": 60},
    "cftp": {"kernel": {"preset": "nn", "dimension": 1},
             "geometry": {"kind": "box", "sites": [[0], [1]]},
             "interval": [0.0, 1.0],
             "boundary": {"values": [[[-1], 0.0], [[2], 1.0]]},
             "seed": 3, "n_samples": 300, "n_q": 128},
    "ident4": {"kernel": {"preset": "nn", "dimension": 1},
               "geometry": {"kind": "torus", "extents": [8]},
               "interval": [-1.0, 1.0], "seed": 2, "burn_in": 50, "sweeps": 500},
    "spec-check": {"kernel": {"preset": "nn", "dimension": 1},
                   "volume": [[0], [1]], "interval": [0.0, 1.0],
                   "boundary": {"values": [[[-1], 0.0], [[2], 1.0]]}, "seed": 5},
    "pd-check": {"kernel": {"preset": "exp-decay", "dimension": 1,
                            "rate": 0.5, "range": 2},
                 "volume": [[0], [1], [4]], "seed": 5},
    "beta-check": {"kernel": {"preset": "nn", "dimension": 1},
                   "volume": [[0], [1], [2]], "interval": [0.0, 1.0], "seed": 5},
    "af-probe": {"kernel": {"preset": "nn", "dimension": 1},
                 "volume": [[0], [1]], "interval": [0.0, 1.0],
                 "boundary": {"constant": 0.25}, "seed": 4, "trials": 40},
    "oracle-check": {"kernel": {"preset": "nn", "dimension": 1},
                     "volume": [[0]], "interval": [0.0, 1.0],
                     "boundary": {"values": [[[-1], 0.2], [[1], 0.8]]},
                     "seed": 6, "n_q": 128},
}


def test_criterion_10_cli_determinism(tmp_path):
    mismatches = []
    for name, cfg in CLI_CONFIGS.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a, out_b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        code_a = cli_main([name, "--config", str(cfg_path), "--out", str(out_a)])
        code_b = cli_main([name, "--config", str(cfg_path), "--out", str(out_b)])
        assert code_a == 0, f"{name} exited {code_a}"
        assert code_b == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and files_a, f"{name}: artifact lists differ"
        for fname in files_a:
            if (out_a / fname).read_bytes() != (out_b / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    ok = not mismatches
    report(10, "cli byte-level determinism (8 subcommands)", ok,
           "all artifacts byte-identical" if ok else f"mismatches: {mismatches}")
    assert ok


CLI_SHA256 = {
    "sandwich/summary.json": "b9f375a2bd3f2a062295bdb5a5d648ec274c66461fb086e6bf81bcab03e4ed6e",
    "sandwich/trace.csv": "fd271323dbbccf62e1b41d9158d3078e2c94860548d8d2d04044ab54f1e7f576",
    "cftp/samples.csv": "b8d409c48ac0f267cd4473ec6f6c42cea05dacae21c083dbb61cca3a8af19199",
    "cftp/verdicts.json": "e4793a0ae172ccded72ad34ce072976e902d936af0a56f4e533c77ea0ed1c9e1",
    "ident4/verdicts.json": "c542d154c600cf076110aeda1ebe55402ccfcdf58b276c078477e056978be91a",
    "spec-check/spec.json": "3c0964638719180ac0c01d4bbe7b2c1c45ff0e39ad8bfa56238f863c08de172b",
    "pd-check/certificate.json": "216f772929a1d487f7b5681dbb2069b3048c859a515ee8b9e1bd109411136a9f",
    "beta-check/beta.json": "3f70b366c2c187c2562a701c982b2a76537ed0aa93de1248529355219ca0abd1",
    "af-probe/af_probe.json": "9c2fd8c65aafc23da204d0b7ebbc97fa3adff53909953eb4416043224b7e5dd2",
    "oracle-check/oracle.json": "c483e99ae248d895b70db0fe08f7ee01aceb885535ebf1b63f2207f75f69dd3d",
}


def artifact_digests(directory, runs):
    """The sha256 of every artifact of ``runs``, (name, subcommand, config)
    triples each run once under ``directory``, keyed ``name/file``."""
    digests = {}
    for name, subcommand, cfg in runs:
        cfg_path = directory / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main([subcommand, "--config", str(cfg_path),
                         "--out", str(directory / name)]) == 0
        for path in sorted((directory / name).iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def cli_digests(tmp_path_factory):
    return artifact_digests(tmp_path_factory.mktemp("cli"),
                            [(name, name, cfg) for name, cfg in CLI_CONFIGS.items()])


def test_cli_artifacts_are_the_pinned_set(cli_digests):
    assert list(cli_digests) == list(CLI_SHA256)


@pytest.mark.parametrize("artifact", list(CLI_SHA256))
def test_cli_artifact_bytes_are_pinned(cli_digests, artifact):
    """The sha256 of each artifact of ``CLI_CONFIGS``, recorded as
    ``LEVELLED_SHA256`` is (numpy 2.4.6, scipy 1.17.1).  These runs take the
    levelled steps on small volumes (16-, 8- and 2-site), every
    finite-volume subcommand and the 1-site quadrature oracle, whose
    densities evaluate ``truncnorm._mass``; a change of their bits says why
    in CHANGES.md and re-records them.  One test per artifact, so that a
    failure names the artifact that moved."""
    assert cli_digests[artifact] == CLI_SHA256[artifact]


def test_cli_artifact_text_is_pinned(tmp_path):
    # JSON artifacts are the standard library's indent=2 text (floats and ints
    # round-trip exactly, so re-encoding what was read gives the same bytes);
    # CSV fields are ints as written and floats as float.__repr__
    for name, cfg in CLI_CONFIGS.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / name
        assert cli_main([name, "--config", str(cfg_path), "--out", str(out)]) == 0
        for path in sorted(out.iterdir()):
            text = path.read_text()
            if path.suffix == ".json":
                assert text == json.dumps(json.loads(text), indent=2) + "\n", path.name
                continue
            assert path.suffix == ".csv" and text.endswith("\n"), path.name
            for line in text.splitlines()[1:]:
                for field in line.split(","):
                    value = int(field) if field.lstrip("-").isdigit() else float(field)
                    assert repr(value) == field, (path.name, field)


# Configs whose runs take the levelled steps on wider volumes than those of
# CLI_CONFIGS, each a (subcommand, config) pair: a sandwich on a 12 x 12 nn
# torus in one block; one on a 16 x 16 nn torus over [0, 4], whose 200
# sweeps are four blocks (64, 64, 64 and 8 sweeps) levelled two per pass;
# CFTP on a 3-site box, which steps every replica of a slot as one level;
# and the single chain on a 64-site nn ring over the wide interval [0, 10],
# in two blocks.
LEVELLED_CONFIGS = {
    "sandwich": ("sandwich", {"kernel": {"preset": "nn", "dimension": 2},
                              "geometry": {"kind": "torus", "extents": [12, 12]},
                              "interval": [0.0, 1.0], "seed": 7, "sweeps": 40,
                              "snapshot_every": 10}),
    "sandwich-blocks": ("sandwich", {"kernel": {"preset": "nn", "dimension": 2},
                                     "geometry": {"kind": "torus", "extents": [16, 16]},
                                     "interval": [0.0, 4.0], "seed": 11, "sweeps": 200,
                                     "snapshot_every": 50}),
    "cftp": ("cftp", {"kernel": {"preset": "nn", "dimension": 1},
                      "geometry": {"kind": "box", "sites": [[0], [1], [2]]},
                      "interval": [0.0, 1.0],
                      "boundary": {"values": [[[-1], 0.0], [[3], 1.0]]},
                      "seed": 3, "n_samples": 2000, "n_q": 128}),
    "ident4": ("ident4", {"kernel": {"preset": "nn", "dimension": 1},
                          "geometry": {"kind": "torus", "extents": [64]},
                          "interval": [0.0, 10.0], "seed": 7, "burn_in": 50, "sweeps": 400}),
}
LEVELLED_SHA256 = {
    "sandwich/summary.json": "6b44735d1899cdc6cb912240e5842021c410283549abe66117ae3a97315fb248",
    "sandwich/trace.csv": "60d6f0850575218dd10eaa06b165edca91b608821e95f0c601f44093f71dca07",
    "sandwich-blocks/summary.json":
        "2563b358982fc92d4776ab7d18025f280ef9d0c6d654884c8b08ed81f2c3b91f",
    "sandwich-blocks/trace.csv":
        "4d72a9d9ea9c7573b6270aa14bb6ce7869deb343eed039c1cb95495bcdf781b3",
    "cftp/samples.csv": "470ec4780de0efb13344351d8e4bde1366835899c15e1c4f8b7888c96fc1277d",
    "cftp/verdicts.json": "bcd186a063bf7630d432fb4812321ca99de93c9dfaa3de89eabacdacc71ffdc8",
    "ident4/verdicts.json": "ea5415e33ce385f76051ac5302e14e7962483c90efb95e7d3838e4b1d2175c4c",
}


@pytest.fixture(scope="module")
def levelled_digests(tmp_path_factory):
    return artifact_digests(tmp_path_factory.mktemp("levelled"),
                            [(name, *run) for name, run in LEVELLED_CONFIGS.items()])


def test_levelled_artifacts_are_the_pinned_set(levelled_digests):
    assert list(levelled_digests) == list(LEVELLED_SHA256)


@pytest.mark.parametrize("artifact", list(LEVELLED_SHA256))
def test_levelled_artifact_bytes_are_pinned(levelled_digests, artifact):
    """The sha256 of each artifact of ``LEVELLED_CONFIGS``, recorded with
    the quantiles drawn in two calls per coupled level, for ``ident4`` with
    the level queues from a stable sort of the int64 sites, and for
    ``sandwich-blocks`` with each block levelled on its own (numpy 2.4.6,
    scipy 1.17.1, the versions CI installs).  A refactor of the levelled
    paths must keep them.  A deliberate change of bits, such as a new quantile
    tail choice, re-records them and says why in CHANGES.md."""
    assert levelled_digests[artifact] == LEVELLED_SHA256[artifact]


# The far tail of the truncated normal on [0, 1]: means 8.5 <= |m| <= 60,
# almost all with an interval mass below truncnorm._TINY_MASS, so the
# values come from the log-space branch of the division by the mass
FAR_TAIL = np.linspace(8.5, 60.0, 20_001)
FAR_TAIL_MEANS = np.concatenate([-FAR_TAIL[::-1], FAR_TAIL])
FAR_TAIL_SHA256 = "27a8bb4275d5d2cbd4f8d82b44a70032d9ed7b05ed8921dacbbf4f41f50a351d"


def test_far_tail_truncnorm_bytes_are_pinned():
    """The sha256 of ``varphi``, ``density`` at the midpoint and ``mean``
    over ``FAR_TAIL_MEANS`` (numpy 2.4.6, scipy 1.17.1).  Their exp is
    libm's and their log1p scipy's, so the bits are the same on each of
    numpy's SIMD kernel classes; with numpy's exp and log1p, 1,869 of the
    40,002 mean shifts and 1,898 of the densities took other bits on its
    AVX-512 kernels than on its AVX2 ones."""
    tn = TruncatedNormal(FAR_TAIL_MEANS, UNIT)
    digest = hashlib.sha256()
    for values in (varphi(FAR_TAIL_MEANS, UNIT), density(tn, 0.5), mean(tn)):
        digest.update(values.tobytes())
    assert digest.hexdigest() == FAR_TAIL_SHA256


# ---------------------------------------------------------------------------
# 11. The reflection probe runs, archives, and stays deterministic
# ---------------------------------------------------------------------------

def test_criterion_11_af_probe_archival(tmp_path):
    cfg = dict(CLI_CONFIGS["af-probe"])
    cfg_path = tmp_path / "af.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["af-probe", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["af-probe", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    payload = json.loads((out_a / "af_probe.json").read_text())
    schema_ok = (set(payload) >= {"subcommand", "config", "deltas", "mean", "spread"}
                 and len(payload["deltas"]) == cfg["trials"]
                 and all(isinstance(d, float) for d in payload["deltas"]))
    identical = (out_a / "af_probe.json").read_bytes() == (out_b / "af_probe.json").read_bytes()
    ok = schema_ok and identical
    report(11, "reflection probe archival", ok,
           f"{len(payload['deltas'])} per-trial deltas archived, spread "
           f"{payload['spread']:.4f}, deterministic={identical}")
    assert schema_ok
    assert identical
