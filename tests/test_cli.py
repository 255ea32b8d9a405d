import dataclasses
import json
import math
import sys

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from truncgibbs import diagnostics, finite_spec, sampler, transforms, truncnorm
from truncgibbs.cli import _json_chunks, _write_json, main
from truncgibbs.kernel import LatticeGeometry, SpinInterval, nearest_neighbor

NN_KERNEL = {"preset": "nn", "dimension": 1}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(subcommand, config_path, out_dir, *extra):
    return main([subcommand, "--config", config_path, "--out", str(out_dir), *extra])


def test_sandwich_artifacts(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "kernel": NN_KERNEL, "geometry": {"kind": "torus", "extents": [16]},
        "interval": [0.0, 1.0], "seed": 7, "sweeps": 40,
    })
    assert run("sandwich", cfg, tmp_path / "out") == 0
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0] == "sweep,sup_gap,mean_gap"
    assert trace[1] == "0,1.0,1.0"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["seed"] == 7
    assert summary["initial_sup_gap"] == 1.0


def test_sandwich_summary_writes_measured_repairs(tmp_path):
    # a 32 x 32 torus repairs sub-ulp inversions once its chains meet (sweep 22)
    cfg = write_config(tmp_path, "s.json", {
        "kernel": {"preset": "nn", "dimension": 2},
        "geometry": {"kind": "torus", "extents": [32, 32]},
        "interval": [0.0, 1.0], "seed": 7, "sweeps": 50,
    })
    assert run("sandwich", cfg, tmp_path / "out") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    trace = sampler.run_sandwich(LatticeGeometry.torus([32, 32]), nearest_neighbor(2),
                                 SpinInterval(0.0, 1.0), 50, seed=7)
    assert trace.order_repairs > 0
    assert summary["order_repairs"] == trace.order_repairs
    assert summary["max_inversion_frac"] == trace.max_inversion_frac
    assert "order_violations" not in summary


def test_cftp_artifacts(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": NN_KERNEL, "geometry": {"kind": "box", "sites": [[0], [1]]},
        "interval": [0.0, 1.0], "boundary": {"values": [[[-1], 0.0], [[2], 1.0]]},
        "seed": 3, "n_samples": 400, "n_q": 128,
    })
    assert run("cftp", cfg, tmp_path / "out") == 0
    rows = (tmp_path / "out" / "samples.csv").read_text().splitlines()
    assert rows[0] == "site_0,site_1"
    assert len(rows) == 401
    verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    assert {v["name"] for v in verdicts["mean_verdicts"]} == {"mean[site_0]", "mean[site_1]"}
    assert verdicts["pass"] is True


def test_cftp_without_oracle_takes_few_samples(tmp_path):
    # above 3 sites there is no KS oracle, so no floor on n_samples
    cfg = write_config(tmp_path, "c.json", {
        "kernel": NN_KERNEL, "geometry": {"kind": "box", "sites": [[0], [1], [2], [3]]},
        "interval": [0.0, 1.0], "boundary": {"constant": 0.5}, "seed": 3, "n_samples": 1,
    })
    assert run("cftp", cfg, tmp_path / "out") == 0
    assert len((tmp_path / "out" / "samples.csv").read_text().splitlines()) == 2
    assert json.loads((tmp_path / "out" / "verdicts.json").read_text())["pass"] is True


def test_ident4_artifacts(tmp_path):
    cfg = write_config(tmp_path, "i.json", {
        "kernel": NN_KERNEL, "geometry": {"kind": "torus", "extents": [8]},
        "interval": [-1.0, 1.0], "seed": 2, "burn_in": 100, "sweeps": 800,
    })
    assert run("ident4", cfg, tmp_path / "out") == 0
    payload = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    names = [v["name"] for v in payload["verdicts"]]
    assert names == ["mean_shift_zero"]
    assert all(set(v) == {"name", "estimate", "se", "target", "z", "pass"}
               for v in payload["verdicts"])


def test_spec_check_artifacts(tmp_path):
    cfg = write_config(tmp_path, "sc.json", {
        "kernel": NN_KERNEL, "volume": [[0], [1]], "interval": [0.0, 1.0],
        "boundary": {"values": [[[-1], 0.0], [[2], 1.0]]}, "seed": 5,
    })
    assert run("spec-check", cfg, tmp_path / "out") == 0
    payload = json.loads((tmp_path / "out" / "spec.json").read_text())
    assert payload["precision"] == [[1.0, -0.5], [-0.5, 1.0]]
    assert payload["quadratic_vs_pairsum_max"] <= 1e-10
    assert payload["mean"] == pytest.approx([1 / 3, 2 / 3], abs=1e-12)


def test_pd_check_artifacts(tmp_path):
    cfg = write_config(tmp_path, "pd.json", {
        "kernel": NN_KERNEL, "volume": [[0], [1]], "seed": 5,
    })
    assert run("pd-check", cfg, tmp_path / "out") == 0
    payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert payload["reassembly_residual"] <= 1e-14
    assert payload["min_eigenvalue"] > 0.0
    assert payload["terms"][0]["offset"] == [1]


def test_beta_check_artifacts(tmp_path):
    cfg = write_config(tmp_path, "b.json", {
        "kernel": NN_KERNEL, "volume": [[0], [1], [2]], "interval": [0.0, 1.0],
        "seed": 5,
    })
    assert run("beta-check", cfg, tmp_path / "out") == 0
    payload = json.loads((tmp_path / "out" / "beta.json").read_text())
    assert [r["beta"] for r in payload["results"]] == [0.25, 1.0, 2.5, 10.0]
    assert all(r["max_residual"] <= 1e-10 for r in payload["results"])


def test_af_probe_artifacts(tmp_path):
    cfg = write_config(tmp_path, "af.json", {
        "kernel": NN_KERNEL, "volume": [[0], [1]], "interval": [0.0, 1.0],
        "boundary": {"constant": 0.25}, "seed": 4, "trials": 32,
    })
    assert run("af-probe", cfg, tmp_path / "out") == 0
    payload = json.loads((tmp_path / "out" / "af_probe.json").read_text())
    assert len(payload["deltas"]) == 32
    assert set(payload) >= {"deltas", "mean", "spread", "config"}


def test_oracle_check_artifacts(tmp_path):
    cfg = write_config(tmp_path, "o.json", {
        "kernel": NN_KERNEL, "volume": [[0]], "interval": [0.0, 1.0],
        "boundary": {"values": [[[-1], 0.2], [[1], 0.8]]}, "seed": 6, "n_q": 128,
    })
    assert run("oracle-check", cfg, tmp_path / "out") == 0
    payload = json.loads((tmp_path / "out" / "oracle.json").read_text())
    assert payload["closed_form_difference"] <= 1e-8
    assert payload["refinement_mean_shift"] < 1e-6


def test_missing_field_reports_path(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"kernel": {"preset": "nn"}})
    assert run("sandwich", cfg, tmp_path / "out") == 2
    assert "kernel.dimension" in capsys.readouterr().err


def test_unknown_preset_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "kernel": {"preset": "dragon", "dimension": 1},
        "geometry": {"kind": "torus", "extents": [8]},
        "interval": [0.0, 1.0],
    })
    assert run("sandwich", cfg, tmp_path / "out") == 2
    assert "kernel.preset" in capsys.readouterr().err


def test_invalid_interval_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "kernel": NN_KERNEL, "geometry": {"kind": "torus", "extents": [8]},
        "interval": [1.0, 0.0],
    })
    assert run("sandwich", cfg, tmp_path / "out") == 2
    assert "interval" in capsys.readouterr().err


BOX2 = {"kind": "box", "sites": [[0], [1]]}
TORUS8 = {"kind": "torus", "extents": [8]}
VOLUME2 = [[0], [1]]


BAD_INPUTS = [
    ("spec-check", {"volume": VOLUME2, "boundary": {"constant": 5.0}}, "boundary.constant"),
    ("oracle-check", {"volume": VOLUME2, "boundary": {"constant": 5.0}}, "boundary.constant"),
    ("af-probe", {"volume": VOLUME2, "boundary": {"constant": 5.0}}, "boundary.constant"),
    ("cftp", {"geometry": BOX2, "boundary": {"constant": 5.0}}, "boundary.constant"),
    ("sandwich", {"geometry": BOX2, "boundary": {"constant": -0.5}}, "boundary.constant"),
    ("spec-check", {"volume": VOLUME2,
                    "boundary": {"values": [[[-1], 0.0], [[2], 1.5]]}}, "boundary.values"),
    ("spec-check", {"volume": VOLUME2,
                    "boundary": {"values": [[[-1], "x"], [[2], 1.0]]}}, "boundary.values"),
    ("cftp", {"geometry": BOX2, "boundary": {"constant": 0.5}, "eps_coal": -1.0}, "eps_coal"),
    ("sandwich", {"geometry": TORUS8, "interval": [0.0, math.inf]}, "interval"),
    ("ident4", {"geometry": TORUS8, "burn_in": -1}, "burn_in"),
    ("ident4", {"geometry": TORUS8, "sweeps": 1}, "sweeps"),       # batch means need 2
    ("ident4", {"geometry": TORUS8, "start": "sideways"}, "start"),
    ("sandwich", {"geometry": TORUS8, "snapshot_every": -10}, "snapshot_every"),
    ("spec-check", {"volume": VOLUME2, "interval": ["0", True],
                    "boundary": {"constant": 0.5}}, "interval[0]"),
    ("sandwich", {"geometry": TORUS8, "interval": [0.0, True]}, "interval[1]"),
    ("spec-check", {"volume": VOLUME2,
                    "boundary": {"values": [[[-1], "0.5"], [[2], 1.0]]}}, "boundary.values[0]"),
    ("cftp", {"geometry": BOX2,
              "boundary": {"values": [[[-1], 0.0], [[2], False]]}}, "boundary.values[1]"),
    # site coordinates are integers, each shell site is given once, and no other site
    ("oracle-check", {"volume": VOLUME2, "boundary": {"values": [
        [[-1.0], 0.0], [[True, 7], 1.0], [[3.5], 0.2], [[2.0], 1.0]]}},
     "boundary.values[0][0][0]"),
    ("spec-check", {"volume": VOLUME2, "boundary": {"values": [
        [[-1], 0.0], [[True], 1.0]]}}, "boundary.values[1][0][0]"),
    ("af-probe", {"volume": VOLUME2, "boundary": {"values": [
        [[-1], 0.0], [[2], 1.0], [[2], 0.5]]}}, "boundary.values[2][0]"),
    ("af-probe", {"volume": VOLUME2, "boundary": {"values": [
        [[-1], 0.0], [[2], 1.0], [[5], 0.5]]}},
     "boundary.values: boundary key (5,) is not a shell site"),
    ("spec-check", {"volume": VOLUME2, "boundary": {"values": [
        [[-1], 0.0], [[2], 1.0], [[0], 0.5]]}},
     "boundary.values: boundary key (0,) is not a shell site"),
    ("cftp", {"geometry": BOX2, "boundary": {"values": [
        [[-1], 0.0], [[2], 1.0], [[-1], 0.5]]}}, "boundary.values[2][0]"),
    ("oracle-check", {"volume": VOLUME2, "boundary": {"values": [
        [[-1], 0.0, 1.0], [[2], 1.0]]}}, "boundary.values[0]"),
    ("beta-check", {"volume": VOLUME2, "betas": [1.0, "2"]}, "betas[1]"),
    ("spec-check", {"volume": [["0"], [1]], "boundary": {"constant": 0.5}}, "volume[0][0]"),
    ("pd-check", {"volume": [[0], [True]]}, "volume[1][0]"),
    ("sandwich", {"kernel": {"dimension": 1, "offsets": [[[1], "2"]]},
                  "geometry": {"kind": "torus", "extents": ["8"]}}, "kernel.offsets[0][1]"),
    ("ident4", {"kernel": {"dimension": 1, "offsets": [[[True], 1.0]]},
                "geometry": TORUS8}, "kernel.offsets[0][0][0]"),
    ("sandwich", {"geometry": {"kind": "torus", "extents": ["8"]}}, "geometry.extents[0]"),
    ("ident4", {"geometry": {"kind": "torus", "extents": [8.7]}}, "geometry.extents[0]"),
    ("cftp", {"geometry": {"kind": "box", "sites": [[0], [1.5]]},
              "boundary": {"constant": 0.5}}, "geometry.sites[1][0]"),
    # each site of a volume or a box is listed once
    ("spec-check", {"volume": [[0], [1], [0]], "boundary": {"constant": 0.5}},
     "volume: site (0,) is listed twice"),
    ("sandwich", {"geometry": {"kind": "box", "sites": [[1], [0], [1]]},
                  "boundary": {"constant": 0.5}}, "geometry.sites: site (1,) is listed twice"),
    # each offset is given once; the kernel builder's own rejections name the field
    ("sandwich", {"kernel": {"dimension": 1, "offsets": [[[1], 3.0], [[1], 2.0]]},
                  "geometry": TORUS8}, "kernel.offsets[1][0]"),
    ("sandwich", {"kernel": {"dimension": 1, "offsets": [[[1], 3.0], [[-1], 2.0]]},
                  "geometry": TORUS8}, "kernel.offsets"),                  # asymmetric
    ("ident4", {"kernel": {"dimension": 1, "offsets": [[[1], -1.0]]},
                "geometry": TORUS8}, "kernel.offsets"),                    # negative
    ("cftp", {"kernel": {"dimension": 1, "offsets": [[[0], 1.0]]}, "geometry": BOX2,
              "boundary": {"constant": 0.5}}, "kernel.offsets"),           # zero offset
    ("spec-check", {"kernel": {"dimension": 1, "offsets": [[[1], 0.0], [[2], 0]]},
                    "volume": VOLUME2, "boundary": {"constant": 0.5}}, "kernel.offsets"),
    ("pd-check", {"kernel": {"dimension": 1, "offsets": [[[1, 0], 1.0]]},
                  "volume": VOLUME2}, "kernel.offsets"),                   # wrong dimension
    ("pd-check", {"kernel": {"preset": "exp-decay", "dimension": 1, "rate": 0.0, "range": 2},
                  "volume": VOLUME2}, "kernel.rate"),
    ("beta-check", {"kernel": {"preset": "exp-decay", "dimension": 1, "rate": -0.5,
                               "range": 1}, "volume": VOLUME2}, "kernel.rate"),
    ("sandwich", {"kernel": {"dimension": 1, "offsets": [[[1], 1.0, 0.5]]},
                  "geometry": TORUS8}, "kernel.offsets[0]"),              # not a pair
    # every kernel is normalized, so "normalize" is a field that nothing reads
    ("sandwich", {"kernel": {"dimension": 1, "offsets": [[[1], 1.0]], "normalize": False},
                  "geometry": TORUS8}, "kernel.normalize"),
    ("ident4", {"kernel": {"dimension": 1, "offsets": [[[1], 1.0]], "normalize": False},
                "geometry": TORUS8}, "kernel.normalize"),
    ("cftp", {"kernel": {"dimension": 1, "offsets": [[[1], 1.0]], "normalize": False},
              "geometry": BOX2, "boundary": {"values": [[[-1], 0.2], [[2], 0.4]]}},
     "kernel.normalize"),
    # a config that is not an object replaces the whole document
    ("sandwich", [NN_KERNEL, TORUS8], "config root"),
    ("sandwich", {"geometry": {"kind": "sphere", "extents": [8]}}, "geometry.kind"),
    ("cftp", {"geometry": TORUS8, "boundary": {"constant": 0.5}}, "geometry.kind"),
    ("spec-check", {"volume": VOLUME2, "interval": [0.0, 0.5, 1.0],
                    "boundary": {"constant": 0.5}}, "interval"),
    ("oracle-check", {"volume": VOLUME2, "boundary": {"values": [[[-1], 0.0]]}},
     "boundary.values"),                                                  # shell site [2] missing
    ("pd-check", {"volume": []}, "volume"),
    # a non-finite weight is a config error, not a NaN certificate that fails its verdict
    ("pd-check", {"kernel": {"dimension": 1, "offsets": [[[1], math.nan]]},
                  "volume": VOLUME2}, "kernel.offsets: J(1,) = nan"),
    # ident4's identities hold on a torus; a box is refused before any sweep
    ("ident4", {"geometry": BOX2}, "geometry.kind"),
    ("ident4", {"geometry": BOX2, "boundary": {"constant": 0.5}}, "geometry.kind"),
    # each beta is a finite number > 0, checked before any run
    ("beta-check", {"volume": VOLUME2, "betas": [0.5, -1.0]},
     "betas[1]: must be a finite number > 0, got -1.0"),
    ("beta-check", {"volume": VOLUME2, "betas": [0.0]}, "betas[0]: must be a finite number > 0"),
    ("beta-check", {"volume": VOLUME2, "betas": [math.nan]}, "betas[0]: must be a finite number"),
    ("beta-check", {"volume": VOLUME2, "betas": [1.0, 2.0, math.inf]},
     "betas[2]: must be a finite number > 0, got inf"),
    # a beta that takes the pair energy beyond the float range is named, not passed
    ("beta-check", {"volume": VOLUME2, "interval": [0.0, 10.0], "betas": [1.0, 1e308]},
     "betas[1]: beta H(xi) or H(sqrt(beta) xi) is not finite at beta = 1e+308"),
    ("beta-check", {"volume": VOLUME2, "interval": [0.0, 10.0],
                    "betas": [1.0, 2.0, 1e308, 1e308]},
     "betas[2]: beta H(xi) or H(sqrt(beta) xi) is not finite at beta = 1e+308"),
    # the quadrature oracle's n_q is an even integer >= 64, checked before any run
    ("cftp", {"geometry": BOX2, "boundary": {"constant": 0.5}, "n_q": 65},
     "n_q: n_q must be an even subinterval count, got 65"),
    ("oracle-check", {"volume": VOLUME2, "boundary": {"constant": 0.5}, "n_q": 32},
     "n_q: n_q must be an integer >= 64, got 32"),
    # the KS test of a box the oracle takes (at most 3 sites) needs 100 samples,
    # checked before any run
    ("cftp", {"geometry": BOX2, "boundary": {"constant": 0.5}, "n_samples": 1},
     "n_samples: the KS distance needs at least 100 samples, got 1"),
    ("cftp", {"geometry": {"kind": "box", "sites": [[0], [1], [2]]},
              "boundary": {"constant": 0.5}, "n_samples": 99},
     "n_samples: the KS distance needs at least 100 samples, got 99"),
    # a JSON integer has no bound: one beyond the float range in a float field is named
    ("ident4", {"geometry": TORUS8, "interval": [0.0, 10**400]},
     "interval[1]: expected float, got int beyond the float range"),
    ("sandwich", {"kernel": {"dimension": 1, "offsets": [[[1], 10**400]]}, "geometry": TORUS8},
     "kernel.offsets[0][1]: expected float, got int beyond the float range"),
    ("pd-check", {"kernel": {"preset": "exp-decay", "dimension": 1, "rate": 10**400, "range": 1},
                  "volume": VOLUME2}, "kernel.rate: expected float, got int beyond"),
    ("spec-check", {"volume": VOLUME2, "boundary": {"constant": 10**400}},
     "boundary.constant: expected float, got int beyond the float range"),
    ("oracle-check", {"volume": VOLUME2, "boundary": {"values": [[[-1], 0.0], [[2], -10**400]]}},
     "boundary.values[1][1]: expected float, got int beyond the float range"),
    ("cftp", {"geometry": BOX2, "boundary": {"constant": 0.5}, "eps_coal": 10**400},
     "eps_coal: expected float, got int beyond the float range"),
    ("beta-check", {"volume": VOLUME2, "betas": [1.0, 10**400]},
     "betas[1]: expected float, got int beyond the float range"),
    # CFTP's first horizon is max(2, n) on n sites: a cap below it would run nothing
    ("cftp", {"geometry": {"kind": "box", "sites": [[0], [1], [2]]},
              "boundary": {"constant": 0.5}, "t_cap": 2},
     "t_cap: t_cap must be at least the first horizon 3, got 2"),
    # a field that the subcommand never reads is named, not dropped
    ("sandwich", {"geometry": TORUS8, "sweep": 3}, "sweep: unknown field"),
    ("spec-check", {"volume": VOLUME2, "boundary": {"constant": 0.5}, "identity_trial": 3},
     "identity_trial: unknown field"),
    ("pd-check", {"volume": VOLUME2, "trials": 5}, "trials: unknown field"),
    # af-probe splits the volume by coordinate parity, the one partition it reads
    ("af-probe", {"volume": VOLUME2, "boundary": {"constant": 0.5}, "partition": "checkerboard"},
     "partition: expected 'parity', got 'checkerboard'"),
    ("sandwich", {"kernel": {**NN_KERNEL, "rate": 0.5}, "geometry": TORUS8},
     "kernel.rate: unknown field"),
    ("cftp", {"geometry": {**BOX2, "extents": [2]}, "boundary": {"constant": 0.5}},
     "geometry.extents: unknown field"),
    ("spec-check", {"volume": VOLUME2, "boundary": {
        "constant": 0.5, "values": [[[-1], 0.0], [[2], 1.0]]}}, "boundary.values: unknown field"),
    # volumes and geometries the library would refuse only once the run starts
    ("oracle-check", {"volume": [[0], [1], [2], [3]], "boundary": {"constant": 0.5}},
     "volume: the quadrature oracle takes at most 3 sites, got 4"),
    ("sandwich", {"kernel": {"preset": "nn", "dimension": 2}, "geometry": TORUS8},
     "geometry.extents: kernel dimension 2 != torus dimension 1"),
    # the site-list rules are the library's, named by the field that lists the sites
    ("cftp", {"kernel": {"preset": "nn", "dimension": 2}, "geometry": BOX2,
              "boundary": {"constant": 0.5}},
     "geometry.sites: kernel dimension 2 != site dimension 1"),
    ("spec-check", {"kernel": {"preset": "nn", "dimension": 2}, "volume": VOLUME2,
                    "boundary": {"constant": 0.5}},
     "volume: kernel dimension 2 != site dimension 1"),
    ("pd-check", {"volume": [[0], [1, 0]]}, "volume: kernel dimension 1 != site dimension 2"),
    ("ident4", {"geometry": {"kind": "torus", "extents": [2]}},
     "geometry.extents: torus extent 2 on axis 0 must exceed twice the kernel range 1"),
    ("sandwich", {"geometry": {"kind": "torus", "extents": [0]}},
     "geometry.extents: torus extent must be an integer >= 1, got 0"),
    ("cftp", {"geometry": {"kind": "box", "sites": []}, "boundary": {"constant": 0.5}},
     "geometry.sites: volume contains no sites"),
    # a count is at most 2**63 - 1, numpy's int64 maximum (a JSON integer has no bound)
    ("sandwich", {"geometry": TORUS8, "sweeps": 10**30},
     "sweeps: sweeps must be an integer <= 2**63 - 1, got 1000000000000000000000000000000"),
    ("sandwich", {"geometry": TORUS8, "snapshot_every": 10**30},
     "snapshot_every: snapshot_every must be an integer <= 2**63 - 1"),
    ("sandwich", {"geometry": {"kind": "torus", "extents": [10**30]}},
     "geometry.extents: torus extent must be an integer <= 2**63 - 1"),
    ("ident4", {"geometry": TORUS8, "burn_in": 10**30},
     "burn_in: burn_in must be an integer <= 2**63 - 1"),
    ("ident4", {"geometry": TORUS8, "sweeps": 10**30},
     "sweeps: sweeps must be an integer <= 2**63 - 1"),
    ("ident4", {"geometry": TORUS8, "batches": 10**30},
     "batches: batches must be an integer <= 2**63 - 1"),
    ("cftp", {"geometry": BOX2, "boundary": {"constant": 0.5}, "n_samples": 10**30},
     "n_samples: n_samples must be an integer <= 2**63 - 1"),
    ("cftp", {"geometry": BOX2, "boundary": {"constant": 0.5}, "t_cap": 10**30},
     "t_cap: t_cap must be an integer <= 2**63 - 1"),
    ("cftp", {"geometry": BOX2, "boundary": {"constant": 0.5}, "n_q": 10**30},
     "n_q: n_q must be an integer <= 2**63 - 1"),
    ("oracle-check", {"volume": VOLUME2, "boundary": {"constant": 0.5}, "n_q": 10**30},
     "n_q: n_q must be an integer <= 2**63 - 1"),
    ("spec-check", {"volume": VOLUME2, "boundary": {"constant": 0.5}, "identity_trials": 10**30},
     "identity_trials: identity_trials must be an integer <= 2**63 - 1"),
    ("beta-check", {"volume": VOLUME2, "trials": 10**30},
     "trials: trials must be an integer <= 2**63 - 1"),
    ("af-probe", {"volume": VOLUME2, "boundary": {"constant": 0.5}, "trials": 10**30},
     "trials: trials must be an integer <= 2**63 - 1"),
    ("pd-check", {"kernel": {"preset": "exp-decay", "dimension": 1, "rate": 0.5, "range": 10**30},
                  "volume": VOLUME2}, "kernel.range: range must be an integer <= 2**63 - 1"),
    ("pd-check", {"kernel": {"preset": "nn", "dimension": 10**30}, "volume": VOLUME2},
     "kernel.dimension: dimension must be an integer <= 2**63 - 1"),
    # the neighbour index codes the sites and their neighbours in int64
    ("spec-check", {"volume": [[10**30]], "boundary": {"constant": 0.5}},
     "volume: the bounding box (999999999999999999999999999999,) to "
     "(1000000000000000000000000000001,)"),
    ("spec-check", {"volume": [[2**63 - 1]], "boundary": {"constant": 0.5}},
     "volume: the bounding box (9223372036854775806,) to (9223372036854775808,)"),
    ("spec-check", {"kernel": {"preset": "nn", "dimension": 2}, "volume": [[0, 0], [2**40, 2**40]],
                    "boundary": {"constant": 0.5}},
     "volume: the bounding box (-1, -1) to (1099511627777, 1099511627777)"),
    ("cftp", {"geometry": {"kind": "box", "sites": [[2**63 - 1]]}, "boundary": {"constant": 0.5}},
     "geometry.sites: the bounding box (9223372036854775806,) to (9223372036854775808,)"),
]


@pytest.mark.parametrize("subcommand, fields", [
    ("pd-check", {"volume": VOLUME2, "interval": [0.0, 1.0], "boundary": {"constant": 0.5}}),
    ("beta-check", {"volume": VOLUME2, "boundary": {"constant": 0.5}}),
    ("ident4", {"geometry": TORUS8, "boundary": {"constant": 0.5}, "volume": VOLUME2,
                "burn_in": 10, "sweeps": 100}),
    ("sandwich", {"geometry": TORUS8, "volume": VOLUME2}),
])
def test_shared_fields_pass_where_unread(tmp_path, subcommand, fields):
    # the shared fields pass where nothing reads them, so one config can
    # serve every finite-volume subcommand
    cfg = write_config(tmp_path, "c.json", {"kernel": NN_KERNEL, "interval": [0.0, 1.0],
                                            "seed": 1, **fields})
    assert run(subcommand, cfg, tmp_path / "out") == 0


@pytest.mark.parametrize("subcommand, fields, path", BAD_INPUTS,
                         ids=[f"{sub}-{path}" for sub, _, path in BAD_INPUTS])
def test_bad_input_rejected_with_path(tmp_path, capsys, subcommand, fields, path):
    if isinstance(fields, dict):
        fields = {"kernel": NN_KERNEL, "interval": [0.0, 1.0], **fields}
    cfg = write_config(tmp_path, "bad.json", fields)
    assert run(subcommand, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and path in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kernel, line", [
    ({"dimension": 1, "offsets": [[[1], 3.0], [[1], 2.0]]},
     "config error: kernel.offsets[1][0]: offset [1] is given twice"),
    ({"dimension": 1, "offsets": [[[1], 3.0], [[-1], 2.0]]},
     "config error: kernel.offsets: J(1,) = 3.0 but J(-1,) = 2.0"),
    ({"preset": "exp-decay", "dimension": 1, "rate": 0.0, "range": 2},
     "config error: kernel.rate: rate must be positive"),
    ({"dimension": 1, "offsets": [[[1], 1.0]], "normalize": True},
     "config error: kernel.normalize: unknown field"),
    ({"dimension": 1, "offsets": [[[1], math.nan]]},
     "config error: kernel.offsets: J(1,) = nan is not finite"),
    ({"dimension": 1, "offsets": [[[1], 1.0], [[2], -math.inf]]},
     "config error: kernel.offsets: J(2,) = -inf is not finite"),
    ({"dimension": 1, "offsets": [[[1], 1e308]]},
     "config error: kernel.offsets: the weights sum beyond the float range"),
    ({"preset": "exp-decay", "dimension": 1, "rate": 1e300, "range": 2},
     "config error: kernel.rate: 1e+300 ** 2 overflows a float"),
])
def test_kernel_error_line_names_field_and_reason(tmp_path, capsys, kernel, line):
    cfg = write_config(tmp_path, "bad.json", {"kernel": kernel, "geometry": TORUS8,
                                              "interval": [0.0, 1.0]})
    assert run("sandwich", cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err == line + "\n"
    assert not (tmp_path / "out").exists()


def test_explicit_offsets_run_as_the_nn_preset(tmp_path):
    # J(1) = 3 with its mirror filled in normalizes to the nn kernel's 1/2, 1/2
    explicit = {"dimension": 1, "offsets": [[[1], 3.0]]}
    for name, kernel in (("preset", NN_KERNEL), ("explicit", explicit)):
        cfg = write_config(tmp_path, f"{name}.json", {
            "kernel": kernel, "geometry": {"kind": "torus", "extents": [16]},
            "interval": [0.0, 1.0], "seed": 7, "sweeps": 60})
        assert run("sandwich", cfg, tmp_path / name) == 0
    trace = (tmp_path / "explicit" / "trace.csv").read_bytes()
    assert trace == (tmp_path / "preset" / "trace.csv").read_bytes()
    summary = json.loads((tmp_path / "explicit" / "summary.json").read_text())
    assert summary["config"]["kernel"] == explicit


def test_nan_coalescence_tolerance_is_config_error(tmp_path, capsys):
    # NaN >= 0 is false, so the guard catches it before a run to t_cap
    cfg = write_config(tmp_path, "bad.json", {
        "kernel": NN_KERNEL, "interval": [0.0, 1.0], "geometry": BOX2,
        "boundary": {"constant": 0.5}, "eps_coal": math.nan, "t_cap": 8})
    assert run("cftp", cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("config error: eps_coal")
    assert not (tmp_path / "out").exists()


VOLUME_CONFIG = {"kernel": NN_KERNEL, "volume": [[0], [1], [2]], "interval": [0.0, 1.0],
                 "boundary": {"constant": 0.5}}
# each finite-volume subcommand's own fields, small for a quick run; a field
# that a subcommand does not read is a config error
VOLUME_FIELDS = {"spec-check": {"identity_trials": 5}, "pd-check": {},
                 "beta-check": {"trials": 5, "betas": [0.5, 2.0, 4.0]},
                 "af-probe": {"trials": 5}, "oracle-check": {"n_q": 64}}


def volume_config(subcommand, **changes):
    return {**VOLUME_CONFIG, **VOLUME_FIELDS[subcommand], **changes}


@pytest.mark.parametrize("subcommand",
                         ["spec-check", "pd-check", "beta-check", "af-probe", "oracle-check"])
def test_volume_matrices_built_once_per_call(tmp_path, monkeypatch, subcommand):
    real = finite_spec.build_matrices
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("truncgibbs") \
                and getattr(module, "build_matrices", None) is real:
            monkeypatch.setattr(module, "build_matrices", counted)
    cfg = write_config(tmp_path, "v.json", volume_config(subcommand))
    assert run(subcommand, cfg, tmp_path / "out") == 0
    assert len(calls) == 1


def test_malformed_json_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run("sandwich", str(path), tmp_path / "out") == 2


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert run("sandwich", str(tmp_path / "nope.json"), tmp_path / "out") == 2
    assert "io error" in capsys.readouterr().err


def test_forced_order_violation_fails_run(tmp_path, capsys, monkeypatch):
    # a quantile that decreases in the mean puts the lower chain above the upper
    monkeypatch.setattr(sampler, "_sample_many", lambda m, a, b, u: a + b - m)
    cfg = write_config(tmp_path, "fault.json", {
        "kernel": NN_KERNEL, "geometry": {"kind": "torus", "extents": [8]},
        "interval": [0.0, 1.0], "seed": 1, "sweeps": 10,
    })
    assert run("sandwich", cfg, tmp_path / "out") == 1
    assert "OrderViolation" in capsys.readouterr().err


TORUS_CONFIG = {"kernel": NN_KERNEL, "geometry": TORUS8, "interval": [0.0, 1.0],
                "seed": 1, "sweeps": 10}
BOX_CONFIG = {"kernel": NN_KERNEL, "geometry": BOX2, "interval": [0.0, 1.0],
              "boundary": {"constant": 0.5}, "seed": 1, "n_samples": 200, "n_q": 64}


def _spoiled(module, name, spoil):
    """``module.name`` wrapped so that ``spoil`` alters its result."""
    real = getattr(module, name)
    return module, name, lambda *args, **kwargs: spoil(real(*args, **kwargs))


# per subcommand: a config that passes, its JSON artifact, and one library
# call altered so that the verdict fails (None where the run grades nothing)
EXIT_CASES = {
    "sandwich": (TORUS_CONFIG, "summary.json", None),
    "af-probe": (volume_config("af-probe"), "af_probe.json", None),
    "cftp": (BOX_CONFIG, "verdicts.json", _spoiled(diagnostics, "ks_distance", lambda d: 1.0)),
    "ident4": ({**TORUS_CONFIG, "burn_in": 10}, "verdicts.json", _spoiled(
        diagnostics, "stationarity_check",
        lambda shift: dataclasses.replace(shift, passed=False))),
    "spec-check": (volume_config("spec-check"), "spec.json",
                   _spoiled(finite_spec, "quadratic_form", lambda q: q + 1.0)),
    "pd-check": (volume_config("pd-check"), "certificate.json", _spoiled(
        finite_spec, "pd_certificate", lambda c: dataclasses.replace(c, slack=c.slack + 1.0))),
    "beta-check": (volume_config("beta-check"), "beta.json",
                   _spoiled(transforms, "beta_scaling_check", lambda rs: [1.0] * len(rs))),
    "oracle-check": (volume_config("oracle-check", volume=[[0]]), "oracle.json",
                     _spoiled(truncnorm, "mean", lambda m: m + 1.0)),
}


@pytest.mark.parametrize("subcommand", sorted(EXIT_CASES))
def test_exit_status_follows_the_payload(tmp_path, monkeypatch, subcommand):
    cfg, artifact, spoil = EXIT_CASES[subcommand]
    path = write_config(tmp_path, "c.json", cfg)
    assert run(subcommand, path, tmp_path / "ok") == 0
    payload = json.loads((tmp_path / "ok" / artifact).read_text())
    assert list(payload)[:2] == ["subcommand", "config"] and payload["subcommand"] == subcommand
    if spoil is None:
        assert "pass" not in payload
        return
    assert list(payload)[-1] == "pass" and payload["pass"] is True
    monkeypatch.setattr(*spoil)
    assert run(subcommand, path, tmp_path / "out") == 1
    payload = json.loads((tmp_path / "out" / artifact).read_text())
    assert list(payload)[-1] == "pass" and payload["pass"] is False


def test_seed_override_changes_payload(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "kernel": NN_KERNEL, "geometry": {"kind": "torus", "extents": [8]},
        "interval": [0.0, 1.0], "seed": 1, "sweeps": 10,
    })
    assert run("sandwich", cfg, tmp_path / "a") == 0
    assert run("sandwich", cfg, tmp_path / "b", "--seed", "99") == 0
    a = (tmp_path / "a" / "trace.csv").read_text()
    b = (tmp_path / "b" / "trace.csv").read_text()
    assert a != b
    assert json.loads((tmp_path / "b" / "summary.json").read_text())["config"]["seed"] == 99


def test_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "kernel": NN_KERNEL, "geometry": {"kind": "torus", "extents": [8]},
        "interval": [0.0, 1.0], "seed": 1, "sweeps": 25,
    })
    assert run("sandwich", cfg, tmp_path / "a") == 0
    assert run("sandwich", cfg, tmp_path / "b") == 0
    for name in ("trace.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ---------------------------------------------------------------------------
# The artifact writer is the standard library's indent=2 JSON, byte for byte
# ---------------------------------------------------------------------------

def reference_plain(value):
    """The payload as plain Python values: what the writer once handed to
    ``json.dump(..., indent=2)``, kept as the reference for its text."""
    if isinstance(value, dict):
        return {k: reference_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310,
                               math.nan, math.inf, -math.inf, 1.7976931348623157e308])
FLOATS = st.one_of(st.floats(), EDGE_FLOATS)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   EDGE_FLOATS.filter(math.isfinite))
NEEDS_ESCAPE = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/",
                                "\u2028", "é", "日本", "\ud800", "\U0001f600"])
TEXT = st.one_of(st.text(max_size=6), NEEDS_ESCAPE)
INT64 = st.integers(-2**63, 2**63 - 1).map(np.int64)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
# a small pool, so that arrays repeat entries, with both zeros apart
POOLED = st.sampled_from([0.0, -0.0, 5e-324, 0.1, -2.0])
ARRAYS = st.one_of(
    hnp.arrays(np.float64, SHAPES, elements=FINITE),
    hnp.arrays(np.float64, SHAPES, elements=FLOATS),
    hnp.arrays(np.float64, SHAPES, elements=POOLED),
    hnp.arrays(np.dtype(">f8"), SHAPES, elements=POOLED),
    hnp.arrays(np.float32, SHAPES),
    hnp.arrays(np.int64, SHAPES),
    FLOATS.map(np.array))                                          # 0-d
VIEWS = st.one_of(                                                 # non-contiguous
    hnp.arrays(np.float64, SHAPES, elements=POOLED).map(lambda a: a.T),
    hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, min_side=0, max_side=4),
               elements=st.one_of(POOLED, FINITE)).map(lambda a: a[..., ::2]))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, TEXT,
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32), INT64,
    st.booleans().map(np.bool_))
NUMBER_LISTS = st.one_of(
    st.lists(FINITE, max_size=6),                                   # one C-formatted chunk
    st.lists(st.floats(1e307, 1.7976931348623157e308), min_size=2, max_size=4),  # sum overflows
    st.lists(st.one_of(FINITE, st.integers(), st.booleans(), FINITE.map(np.float64)),
             min_size=1, max_size=6),
    st.lists(st.integers(), max_size=6),                            # one chunk as well
    st.lists(st.one_of(st.integers(), st.booleans(), INT64), min_size=1, max_size=6))
LEAVES = st.one_of(SCALARS, ARRAYS, VIEWS, NUMBER_LISTS, NUMBER_LISTS.map(tuple))
PAYLOADS = st.dictionaries(TEXT, st.recursive(
    LEAVES, lambda kids: st.one_of(st.lists(kids, max_size=4),
                                   st.lists(kids, max_size=4).map(tuple),
                                   st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=12), max_size=4)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=PAYLOADS)
@example(payload={"matrix": np.arange(6.0).reshape(2, 3), "empty": [[], {}, ()]})
@example(payload={"overflow": [1e308, 1e308], "signed": [-0.0, 0.0, 5e-324]})
@example(payload={"mixed": [1.0, 2, True, np.float64(0.5)], "nested": {"k": (1.0,)}})
@example(payload={"ints": [[0, -1], [2**70, True]], "int64": [1, np.int64(2)]})
@example(payload={"ends": [math.nan, 1.0, -math.inf], "\u00e9\n\"": np.bool_(True)})
@example(payload={"symmetric": np.array([[0.0, -0.0, 0.1],
                                         [-0.0, -0.0, -2.0],
                                         [0.1, -2.0, 0.0]])})
def test_writer_matches_stdlib_indent2(tmp_path, payload):
    _write_json(tmp_path, "out.json", payload)
    expected = json.dumps(reference_plain(payload), indent=2) + "\n"
    assert (tmp_path / "out.json").read_text() == expected


# lists of int lists (sites, progressions) are one chunk; a bool or a numpy
# int in one, or an empty inner list, sends the outer list down the general path
INT_LISTS = st.lists(st.one_of(
    st.lists(st.integers(), min_size=1, max_size=4),
    st.lists(st.integers(-9, 9), max_size=3),
    st.lists(st.one_of(st.integers(), st.booleans(), INT64), min_size=1, max_size=3)),
    max_size=5)


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(INT_LISTS, st.lists(INT_LISTS, max_size=4)),
       depth=st.integers(0, 3))
@example(value=[[0, -1], [2**70, 3]], depth=0)
@example(value=[[1], []], depth=1)
@example(value=[[True, 1], [1]], depth=0)
@example(value=[[np.int64(-4)], [5]], depth=2)
@example(value=[[[0, 0], [0, 1]], [[1, 0]]], depth=1)
def test_int_list_lists_match_stdlib_indent2(value, depth):
    pad = "\n" + "  " * depth
    expected = json.dumps(reference_plain(value), indent=2).replace("\n", pad)
    assert "".join(_json_chunks(value, pad)) == expected
