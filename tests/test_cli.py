import json
import math
import sys

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from truncgibbs import finite_spec, sampler
from truncgibbs.cli import _write_json, main
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


def test_ident4_artifacts(tmp_path):
    cfg = write_config(tmp_path, "i.json", {
        "kernel": NN_KERNEL, "geometry": {"kind": "torus", "extents": [8]},
        "interval": [-1.0, 1.0], "seed": 2, "burn_in": 100, "sweeps": 800,
    })
    assert run("ident4", cfg, tmp_path / "out") == 0
    payload = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    names = [v["name"] for v in payload["verdicts"]]
    assert names == ["mean_shift_zero", "local_mean_balance"]
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
        [[-1], 0.0], [[2], 1.0], [[5], 0.5]]}}, "boundary.values[2][0]"),
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
    ("spec-check", {"volume": [[0], [1], [0]], "boundary": {"constant": 0.5}}, "volume[2]"),
    ("sandwich", {"geometry": {"kind": "box", "sites": [[1], [0], [1]]},
                  "boundary": {"constant": 0.5}}, "geometry.sites[2]"),
]


@pytest.mark.parametrize("subcommand, fields, path", BAD_INPUTS,
                         ids=[f"{sub}-{path}" for sub, _, path in BAD_INPUTS])
def test_bad_input_rejected_with_path(tmp_path, capsys, subcommand, fields, path):
    cfg = write_config(tmp_path, "bad.json",
                       {"kernel": NN_KERNEL, "interval": [0.0, 1.0], **fields})
    assert run(subcommand, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and path in err
    assert not (tmp_path / "out").exists()


def test_nan_coalescence_tolerance_is_config_error(tmp_path, capsys):
    # NaN >= 0 is false, so the guard catches it before a run to t_cap
    cfg = write_config(tmp_path, "bad.json", {
        "kernel": NN_KERNEL, "interval": [0.0, 1.0], "geometry": BOX2,
        "boundary": {"constant": 0.5}, "eps_coal": math.nan, "t_cap": 8})
    assert run("cftp", cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("config error: eps_coal")
    assert not (tmp_path / "out").exists()


VOLUME_CONFIG = {"kernel": NN_KERNEL, "volume": [[0], [1], [2]], "interval": [0.0, 1.0],
                 "boundary": {"constant": 0.5}, "trials": 5, "identity_trials": 5,
                 "betas": [0.5, 2.0, 4.0], "n_q": 64}


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
    cfg = write_config(tmp_path, "v.json", VOLUME_CONFIG)
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
    monkeypatch.setattr(sampler, "_sample_one", lambda m, a, b, u: a + b - m)
    monkeypatch.setattr(sampler, "_sample_many", lambda m, a, b, u: a + b - m)
    cfg = write_config(tmp_path, "fault.json", {
        "kernel": NN_KERNEL, "geometry": {"kind": "torus", "extents": [8]},
        "interval": [0.0, 1.0], "seed": 1, "sweeps": 10,
    })
    assert run("sandwich", cfg, tmp_path / "out") == 1
    assert "OrderViolation" in capsys.readouterr().err


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
ARRAYS = st.one_of(
    hnp.arrays(np.float64, SHAPES, elements=FINITE),
    hnp.arrays(np.float64, SHAPES, elements=FLOATS),
    hnp.arrays(np.float32, SHAPES),
    hnp.arrays(np.int64, SHAPES))
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
LEAVES = st.one_of(SCALARS, ARRAYS, NUMBER_LISTS, NUMBER_LISTS.map(tuple))
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
def test_writer_matches_stdlib_indent2(tmp_path, payload):
    _write_json(tmp_path, "out.json", payload)
    expected = json.dumps(reference_plain(payload), indent=2) + "\n"
    assert (tmp_path / "out.json").read_text() == expected
