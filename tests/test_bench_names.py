"""The library names the scripts under ``bench/`` read, called as they call
them: ``run.py``'s probes, ``setup_probe.py``'s setup and the callables
``layertrace.py`` wraps by name.  A rename or a changed signature fails here,
not only in a traced benchmark run."""

import json

import numpy as np

import truncgibbs as tg
from truncgibbs import cli, diagnostics, sampler


def test_run_probes_calls():
    rng = np.random.default_rng(0)
    narrow = tg.SpinInterval(0.0, 1.0)
    kernel = tg.nearest_neighbor(2)
    table = tg.wrapped_offsets(kernel, tg.LatticeGeometry.torus([32, 32]))
    field = tg.FieldConfiguration(table, narrow, rng.random(table.n_sites))
    tg.site_update(field, 5, 0.25)
    assert narrow.contains(tg.local_mean(field, 5))
    key = tg.derive_key(0, "probe")
    tg.derive_key(0, "cftp", 3)
    assert tg.streams.uniforms(key, np.arange(4, dtype=np.uint64)).shape == (4,)
    p = rng.random(4)
    assert narrow.contains(tg.inverse_cdf(tg.TruncatedNormal(rng.random(4), narrow), p))


def write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return str(path)


def test_setup_probe_calls(tmp_path):
    kernel_cfg = {"preset": "nn", "dimension": 1}
    torus = cli._load_config(write(tmp_path, "t.json", {
        "kernel": kernel_cfg, "interval": [0.0, 1.0],
        "geometry": {"kind": "torus", "extents": [8]}}))
    kernel, _ = cli._kernel_from(torus)
    interval, _ = cli._interval_from(torus)
    geometry, _ = cli._geometry_from(torus, kernel)
    assert tg.wrapped_offsets(kernel, geometry).n_sites == 8
    volume = cli._load_config(write(tmp_path, "v.json", {
        "kernel": kernel_cfg, "interval": [0.0, 1.0], "volume": [[0], [1]]}))
    box = tg.LatticeGeometry.box(cli._volume_from(volume), kernel)
    assert tg.wrapped_offsets(kernel, box).shell == ((-1,), (2,))
    assert interval.contains(tg.inverse_cdf(tg.TruncatedNormal(interval.midpoint, interval), 0.5))


def test_layertrace_names(tmp_path):
    assert callable(sampler.cftp_samples)
    kernel, interval = tg.nearest_neighbor(1), tg.SpinInterval(0.0, 1.0)
    vh = tg.build_matrices([(0,)], kernel)
    oracle = diagnostics.quadrature_marginals(vh, 0.5, interval, n_q=64)
    assert len(oracle.grid) == 65 and len(oracle.sites) == 1
    config = write(tmp_path, "s.json", {
        "kernel": {"preset": "nn", "dimension": 1}, "interval": [0.0, 1.0], "seed": 0,
        "geometry": {"kind": "torus", "extents": [8]}, "sweeps": 2})
    assert cli.main(["sandwich", "--config", config, "--out", str(tmp_path / "out")]) == 0
