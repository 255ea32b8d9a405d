"""Configuration-driven experiment runner.

Usage: ``truncgibbs <subcommand> --config <path> --out <dir> [--seed N]``.

Subcommands: sandwich, cftp, ident4, spec-check, pd-check, beta-check,
af-probe, oracle-check.  Configuration is a JSON document; every artifact
embeds the fully resolved configuration and seed, numbers are serialized
with round-trip-exact formatting, and no timestamps or paths enter the
payload, so re-running a subcommand with the same configuration yields
byte-identical numeric output.  Exit status: 0 iff the payload's ``pass`` is
true or absent, 1 on a failed verdict or an error, 2 on config or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, finite_spec, sampler, transforms, truncnorm
from .errors import (ConfigInvalid, DuplicateSite, EmptyVolume, GeometryMismatch, MissingSite,
                     NonpositiveBeta, OutOfRange)
from .kernel import (
    LatticeGeometry,
    SpinInterval,
    _boundary_array,
    build_kernel,
    check_torus_extents,
    exp_decay,
    nearest_neighbor,
)
from .streams import uniform_configurations

_REQUIRED = object()
_SHARED = ("kernel", "geometry", "volume", "interval", "boundary", "seed")


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _get(cfg: dict, path: str, kind, default=_REQUIRED):
    node = cfg
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(node, dict) or part not in node:
            if default is _REQUIRED:
                raise ConfigInvalid(f"{'.'.join(walked)}: required field missing")
            return default
        node = node[part]
    return _typed(node, path, kind)


def _typed(node, path: str, kind):
    """``node`` as ``kind``; int and float accept numbers but not booleans,
    and float no integer beyond the float range."""
    if kind is float and isinstance(node, (int, float)) and not isinstance(node, bool):
        try:
            return float(node)
        except OverflowError:
            raise ConfigInvalid(f"{path}: expected float, got int beyond the float range") from None
    if kind is not None and (not isinstance(node, kind)
                             or (kind is int and isinstance(node, bool))):
        raise ConfigInvalid(f"{path}: expected {getattr(kind, '__name__', kind)}, "
                            f"got {type(node).__name__}")
    return node


def _int_tuple(node, path: str) -> tuple:
    """A JSON list of integers (a site or an offset) as a tuple."""
    return tuple(_typed(c, f"{path}[{k}]", int)
                 for k, c in enumerate(_typed(node, path, list)))


def _sites_from(nodes: list, path: str) -> list:
    """A JSON list of sites as integer tuples; the site-list rules are checked
    where the sites are used (:func:`_site_list`)."""
    return [_int_tuple(node, f"{path}[{r}]") for r, node in enumerate(nodes)]


def _site_list(path: str, build, sites, kernel):
    """``build(sites, kernel)``, with the site-list errors it raises (no site,
    one of another dimension, one listed twice) as ConfigInvalid at ``path``."""
    try:
        return build(sites, kernel)
    except (EmptyVolume, GeometryMismatch, DuplicateSite) as err:
        raise ConfigInvalid(f"{path}: {err}") from None


def _unknown_fields(cfg: dict, echo: dict, path: str = ""):
    """Raise ConfigInvalid for the first field of ``cfg`` that its echo lacks,
    which no resolver read; a field both give as an object is checked
    field by field.  At the top level the shared fields always pass, since
    a subcommand that reads none of them echoes none."""
    for key, node in cfg.items():
        if key not in echo:
            if not path and key in _SHARED:
                continue
            raise ConfigInvalid(f"{path}{key}: unknown field")
        if isinstance(node, dict) and isinstance(echo[key], dict):
            _unknown_fields(node, echo[key], f"{path}{key}.")


def _int_from(cfg, path, default=_REQUIRED, least=1):
    value = _get(cfg, path, int, default)
    if value < least:
        raise ConfigInvalid(f"{path}: must be an integer >= {least}, got {value}")
    return value


def _n_q_from(cfg):
    n_q = _get(cfg, "n_q", int, 256)
    if n_q < diagnostics.MIN_N_Q or n_q % 2:
        raise ConfigInvalid(f"n_q: must be an even integer >= {diagnostics.MIN_N_Q}, got {n_q}")
    return n_q


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except json.JSONDecodeError as err:
        raise ConfigInvalid(f"config is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config root must be a JSON object")
    return cfg


def _kernel_from(cfg: dict):
    _get(cfg, "kernel", dict)
    dimension = _int_from(cfg, "kernel.dimension")
    preset = _get(cfg, "kernel.preset", str, None)
    if preset == "nn":
        return nearest_neighbor(dimension), {"preset": "nn", "dimension": dimension}
    if preset == "exp-decay":
        rate = _get(cfg, "kernel.rate", float)
        reach = _int_from(cfg, "kernel.range")
        try:
            kern = exp_decay(rate, reach, dimension)
        except ValueError as err:
            raise ConfigInvalid(f"kernel.rate: {err}") from None
        return kern, {
            "preset": "exp-decay", "dimension": dimension, "rate": rate, "range": reach}
    if preset is not None:
        raise ConfigInvalid(f"kernel.preset: unknown preset {preset!r}")
    entries = _get(cfg, "kernel.offsets", list)
    raw = {}
    for row, entry in enumerate(entries):
        path = f"kernel.offsets[{row}]"
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ConfigInvalid(f"{path}: expected [offset, weight]")
        _typed(entry[1], f"{path}[1]", float)       # checked, echoed as written
        z = _int_tuple(entry[0], f"{path}[0]")
        if z in raw:
            raise ConfigInvalid(f"{path}[0]: offset {list(z)} is given twice")
        raw[z] = entry[1]
    try:
        kern = build_kernel(dimension, raw)
    except ValueError as err:
        raise ConfigInvalid(f"kernel.offsets: {err}") from None
    return kern, {"dimension": dimension, "offsets": [[list(z), w] for z, w in raw.items()]}


def _geometry_from(cfg: dict, kernel):
    _get(cfg, "geometry", dict)
    kind = _get(cfg, "geometry.kind", str)
    if kind == "torus":
        extents = list(_int_tuple(_get(cfg, "geometry.extents", list), "geometry.extents"))
        try:
            torus = LatticeGeometry.torus(extents)
            check_torus_extents(kernel, torus)
        except ValueError as err:
            raise ConfigInvalid(f"geometry.extents: {err}") from None
        return torus, {"kind": "torus", "extents": extents}
    if kind == "box":
        sites = _sites_from(_get(cfg, "geometry.sites", list), "geometry.sites")
        box = _site_list("geometry.sites", LatticeGeometry.box, sites, kernel)
        return box, {"kind": "box", "sites": [list(s) for s in box.sites]}
    raise ConfigInvalid(f"geometry.kind: expected 'torus' or 'box', got {kind!r}")


def _interval_from(cfg: dict):
    pair = _get(cfg, "interval", list)
    if len(pair) != 2:
        raise ConfigInvalid("interval: expected [a, b]")
    a, b = (_typed(end, f"interval[{k}]", float) for k, end in enumerate(pair))
    try:
        interval = SpinInterval(a, b)
    except ValueError as err:
        raise ConfigInvalid(f"interval: {err}") from None
    return interval, [interval.a, interval.b]


def _boundary_from(cfg: dict, shell, interval):
    if "constant" in _get(cfg, "boundary", dict):
        path = "boundary.constant"
        given = _get(cfg, path, float)
    else:
        path, given = "boundary.values", {}
        for row, entry in enumerate(_get(cfg, path, list)):
            at = f"{path}[{row}]"
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ConfigInvalid(f"{at}: expected [site, value]")
            site = _int_tuple(entry[0], f"{at}[0]")
            if site in given:
                raise ConfigInvalid(f"{at}[0]: site {list(site)} is given twice")
            given[site] = _typed(entry[1], f"{at}[1]", float)
    try:
        gamma = _boundary_array(shell, given, interval)
    except (MissingSite, OutOfRange, GeometryMismatch) as err:
        raise ConfigInvalid(f"{path}: {err}") from None
    if isinstance(given, dict):
        return gamma, {"values": [[list(s), given[s]] for s in shell]}
    return gamma, {"constant": given}


def _volume_from(cfg: dict):
    return _sites_from(_get(cfg, "volume", list), "volume")


class _Setup:
    """The resolved parts every handler shares, and the config they echo.

    ``space`` is "geometry" for lattice subcommands and "volume" for
    finite-volume ones, which get the volume's matrices ``vh``.  The
    boundary lives on the shell of a box or of a volume; on a torus it is
    None.
    """

    def __init__(self, cfg, seed, space, interval=True, boundary=True):
        self._cfg = cfg
        self.kernel, kern_cfg = _kernel_from(cfg)
        self.geometry = self.vh = self.interval = self.boundary = None
        self._head = {"kernel": kern_cfg}
        if space == "geometry":
            self.geometry, self._head["geometry"] = _geometry_from(cfg, self.kernel)
            shell = self.geometry.shell
        else:
            self.vh = _site_list("volume", finite_spec.build_matrices, _volume_from(cfg),
                                 self.kernel)
            self._head["volume"] = [list(s) for s in self.vh.sites]
            shell = self.vh.shell
        if interval:
            self.interval, self._head["interval"] = _interval_from(cfg)
        self._head["seed"] = seed
        self._tail = {}
        if boundary:
            self._tail["boundary"] = None
            if shell:
                self.boundary, self._tail["boundary"] = _boundary_from(cfg, shell, self.interval)

    def config(self, **params) -> dict:
        """The echoed config: kernel, geometry or volume, interval, seed, the
        subcommand's own parameters, then the boundary.  A config field that
        the echo lacks was read by nothing and raises ConfigInvalid, so each
        handler takes its echo before it runs or writes anything."""
        echo = {**self._head, **params, **self._tail}
        _unknown_fields(self._cfg, echo)
        return echo


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _json_chunks(value, pad="\n"):
    """The text ``json.dumps(value, indent=2)`` writes, in pieces.

    numpy arrays and scalars are written as their Python values, tuples
    as lists.  ``pad`` is a newline and the indentation of ``value``.  A
    list of ints is one chunk (:func:`_int_list_text`), and so is a list of
    nonempty int lists, such as a list of sites; a bool or a numpy int
    among them sends the list down the general path.  A finite float array
    goes to :func:`_float_chunks`, which calls ``float.__repr__`` once per
    distinct bit pattern and still writes a row at a time; the CSV writer
    keeps its own per-row ``repr``.  Every other scalar (a float too:
    ``json`` writes it as ``float.__repr__``) and every key (a str in every
    payload) goes through ``json.dumps``, so escapes and the NaN and
    Infinity spellings are the standard library's.  A matrix is written a
    row at a time.
    """
    if isinstance(value, np.ndarray):
        if (value.dtype.kind == "f" and value.dtype.itemsize <= 8 and value.ndim
                and value.size and np.isfinite(value).all()):
            yield from _float_chunks(value.astype(np.float64, copy=False), pad)
            return
        value = value.tolist() if value.ndim < 2 else list(value)
    elif isinstance(value, tuple):
        value = list(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        head = "{" + inner
        for key, item in value.items():
            yield head + json.dumps(key) + ": "
            yield from _json_chunks(item, inner)
            head = "," + inner
        yield pad + "}"
    elif isinstance(value, list):
        if not value:
            yield "[]"
        elif all(type(x) is int for x in value):
            yield _int_list_text(value, pad)
        elif all(type(x) is list and x and all(type(y) is int for y in x) for x in value):
            yield "[" + inner + ("," + inner).join([_int_list_text(x, inner) for x in value]) \
                + pad + "]"
        else:
            head = "[" + inner
            for item in value:
                yield head
                yield from _json_chunks(item, inner)
                head = "," + inner
            yield pad + "]"
    else:
        if isinstance(value, np.generic):
            value = value.item()
        yield json.dumps(value)


def _int_list_text(value: list, pad: str) -> str:
    """The ``indent=2`` text of a nonempty list of ints, formatted in C by
    ``list.__repr__`` (which calls ``int.__repr__``, as ``json`` does; no
    such repr contains ", ")."""
    inner = pad + "  "
    return "[" + inner + list.__repr__(value)[1:-1].replace(", ", "," + inner) + pad + "]"


def _float_chunks(array: np.ndarray, pad: str):
    """The ``indent=2`` text of a finite float64 array of ``ndim >= 1`` and
    at least one entry, a row of the last axis at a time.

    The entries are keyed on their bits (so 0.0 and -0.0 stay apart), and
    each distinct key is formatted once.  The inverse of ``np.unique`` is
    reshaped here because its shape has changed across numpy releases.
    """
    keys, inverse = np.unique(array.view(np.int64), return_inverse=True)
    text = np.array(list(map(float.__repr__, keys.view(np.float64).tolist())), dtype=object)
    return _text_chunks(text[inverse.reshape(array.shape)], pad)


def _text_chunks(text: np.ndarray, pad: str):
    """An array of formatted entries as ``indent=2`` text, a row at a time."""
    inner = pad + "  "
    if text.ndim == 1:
        yield "[" + inner + ("," + inner).join(text.tolist()) + pad + "]"
        return
    head = "[" + inner
    for block in text:
        yield head
        yield from _text_chunks(block, inner)
        head = "," + inner
    yield pad + "]"


def _write_json(directory: Path, name: str, payload: dict):
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / name, "w") as handle:
        handle.writelines(_json_chunks(payload))
        handle.write("\n")


def _write_csv(directory: Path, name: str, header, values):
    """The header, then ``values`` row-major in rows of ``len(header)``,
    formatted in one pass: floats as ``float.__repr__``, ints as written."""
    text = map(repr, values)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / name, "w") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*[text] * len(header)))


def _site_column(site) -> str:
    return "site_" + "_".join(str(c) for c in site)


# ---------------------------------------------------------------------------
# Subcommand handlers return their JSON payload, "config" first and "pass"
# last where graded; main writes it.  Exit 0 iff "pass" is true or absent,
# 1 on a failed verdict or a raised error, 2 on config or I/O errors.
# ---------------------------------------------------------------------------

def _run_sandwich(cfg, out, seed):
    run = _Setup(cfg, seed, "geometry")
    sweeps = _int_from(cfg, "sweeps", 500)
    snapshot_every = _int_from(cfg, "snapshot_every", 0, least=0)
    config = run.config(sweeps=sweeps, snapshot_every=snapshot_every)
    trace = sampler.run_sandwich(run.geometry, run.kernel, run.interval, sweeps, seed,
                                 snapshot_every=snapshot_every, boundary=run.boundary)
    rows = zip(range(sweeps + 1), trace.sup_gap.tolist(), trace.mean_gap.tolist())
    _write_csv(out, "trace.csv", ["sweep", "sup_gap", "mean_gap"],
               [v for row in rows for v in row])
    return {
        "config": config,
        "initial_sup_gap": float(trace.sup_gap[0]),
        "final_sup_gap": float(trace.sup_gap[-1]),
        "final_mean_gap": float(trace.mean_gap[-1]),
        "snapshots": {str(s): g for s, g in sorted(trace.snapshots.items())},
        "order_repairs": trace.order_repairs,
        "max_inversion_frac": trace.max_inversion_frac,
    }


def _run_cftp(cfg, out, seed):
    run = _Setup(cfg, seed, "geometry")
    if run.geometry.kind != "box":
        raise ConfigInvalid("geometry.kind: cftp requires a box")
    sites = run.geometry.sites
    n_samples = _int_from(cfg, "n_samples", 1000)
    if len(sites) <= diagnostics.MAX_ORACLE_SITES and n_samples < diagnostics.KS_MIN_SAMPLES:
        raise ConfigInvalid(f"n_samples: the oracle checks of a box of at most "
                            f"{diagnostics.MAX_ORACLE_SITES} sites need at least "
                            f"{diagnostics.KS_MIN_SAMPLES}, got {n_samples}")
    eps = _get(cfg, "eps_coal", float, 1e-9)
    if not eps >= 0.0:     # a negative or NaN tolerance never coalesces, runs to t_cap
        raise ConfigInvalid(f"eps_coal: must be >= 0, got {eps}")
    t_cap = _int_from(cfg, "t_cap", 1 << 20, least=max(2, len(sites)))   # the first horizon
    n_q = _n_q_from(cfg)
    config = run.config(n_samples=n_samples, eps_coal=eps, t_cap=t_cap, n_q=n_q)

    samples = sampler.cftp_samples(run.geometry, run.kernel, run.interval, run.boundary,
                                   n_samples, seed, eps_coal=eps, t_cap=t_cap)
    _write_csv(out, "samples.csv", [_site_column(s) for s in sites], samples.ravel().tolist())

    verdicts = []
    ks_rows = []
    if len(sites) <= diagnostics.MAX_ORACLE_SITES:
        oracle = diagnostics.quadrature_marginals(
            finite_spec.build_matrices(sites, run.kernel), run.boundary, run.interval, n_q=n_q)
        # 0.02 is calibrated for 1e4 samples; below that use the 99.9%
        # one-sample KS critical value so small runs are not flagged by noise
        ks_threshold = max(0.02, 1.949 / np.sqrt(n_samples))
        for j, site in enumerate(sites):
            column = samples[:, j]
            se = float(column.std(ddof=1) / np.sqrt(n_samples))
            verdicts.append(diagnostics._verdict(
                f"mean[{_site_column(site)}]", float(column.mean()), se,
                float(oracle.means[j])).as_dict())
            distance = diagnostics.ks_distance(column, oracle.grid, oracle.marginal_cdfs[j])
            ks_rows.append({"name": f"ks[{_site_column(site)}]", "distance": distance,
                            "threshold": ks_threshold, "pass": distance < ks_threshold})
    return {
        "config": config,
        "mean_verdicts": verdicts, "ks": ks_rows,
        "pass": all(v["pass"] for v in verdicts) and all(r["pass"] for r in ks_rows),
    }


def _run_ident4(cfg, out, seed):
    run = _Setup(cfg, seed, "geometry", boundary=False)
    if run.geometry.kind != "torus":
        raise ConfigInvalid("geometry.kind: ident4 requires a torus")
    burn_in = _int_from(cfg, "burn_in", 1000, least=0)
    sweeps = _int_from(cfg, "sweeps", 10000, least=2)     # batch means need 2 samples
    batches = _int_from(cfg, "batches", 32)
    start = _get(cfg, "start", str, "midpoint")
    if start not in ("midpoint", "lower", "upper"):
        raise ConfigInvalid(f"start: expected 'midpoint', 'lower' or 'upper', got {start!r}")
    config = run.config(burn_in=burn_in, sweeps=sweeps, batches=batches, start=start)

    trace = sampler.stationary_run(run.geometry, run.kernel, run.interval, seed,
                                   burn_in, sweeps, start=start)
    shift = diagnostics.stationarity_check(trace, batches=batches)
    return {
        "config": config,
        "verdicts": [shift.as_dict()],
        "pass": shift.passed,
    }


def _run_spec_check(cfg, out, seed):
    run = _Setup(cfg, seed, "volume")
    trials = _int_from(cfg, "identity_trials", 100)
    config = run.config(identity_trials=trials)
    vh = run.vh
    spec = finite_spec.specification(vh, run.boundary, run.interval)
    worst = 0.0
    for xi in uniform_configurations(seed, "spec-check", run.interval,
                                     vh.n_sites + len(vh.shell), trials):
        direct = finite_spec.hamiltonian(vh, xi)
        quad = finite_spec.quadratic_form(vh, xi[:vh.n_sites], xi[vh.n_sites:])
        worst = max(worst, abs(direct - quad))
    return {
        "config": config,
        "sites": [list(s) for s in vh.sites], "shell": [list(s) for s in vh.shell],
        "precision": vh.precision, "cross": vh.cross,
        "mean": spec.mean, "covariance": spec.covariance,
        "quadratic_vs_pairsum_max": worst, "solve_residual": spec.solve_residual,
        "pass": worst <= 1e-10,
    }


def _run_pd_check(cfg, out, seed):
    run = _Setup(cfg, seed, "volume", interval=False, boundary=False)
    config = run.config()
    vh = run.vh
    cert = finite_spec.pd_certificate(vh)
    residual = float(np.max(np.abs(cert.reassemble() - vh.precision)))
    min_eig = float(np.linalg.eigvalsh(vh.precision).min())
    return {
        "config": config,
        "slack": cert.slack,
        "terms": [{"offset": list(z), "weight": w,
                   "classes": [[list(s) for s in chain] for chain in classes]}
                  for z, w, classes in cert.terms],
        "reassembly_residual": residual,
        "min_eigenvalue": min_eig,
        "pass": residual <= 1e-14 and min_eig > 0.0,
    }


def _run_beta_check(cfg, out, seed):
    run = _Setup(cfg, seed, "volume", boundary=False)
    betas = [_typed(b, f"betas[{k}]", float)
             for k, b in enumerate(_get(cfg, "betas", list, [0.25, 1.0, 2.5, 10.0]))]
    trials = _int_from(cfg, "trials", 100)
    config = run.config(betas=betas, trials=trials)
    try:
        residuals = transforms.beta_scaling_check(run.vh, run.interval, betas, trials, seed=seed)
    except (NonpositiveBeta, OutOfRange) as err:      # each message starts with betas[k]
        raise ConfigInvalid(str(err)) from None
    rows = [{"beta": beta, "max_residual": residual, "pass": residual <= 1e-10}
            for beta, residual in zip(betas, residuals)]
    return {
        "config": config,
        "results": rows, "pass": all(r["pass"] for r in rows),
    }


def _run_af_probe(cfg, out, seed):
    run = _Setup(cfg, seed, "volume")
    trials = _int_from(cfg, "trials", 100)
    partition = _get(cfg, "partition", str, "parity")
    if partition != "parity":
        raise ConfigInvalid(f"partition: expected 'parity', got {partition!r}")
    config = run.config(trials=trials, partition=partition)
    report = transforms.af_specification_probe(run.vh, run.boundary, run.interval,
                                               trials, seed=seed)
    return {     # measurement only; no correctness assertion, so no "pass"
        "config": config,
        "deltas": report.deltas, "mean": report.mean, "spread": report.spread,
    }


def _run_oracle_check(cfg, out, seed):
    run = _Setup(cfg, seed, "volume")
    if run.vh.n_sites > diagnostics.MAX_ORACLE_SITES:
        raise ConfigInvalid(f"volume: the quadrature oracle takes at most "
                            f"{diagnostics.MAX_ORACLE_SITES} sites, "
                            f"got {run.vh.n_sites}")
    n_q = _n_q_from(cfg)
    config = run.config(n_q=n_q)
    law = (run.vh, run.boundary, run.interval)
    oracle = diagnostics.quadrature_marginals(*law, n_q=n_q)
    refined = diagnostics.quadrature_marginals(*law, n_q=2 * n_q)
    mean_shift = float(np.max(np.abs(refined.means - oracle.means)))
    z_shift = abs(refined.normalizer - oracle.normalizer) / oracle.normalizer
    payload = {
        "config": config,
        "quadrature_means": oracle.means,
        "normalizer": oracle.normalizer,
        "refinement_mean_shift": mean_shift,
        "refinement_z_shift": z_shift,
    }
    if run.vh.n_sites == 1:
        tn = truncnorm.TruncatedNormal(float((run.vh.cross @ run.boundary)[0]), run.interval)
        closed = truncnorm.mean(tn)
        payload["closed_form_mean"] = closed
        payload["closed_form_difference"] = abs(closed - float(oracle.means[0]))
    payload["pass"] = (mean_shift < 1e-6 and z_shift < 1e-8
                       and payload.get("closed_form_difference", 0.0) <= 1e-8)
    return payload


_HANDLERS = {            # subcommand: (handler, JSON artifact name)
    "sandwich": (_run_sandwich, "summary.json"),
    "cftp": (_run_cftp, "verdicts.json"),
    "ident4": (_run_ident4, "verdicts.json"),
    "spec-check": (_run_spec_check, "spec.json"),
    "pd-check": (_run_pd_check, "certificate.json"),
    "beta-check": (_run_beta_check, "beta.json"),
    "af-probe": (_run_af_probe, "af_probe.json"),
    "oracle-check": (_run_oracle_check, "oracle.json"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="truncgibbs",
        description="Experiment runner for bounded-spin Gaussian lattice fields")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed from the config")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
        handler, name = _HANDLERS[args.subcommand]
        payload = handler(cfg, args.out, seed)
        _write_json(args.out, name, {"subcommand": args.subcommand, **payload})
    except ConfigInvalid as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2
    except Exception as err:                     # module errors, with context
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0 if payload.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
