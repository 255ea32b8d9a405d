"""The four benchmark workloads: configs made from a seed, and output checks.

Each workload is a fixed list of subcommand calls.  Configs depend only on
the seed; the program sees nothing but the JSON files written from them.
Why each workload exists, and which layers it bypasses, is in NOTES.md.
"""

from __future__ import annotations

import csv
import json

NN1 = {"preset": "nn", "dimension": 1}
NN2 = {"preset": "nn", "dimension": 2}
EXP2 = {"preset": "exp-decay", "dimension": 2, "rate": 0.5, "range": 2}
BOX3 = [[0], [1], [2]]
BOX3_BOUNDARY = {"values": [[[-1], 0.0], [[3], 1.0]]}
VOLUME_20x20 = [[i, j] for i in range(20) for j in range(20)]

SANDWICH_SWEEPS = 200
IDENT4_BURN_IN, IDENT4_SWEEPS, IDENT4_SITES = 500, 4000, 64
CFTP_REPLICAS = 20_000


def calls(workload: str, seed: int):
    """The (subcommand, config) pairs one pass of the workload runs."""
    if workload == "sandwich-2d":
        return [("sandwich", {
            "kernel": NN2, "geometry": {"kind": "torus", "extents": [32, 32]},
            "interval": [0.0, 1.0], "seed": seed, "sweeps": SANDWICH_SWEEPS})]
    if workload == "ident4-wide":
        return [("ident4", {
            "kernel": NN1, "geometry": {"kind": "torus", "extents": [IDENT4_SITES]},
            "interval": [0.0, 10.0], "seed": seed,
            "burn_in": IDENT4_BURN_IN, "sweeps": IDENT4_SWEEPS})]
    if workload == "cftp-oracle":
        return [("cftp", {
            "kernel": NN1, "geometry": {"kind": "box", "sites": BOX3},
            "interval": [0.0, 1.0], "seed": seed, "boundary": BOX3_BOUNDARY,
            "n_samples": CFTP_REPLICAS, "n_q": 256})]
    if workload == "exact-2d":
        volume = {"volume": VOLUME_20x20, "interval": [0.0, 1.0], "seed": seed,
                  "boundary": {"constant": 0.5}}
        return [
            ("spec-check", dict(volume, kernel=EXP2)),
            ("pd-check", dict(volume, kernel=EXP2)),
            ("beta-check", dict(volume, kernel=EXP2)),
            # exp-decay at range 2 couples sites of equal parity, so the
            # bipartite reflection probe runs with the nearest-neighbour kernel
            ("af-probe", dict(volume, kernel=NN2)),
            ("oracle-check", {"kernel": NN1, "volume": BOX3, "interval": [0.0, 1.0],
                              "seed": seed, "boundary": BOX3_BOUNDARY, "n_q": 128}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sandwich-2d", "ident4-wide", "cftp-oracle", "exact-2d")

# ident4-wide and cftp-oracle end in three-sigma verdicts, which by design
# fail by chance on about one seed in a hundred.  A run's --seed therefore
# picks its program seed from 0-99 less the seeds that fail so at the
# commit this benchmark was written against.  The list holds only for that
# commit's chain trajectories: a change that moves them (even by an ulp)
# moves the chance failures too, and the list must be scanned again
# (NOTES.md says how).
CHANCE_FAILURES = {81: "cftp-oracle mean[site_0] z = -3.52",
                   87: "ident4-wide mean_shift_zero z = -3.29"}
PROGRAM_SEEDS = tuple(s for s in range(100) if s not in CHANCE_FAILURES)


def program_seed(seed: int) -> int:
    return PROGRAM_SEEDS[seed % len(PROGRAM_SEEDS)]


# Work per pass in each workload's own unit, known from its configs.
UPDATES_PER_PASS = {
    "sandwich-2d": SANDWICH_SWEEPS * 32 * 32,
    "ident4-wide": (IDENT4_BURN_IN + IDENT4_SWEEPS) * IDENT4_SITES,
}
SAMPLES_PER_PASS = {"cftp-oracle": CFTP_REPLICAS}

PAYLOADS = {
    "sandwich": "summary.json", "cftp": "verdicts.json", "ident4": "verdicts.json",
    "spec-check": "spec.json", "pd-check": "certificate.json", "beta-check": "beta.json",
    "af-probe": "af_probe.json", "oracle-check": "oracle.json",
}


def check(subcommand: str, config: dict, exit_code: int, out_dir) -> list:
    """Reasons the call's output is wrong; empty when it passed every check."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    path = out_dir / PAYLOADS[subcommand]
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as err:
        return [f"unreadable payload {path.name}: {err}"]
    problems = []
    if subcommand == "sandwich":
        if not payload.get("final_sup_gap", 1.0) <= 1e-9:
            problems.append(f"final_sup_gap {payload.get('final_sup_gap')} > 1e-9")
        with open(out_dir / "trace.csv", newline="") as handle:
            rows = sum(1 for _ in csv.reader(handle)) - 1
        if rows != config["sweeps"] + 1:
            problems.append(f"trace.csv has {rows} rows, want {config['sweeps'] + 1}")
    elif subcommand != "af-probe":    # af-probe measures and asserts nothing
        if payload.get("pass") is not True:
            problems.append(f"{path.name} does not report pass: true")
    return problems
