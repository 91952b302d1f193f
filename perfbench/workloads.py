"""Seeded op lists, op execution and correctness gates for the workloads.

One op is one unit of user work.  For `oracle`, `zeta` and `lossy` it is
one scenario config validated and run to CSV in-process
(``cli.validate_config`` + ``cli.run_scenario``); for `measure` it is one
library call chain ``lossy_probe -> qfi_mixed -> optimal_povm ->
fisher_information``.

Ops come in blocks.  Every block of a workload holds one op of each
stratum (a set of basis sizes and row counts), in a fixed order, with
seeded coefficients, angles and config seeds, so a run that measures
whole blocks does the same amount of work for every workload seed; only
the inputs differ.  The order is the same for every seed: with a
seeded order, whole `oracle` runs were up to a third slower or faster
from seed to seed, every op alike and the same way on a rerun.  This module
imports numpy but not metrolab: op lists are made before the program is
loaded and reach it only as configs and arrays.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

WORKLOADS = ("oracle", "zeta", "lossy", "measure")

# Seconds one block takes on the reference machine (2 vCPU x86-64 VM,
# OpenBLAS on one thread).  A run measures a fixed number of whole
# blocks, so that it measures about --seconds there; a fixed count keeps
# sample counts, and so percentiles, the same from run to run.
BLOCK_SECONDS = {"oracle": 4.0, "zeta": 4.0, "lossy": 7.5, "measure": 1.25}
# Fresh worker processes a run splits its blocks among.  The same op ran
# up to a fifth faster or slower from one process to the next, and alike
# within one, so a run takes each stratum's median over processes.
# `lossy`, bound by dense eigen-solves, varied least and has the most
# costly warm-up op, so it keeps one process.
WORKERS = {"oracle": 3, "zeta": 3, "lossy": 1, "measure": 3}

ORACLE_N_MAX = 60
ORACLE_CASES = 2
# Every other size of 12..20, so that one block per process fits a run.
ZETA_SIZES = range(12, 21, 2)
ZETA_GRID = 16
# (n_total, kappas per op): every size and both kappa counts, in a block
# short enough that a run measures two of them.
LOSSY_OPS = ((10, 2), (11, 3), (12, 2))
MEASURE_SIZES = range(5, 9)

ORACLE_ATOL = 1e-10
ZETA_RTOL = 1e-9
LOSSY_MONOTONE_ATOL = 1e-8
MEASURE_FI_ATOL = 1e-6
MEASURE_RATIO = (0.999, 1.001)


def oracle_case_sizes(config_seed: int, num_cases: int = ORACLE_CASES,
                      n_max: int = ORACLE_N_MAX) -> list[int]:
    """Photon numbers the variance-oracle scenario draws for a config seed.

    Mirrors the scenario's draw order (size, two normal vectors, two
    angles per case), which is fixed because its CSV must stay
    byte-identical for a given seed.  Used only to balance blocks; the
    correctness gate does not depend on it.
    """
    rng = np.random.default_rng(config_seed)
    sizes = []
    for _ in range(num_cases):
        n = int(rng.integers(1, n_max + 1))
        rng.standard_normal(n + 1)
        rng.standard_normal(n + 1)
        rng.uniform()
        rng.uniform()
        sizes.append(n)
    return sizes


def _oracle_blocks(rng, count: int) -> list[list[dict]]:
    # Each op's two cases are the photon numbers (k, 61 - k), k = 1..30, so
    # a block covers n = 1..60 once and every block has the same op costs.
    # Pairing small with large keeps op costs within a factor of four, so
    # the median op is not balanced between two far-apart costs.  Config
    # seeds are searched until each pair has one per block.
    pairs = {(k, ORACLE_N_MAX + 1 - k): [] for k in range(1, ORACLE_N_MAX // 2 + 1)}
    while any(len(found) < count for found in pairs.values()):
        config_seed = int(rng.integers(0, 2**62))
        found = pairs.get(tuple(sorted(oracle_case_sizes(config_seed))))
        if found is not None and len(found) < count:
            found.append(config_seed)
    keys = list(pairs)
    blocks = []
    for b in range(count):
        block = []
        for low, high in keys:
            config_seed = pairs[low, high][b]
            block.append({
                "kind": "cli",
                "stratum": f"n={low},{high}",
                "config": {
                    "scenario": "variance-oracle",
                    "params": {"num_cases": ORACLE_CASES, "n_max": ORACLE_N_MAX,
                               "seed": config_seed},
                },
                "basis": [2, high],
                "rows": ORACLE_CASES,
            })
        blocks.append(block)
    return blocks


def _zeta_block(rng) -> list[dict]:
    ops = []
    for n_total in ZETA_SIZES:
        coeffs = rng.standard_normal(n_total // 2 + 1)
        ops.append({
            "kind": "cli",
            "config": {
                "scenario": "zeta-optimize",
                "params": {"n_total": n_total, "grid_points": ZETA_GRID,
                           "coeffs": [float(c) for c in coeffs]},
            },
            "stratum": f"n={n_total}",
            "basis": [3, n_total],
            "rows": ZETA_GRID,
        })
    return ops


def _lossy_block(rng) -> list[dict]:
    ops = []
    for n_total, count in LOSSY_OPS:
        kappas = np.sort(rng.uniform(0.0, math.pi / 2, count))
        ops.append({
            "kind": "cli",
            "config": {
                "scenario": "lossy-sweep",
                "params": {"n_total": n_total, "probe": "correlated", "probe_mode": 0,
                           "kappas": [float(k) for k in kappas]},
            },
            "stratum": f"n={n_total},kappas={count}",
            "basis": [4, n_total],
            "rows": count,
        })
    return ops


def _measure_block(rng) -> list[dict]:
    ops = []
    for n_total in MEASURE_SIZES:
        n1, n2 = np.meshgrid(np.arange(n_total + 1), np.arange(n_total + 1), indexing="ij")
        inside = n1 + n2 <= n_total
        shape = (n_total + 1, n_total + 1)
        coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * inside
        coeffs /= np.linalg.norm(coeffs)
        ops.append({
            "kind": "measure",
            "n_total": n_total,
            "coeffs_re": coeffs.real.tolist(),
            "coeffs_im": coeffs.imag.tolist(),
            "probe_mode": int(rng.integers(0, 3)),
            "kappa": float(rng.uniform(0.2, math.pi / 2)),
            "beta": float(rng.uniform(0.2, math.pi - 0.2)),
            "phi": float(rng.uniform(0.0, 2 * math.pi)),
            "stratum": f"n={n_total}",
            "basis": [4, n_total],
            "rows": 1,
        })
    return ops


def _each(make_block):
    return lambda rng, count: [make_block(rng) for _ in range(count)]


_BLOCK_MAKERS = {
    "oracle": _oracle_blocks,
    "zeta": _each(_zeta_block),
    "lossy": _each(_lossy_block),
    "measure": _each(_measure_block),
}


def block_count(workload: str, seconds: float) -> int:
    """Whole blocks a run of `seconds` measures: at least one per worker
    process, and the same number for each."""
    workers = WORKERS[workload]
    return workers * max(1, int(seconds // (workers * BLOCK_SECONDS[workload])))


def make_blocks(workload: str, seed: int, count: int) -> list[list[dict]]:
    """The op list of a workload: `count` blocks made from `seed` alone.

    Every block holds one op of each stratum.
    """
    if workload not in _BLOCK_MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    return _BLOCK_MAKERS[workload](rng, count)


def largest_op(block: list[dict]) -> dict:
    """The op of a block with the largest basis (then the most rows).

    Workers run it once, untimed, before the loop: the heap then holds
    what the largest op needs, so timed ops do not grow it.
    """
    return max(block, key=lambda op: (op["basis"][1], op["rows"]))


# ---------------------------------------------------------------------------
# execution (timed) and correctness gates (untimed)


def prepare(op: dict, output_path: str) -> dict:
    """The op with its program input built, so that timing covers only the program."""
    if op["kind"] == "cli":
        return {**op, "text": json.dumps({**op["config"], "output": output_path})}
    return {**op, "coeffs": np.asarray(op["coeffs_re"]) + 1j * np.asarray(op["coeffs_im"])}


def execute(op: dict, ml, stream):
    """Run one prepared op against the metrolab package `ml`; returns its raw result."""
    if op["kind"] == "cli":
        config = ml.cli.validate_config(op["text"])
        return ml.cli.run_scenario(config, stream=stream)
    probe = ml.general_probe(op["coeffs"], op["n_total"])
    rho = ml.lossy_probe(probe, op["probe_mode"], op["kappa"])
    gen = ml.schwinger_j(rho.basis, ml.PairAxis(0, 2, beta=op["beta"], phi=op["phi"]))
    qfi = ml.qfi_mixed(rho, gen).qfi
    povm = ml.optimal_povm(rho, gen)
    fi = ml.fisher_information(rho, gen, povm, kappa0=0.0, method="central")
    return qfi, fi


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        if handle.readline().rstrip("\n") != "# schema=1":
            raise ValueError("missing '# schema=1' line")
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]


def _notes(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = float(value)
    return out


def check(op: dict, result, output_path: str, stream_text: str) -> tuple[int, str | None]:
    """Correctness gate: (rows produced, None) or (0, reason it failed)."""
    if op["kind"] == "measure":
        qfi, fi = result
        lo, hi = MEASURE_RATIO
        if not (math.isfinite(qfi) and math.isfinite(fi) and qfi > 0):
            return 0, f"non-finite or non-positive QFI/FI: qfi={qfi!r} fi={fi!r}"
        if fi > qfi + MEASURE_FI_ATOL or not lo <= fi / qfi <= hi:
            return 0, f"FI {fi!r} vs QFI {qfi!r} outside the optimality gate"
        return 1, None

    if result != 0:
        return 0, f"run_scenario returned {result!r}"
    rows = _read_csv(output_path)
    params = op["config"]["params"]
    scenario = op["config"]["scenario"]
    if len(rows) != op["rows"]:
        return 0, f"{len(rows)} rows, expected {op['rows']}"
    if scenario == "variance-oracle":
        worst = max(row["abs_diff"] for row in rows)
        if not worst <= ORACLE_ATOL:
            return 0, f"abs_diff {worst!r} above {ORACLE_ATOL}"
    elif scenario == "zeta-optimize":
        notes = _notes(stream_text)
        z_opt, v_max, v_perp = notes["zeta_opt"], notes["var_max"], notes["var_perp"]
        # Relative to the grid's peak 4*var_max: where the closed form is
        # ~0 (var_perp vanishes for n0 = n1 probes) only roundoff is left.
        scale = 4.0 * max(v_max, v_perp)
        for row in rows:
            d = row["zeta"] - z_opt
            want = 4.0 * (v_max * math.cos(d) ** 2 + v_perp * math.sin(d) ** 2)
            if not abs(row["qfi"] - want) <= ZETA_RTOL * max(scale, abs(want)):
                return 0, f"qfi {row['qfi']!r} at zeta {row['zeta']!r}, closed form {want!r}"
    elif scenario == "lossy-sweep":
        kappas = [row["kappa"] for row in rows]
        qfis = [row["qfi"] for row in rows]
        if kappas != params["kappas"]:
            return 0, "kappa column differs from the config"
        if not all(math.isfinite(q) and q >= 0 for q in qfis):
            return 0, f"QFI not finite and non-negative: {qfis!r}"
        if any(b > a + LOSSY_MONOTONE_ATOL for a, b in zip(qfis, qfis[1:])):
            return 0, f"QFI grows with kappa: {qfis!r}"
    return len(rows), None
