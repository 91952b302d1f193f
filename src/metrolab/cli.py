"""Scenario runner: named experiments with JSON config and CSV output.

Usage:
    metrolab run --config cfg.json [--seed 7] [--output out.csv]
    metrolab list-scenarios
    metrolab validate --config cfg.json

A config is a JSON document {"scenario": ..., "params": {...},
"output": ...}.  CLI flags override config fields.  Output is a CSV
file with a "# schema=1" comment line, floats printed to 17 significant
digits, UTF-8, LF line endings; identical config and seed reproduce the
file byte for byte, at any BLAS thread count.  The environment variable
METROLAB_MAX_DIM (a positive integer, default 4096) caps the basis
dimension a scenario may request.  Non-finite numbers in the config are
rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import reprlib
import sys
from dataclasses import dataclass, field

import numpy as np

from .fock import NORM_ATOL, FockBasis, PureState, build_basis, fidelity
from .operators import PairAxis, number_op, schwinger_j
from .states import (
    coherent_cutoff,
    coherent_truncated,
    correlated_three_mode,
    cv_cat,
    noon,
    rotated_fock,
    two_mode_fixed_n,
    with_reference,
)
from .metrology import jn_variance_closed_form, qfi_mixed, qfi_pure, variance
from .optimize import loss_channel, optimal_zeta, sweep_qfi_vs_zeta

SCHEMA_LINE = "# schema=1"
DEFAULT_MAX_DIM = 4096
MAX_N = 60
DEFAULT_SEED = 0


class ConfigError(ValueError):
    """Carries every validation error found, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ScenarioConfig:
    scenario: str
    params: dict = field(default_factory=dict)
    output_path: str = ""

    def __post_init__(self):
        if not self.output_path:
            self.output_path = f"{self.scenario}.csv"


def max_dim() -> int:
    raw = os.environ.get("METROLAB_MAX_DIM", "")
    if not raw:
        return DEFAULT_MAX_DIM
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigError([f"METROLAB_MAX_DIM: expected a positive integer, got {raw!r}"])
    return int(raw)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _why(exc: Exception) -> str:
    """Why a file could not be opened, read or written, without the path that str(exc) repeats."""
    if isinstance(exc, UnicodeError):
        return f"not valid {exc.encoding}: {exc.reason}"
    return getattr(exc, "strerror", None) or str(exc)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(SCHEMA_LINE + "\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# parameter validation


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError([f"non-finite number {text} is not allowed"])
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:  # more digits than int() converts
        raise ConfigError([f"integer literal with {len(text)} digits is not allowed"]) from exc


def _cut(key: str, limit: int = 40) -> str:
    """A config key for an error line, cut to `limit` characters."""
    return key if len(key) <= limit else key[: limit - 3] + "..."


def _checked(params, name, spec, errors):
    """params[name] checked against spec, or None after recording why not.

    A spec (kind, lo, hi, default), kind int or float, asks for a kind
    with lo <= value <= hi, or a non-empty list of them when the default
    is a list.  A tuple of strings is a choice; its first entry is the
    default.  An absent or null parameter takes the default.  Bounds are
    compared before float() is called, so an integer too large for a
    float is out of range, not an overflow.  An error message echoes the
    value through reprlib, so it stays short however large the value is.
    """
    value = params.get(name)
    if isinstance(spec[0], str):
        if value is None:
            return spec[0]
        if value in spec:
            return value
        choices = ", ".join(map(repr, spec))
        errors.append(f"params.{name}: expected one of {choices}, got {reprlib.repr(value)}")
        return None
    kind, lo, hi, default = spec
    listed = isinstance(default, list)
    types, noun = ((int, float), "a number") if kind is float else (int, "an integer")
    if value is None:
        return list(default) if listed else default
    if listed and (not isinstance(value, list) or not value):
        errors.append(f"params.{name}: expected a non-empty list")
        return None
    out = []
    for k, item in enumerate(value if listed else [value]):
        where = f"params.{name}[{k}]" if listed else f"params.{name}"
        if isinstance(item, bool) or not isinstance(item, types):
            errors.append(f"{where}: expected {noun}, got {reprlib.repr(item)}")
            return None
        if not lo <= item <= hi:
            errors.append(f"{where}: must be in [{lo}, {hi}], got {reprlib.repr(item)}")
            return None
        out.append(kind(item))
    return out if listed else out[0]


def _check_dim(num_modes: int, n_total: int, errors) -> None:
    dim = FockBasis(num_modes, n_total).dim
    cap = max_dim()
    if dim > cap:
        errors.append(
            f"basis dimension {dim} ({num_modes} modes, cutoff {n_total}) "
            f"exceeds the cap {cap} (override with METROLAB_MAX_DIM)"
        )


# ---------------------------------------------------------------------------
# scenarios: each one's runner, and its checks that span several parameters


def _run_noon_scaling(params, rng):
    rows = []
    for n in params["n_values"]:
        state = noon(n)
        jz = schwinger_j(state.basis, PairAxis(0, 1, beta=0.0))
        rows.append((n, qfi_pure(state, jz).qfi))
    return ["n", "qfi"], rows, []


def _validate_noon_scaling(params, errors):
    _check_dim(2, max(params["n_values"]), errors)


def _run_cat_vs_noon(params, rng):
    rows = []
    for alpha in params["alphas"]:
        cutoff = coherent_cutoff(alpha)
        cat = cv_cat(alpha, cutoff)
        probs = np.abs(cat.amplitudes) ** 2
        nbar = float(probs @ np.arange(cutoff + 1))
        qfi_cat = qfi_pure(cat, number_op(cat.basis, 0)).qfi
        n_noon = max(1, round(nbar))
        rows.append((alpha, nbar, qfi_cat, n_noon, float(n_noon) ** 2))
    return ["alpha", "cat_nbar", "cat_qfi", "noon_n", "noon_qfi"], rows, []


def _validate_cat_vs_noon(params, errors):
    _check_dim(1, coherent_cutoff(max(params["alphas"])), errors)


def _run_cv_convergence(params, rng):
    alpha = params["alpha"]
    rows = []
    for n in params["n_values"]:
        theta = 2.0 * math.asin(alpha / math.sqrt(n))
        probe = rotated_fock(n, theta, 0.0)
        target = with_reference(coherent_truncated(alpha, coherent_cutoff(alpha)), n)
        rows.append((n, theta, 1.0 - fidelity(probe, target)))
    return ["n", "theta", "infidelity"], rows, []


def _validate_cv_convergence(params, errors):
    alpha, smallest = params["alpha"], min(params["n_values"])
    if alpha * alpha > smallest:
        errors.append(
            f"params.alpha: alpha^2 = {alpha * alpha:.6g} exceeds the smallest "
            f"n_value {smallest}; sin(theta/2) would leave [0, 1]"
        )


def _run_zeta_optimize(params, rng):
    n_total = params["n_total"]
    coeffs = params.get("coeffs")
    size = n_total // 2 + 1
    if not coeffs:
        raw = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    else:
        raw = np.asarray(coeffs, dtype=complex)
    raw = raw / np.linalg.norm(raw)
    state = correlated_three_mode(raw, n_total)
    result = optimal_zeta(state)
    grid = np.linspace(0.0, math.pi, params["grid_points"], endpoint=False)
    rows = [(z, q) for z, q in sweep_qfi_vs_zeta(state, grid)]
    notes = [
        f"zeta_opt = {_fmt(result.zeta_opt)}",
        f"var_max = {_fmt(result.var_max)}",
        f"var_perp = {_fmt(result.var_perp)}",
    ]
    return ["zeta", "qfi"], rows, notes


def _validate_zeta_optimize(params, errors):
    n_total, coeffs = params["n_total"], params["coeffs"]
    _check_dim(3, n_total, errors)
    if not coeffs:
        return
    size = n_total // 2 + 1
    if len(coeffs) != size:
        errors.append(f"params.coeffs: expected a list of {size} numbers")
        return
    raw = np.asarray(coeffs, dtype=complex)
    with np.errstate(all="ignore"):  # the runner's normalization must give a unit vector
        unit = raw / np.linalg.norm(raw)
    if not abs(np.linalg.norm(unit) - 1.0) <= NORM_ATOL:
        errors.append(
            "params.coeffs: cannot be normalized (all zero, or the norm under- or overflows)"
        )


def _run_lossy_sweep(params, rng):
    n_total = params["n_total"]
    basis = build_basis(3, n_total)
    if params["probe"] == "noon":
        amp = np.zeros(basis.dim, dtype=complex)
        amp[basis.rank([[n_total, 0, 0], [0, n_total, 0]])] = 1 / math.sqrt(2)
        probe = PureState(basis, amp)
    else:
        size = n_total // 2 + 1
        probe = correlated_three_mode(np.full(size, 1 / math.sqrt(size)), n_total)
    jz = schwinger_j(basis, PairAxis(0, 2, beta=0.0))
    rows = [
        (kappa, qfi_mixed(loss_channel(probe, params["probe_mode"], kappa), jz).qfi)
        for kappa in params["kappas"]
    ]
    return ["kappa", "qfi"], rows, []


def _validate_lossy_sweep(params, errors):
    _check_dim(3, params["n_total"], errors)


def _run_variance_oracle(params, rng):
    rows = []
    for case in range(params["num_cases"]):
        n_total = int(rng.integers(1, params["n_max"] + 1))
        raw = rng.standard_normal(n_total + 1) + 1j * rng.standard_normal(n_total + 1)
        coeffs = raw / np.linalg.norm(raw)
        beta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        closed = jn_variance_closed_form(coeffs, n_total, beta, phi)
        state = two_mode_fixed_n(coeffs, n_total)
        matrix = variance(state, schwinger_j(state.basis, PairAxis(0, 1, beta=beta, phi=phi)))
        rows.append((case, n_total, beta, phi, closed, matrix, abs(closed - matrix)))
    header = ["case", "n", "beta", "phi", "closed_form", "matrix", "abs_diff"]
    return header, rows, []


def _validate_variance_oracle(params, errors):
    _check_dim(2, params["n_max"], errors)


_SEED_SPEC = (int, 0, math.inf, DEFAULT_SEED)

# name: (runner, {parameter: spec}, cross-parameter checks, description);
# every scenario also takes "seed" (_SEED_SPEC).
SCENARIOS = {
    "noon-scaling": (
        _run_noon_scaling,
        {"n_values": (int, 1, MAX_N, list(range(1, 9)))},
        _validate_noon_scaling,
        "QFI of NOON probes under Jz; exhibits the N^2 scaling",
    ),
    "cat-vs-noon": (
        _run_cat_vs_noon,
        {"alphas": (float, 0.1, 6.0, [1.0, 2.0, 3.0])},
        _validate_cat_vs_noon,
        "cat-state QFI under the number operator next to the matched NOON value",
    ),
    "cv-convergence": (
        _run_cv_convergence,
        {"alpha": (float, 0.1, 4.0, 1.0), "n_values": (int, 1, 400, [10, 40, 160])},
        _validate_cv_convergence,
        "infidelity of the rotated Fock probe against a reference-embedded coherent state",
    ),
    "zeta-optimize": (
        _run_zeta_optimize,
        {
            "n_total": (int, 1, MAX_N, 8),
            "grid_points": (int, 1, 100_000, 64),
            # empty: the coefficients are drawn from the seed
            "coeffs": (float, -sys.float_info.max, sys.float_info.max, []),
        },
        _validate_zeta_optimize,
        "closed-form optimal weight angle plus an operator-route sweep",
    ),
    "lossy-sweep": (
        _run_lossy_sweep,
        {
            "n_total": (int, 1, MAX_N, 3),
            "probe": ("noon", "correlated"),
            "probe_mode": (int, 0, 2, 0),
            "kappas": (float, 0.0, math.pi, [k * math.pi / 16 for k in range(9)]),
        },
        _validate_lossy_sweep,
        "mixed-state QFI of a three-mode probe under photon loss on one mode, per kappa",
    ),
    "variance-oracle": (
        _run_variance_oracle,
        {"num_cases": (int, 1, 10_000, 200), "n_max": (int, 1, MAX_N, 30)},
        _validate_variance_oracle,
        "closed-form J_n variance against the operator computation on random states",
    ),
}


def validate_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON config, collecting every error found."""
    try:
        doc = json.loads(text, parse_float=_finite, parse_int=_integer, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except RecursionError as exc:
        raise ConfigError(["syntax error: arrays or objects nested too deeply"]) from exc

    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["config must be a JSON object"])

    scenario = doc.get("scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigError(
            [
                f"scenario: {reprlib.repr(scenario)} is not recognized; valid scenarios: "
                + ", ".join(sorted(SCENARIOS))
            ]
        )

    params = doc.get("params", {})
    if not isinstance(params, dict):
        errors.append("params: expected an object")
        params = {}
    output = doc.get("output", "")
    if not isinstance(output, str):
        errors.append("output: expected a string")
        output = ""
    for key in sorted(set(doc) - {"scenario", "params", "output"}):
        errors.append(f"{_cut(key)}: unknown config field")

    _, specs, validator, _ = SCENARIOS[scenario]
    specs = {**specs, "seed": _SEED_SPEC}
    for name in sorted(set(params) - set(specs)):
        errors.append(f"params.{_cut(name)}: unknown parameter")
    cleaned = {name: _checked(params, name, spec, errors) for name, spec in specs.items()}
    if None not in cleaned.values():
        validator(cleaned, errors)

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(scenario=scenario, params=cleaned, output_path=output)


def run_scenario(config: ScenarioConfig, stream=None) -> int:
    """Execute a validated config; returns a process exit status."""
    stream = stream if stream is not None else sys.stdout
    runner = SCENARIOS[config.scenario][0]
    rng = np.random.default_rng(config.params.get("seed", DEFAULT_SEED))
    try:
        header, rows, notes = runner(config.params, rng)
    except Exception as exc:
        message = f"{type(exc).__name__}: {reprlib.repr(str(exc))}"
        print(f"error: scenario {config.scenario} failed: {message}", file=sys.stderr)
        return 1
    try:
        _write_csv(config.output_path, header, rows)
    except (OSError, ValueError) as exc:  # ValueError: a null byte or an unencodable path
        print(f"error: cannot write {reprlib.repr(config.output_path)}: {_why(exc)}",
              file=sys.stderr)
        return 1
    for note in notes:
        print(note, file=stream)
    print(f"wrote {len(rows)} rows to {config.output_path}", file=stream)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="metrolab", description="scenario runner for the metrolab library"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario from a config file")
    run_parser.add_argument("--config", required=True, help="path to a JSON config")
    run_parser.add_argument("--seed", type=int, default=None, help="override params.seed")
    run_parser.add_argument("--output", default=None, help="override the output path")

    sub.add_parser("list-scenarios", help="list scenario names and parameters")

    validate_parser = sub.add_parser("validate", help="validate a config file")
    validate_parser.add_argument("--config", required=True, help="path to a JSON config")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in sorted(SCENARIOS):
            _, specs, _, description = SCENARIOS[name]
            print(f"{name}: {description}")
            print(f"    params: {', '.join(specs)}, seed")
        return 0

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {reprlib.repr(args.config)}: {_why(exc)}", file=sys.stderr)
        return 2

    try:
        config = validate_config(text)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"ok: scenario {config.scenario}")
        return 0

    if args.seed is not None:
        if args.seed < 0:
            print("error: --seed must be non-negative", file=sys.stderr)
            return 2
        config.params["seed"] = args.seed
    if args.output is not None:
        config.output_path = args.output
    return run_scenario(config)


if __name__ == "__main__":
    sys.exit(main())
