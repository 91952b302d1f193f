"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Budgets are asserted where a criterion states one.
"""

import io
import json
import math
import time
import tracemalloc

import numpy as np

from metrolab import (
    PairAxis,
    build_basis,
    coherent_cutoff,
    coherent_truncated,
    correlated_three_mode,
    cv_cat,
    drop_reference,
    fidelity,
    fisher_information,
    general_probe,
    jn_variance_closed_form,
    jy_variance_closed_form,
    lossy_probe,
    noon,
    number_op,
    optimal_povm,
    optimal_zeta,
    qfi_mixed,
    qfi_pure,
    quadrature_p,
    rotated_fock,
    schwinger_j,
    two_mode_fixed_n,
    variance,
    weighted_number,
    with_reference,
)
from metrolab.cli import run_scenario, validate_config

_SUITE_START = time.perf_counter()

Z_AXIS = dict(beta=0.0, phi=0.0)


def report(number, name):
    print(f"criterion {number:2d} ({name}): PASS")


def random_profile(rng, length):
    c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return c / np.linalg.norm(c)


def noon_probe_with_environment(n_total):
    c = np.zeros((n_total + 1, n_total + 1), dtype=complex)
    c[n_total, 0] = c[0, n_total] = 1 / math.sqrt(2)
    return general_probe(c, n_total)


def correlated_probe_with_environment(n_total):
    c = np.zeros((n_total + 1, n_total + 1), dtype=complex)
    for n in range(n_total // 2 + 1):
        c[n, n] = 1.0
    c /= np.linalg.norm(c)
    return general_probe(c, n_total)


def test_c01_variance_formula_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n_total = int(rng.integers(1, 31))
        coeffs = random_profile(rng, n_total + 1)
        beta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        closed = jn_variance_closed_form(coeffs, n_total, beta, phi)
        state = two_mode_fixed_n(coeffs, n_total)
        operator = variance(
            state, schwinger_j(state.basis, PairAxis(0, 1, beta=beta, phi=phi))
        )
        assert abs(closed - operator) < 1e-10, (n_total, beta, phi)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"variance suite took {elapsed:.1f}s"
    report(1, "closed-form J_n variance vs operator oracle, 200 cases @ 1e-10")


def test_c02_noon_heisenberg_scaling():
    start = time.perf_counter()
    for n_total in range(1, 11):
        state = noon(n_total)
        jz = schwinger_j(state.basis, PairAxis(0, 1, **Z_AXIS))
        assert abs(qfi_pure(state, jz).qfi - n_total**2) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"NOON sweep took {elapsed:.2f}s"
    report(2, "NOON QFI equals N^2 for N=1..10 @ 1e-9")


def test_c03_coherent_shot_noise():
    start = time.perf_counter()
    for alpha in (0.5, 1.0, 2.0, 3.0):
        state = coherent_truncated(alpha, coherent_cutoff(alpha))
        qfi = qfi_pure(state, number_op(state.basis, 0)).qfi
        assert abs(qfi - 4 * alpha**2) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"coherent sweep took {elapsed:.2f}s"
    report(3, "coherent QFI equals 4|alpha|^2 @ 1e-6")


def test_c04_cat_quartic_scaling():
    qfis = {}
    for alpha in (1.0, 2.0, 3.0, 4.0, 6.0):
        state = cv_cat(alpha, coherent_cutoff(alpha))
        qfi = qfi_pure(state, number_op(state.basis, 0)).qfi

        # brute force from the amplitude profile, no operator objects
        probs = np.abs(state.amplitudes) ** 2
        n = np.arange(state.basis.n_total + 1)
        brute = 4 * (float(probs @ n**2) - float(probs @ n) ** 2)
        assert abs(qfi - brute) < 1e-8
        qfis[alpha] = qfi
    ratio = qfis[6.0] / qfis[3.0]
    assert abs(ratio - 16.0) <= 0.15 * 16.0
    report(4, "cat QFI vs brute force @ 1e-8; QFI(2a)/QFI(a) within 15% of 16")


def test_c05_cv_convergence():
    start = time.perf_counter()
    alpha = 1.0
    target_profile = coherent_truncated(alpha, coherent_cutoff(alpha))
    infidelities = []
    for n_total in (10, 40, 160):
        theta = 2 * math.asin(alpha / math.sqrt(n_total))
        probe = rotated_fock(n_total, theta, 0.0)
        infidelities.append(
            1.0 - fidelity(probe, with_reference(target_profile, n_total))
        )
    assert infidelities[0] > infidelities[1] > infidelities[2]
    assert infidelities[-1] < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"CV convergence took {elapsed:.1f}s"
    report(5, "rotated-Fock/coherent infidelity decreasing, final < 0.01")


def test_c06_jy_variance_reduction():
    sparse = np.zeros(3, dtype=complex)
    sparse[0] = sparse[2] = 1 / math.sqrt(2)
    families = {
        "coherent": coherent_truncated(0.8, coherent_cutoff(0.8)),
        "cat": cv_cat(1.2, coherent_cutoff(1.2)),
        "sparse": drop_reference(two_mode_fixed_n(sparse, 2)),
    }
    for name, profile in families.items():
        roomy = profile.expand_cutoff(profile.basis.n_total + 4)
        var_p = variance(roomy, quadrature_p(roomy.basis, 0))
        probs = np.abs(profile.amplitudes) ** 2
        nbar = float(probs @ np.arange(profile.basis.n_total + 1))
        checked = 0
        for n_total in (20, 80, 320):
            coeffs = np.zeros(n_total + 1, dtype=complex)
            coeffs[: profile.basis.n_total + 1] = profile.amplitudes
            coeffs /= np.linalg.norm(coeffs)
            if nbar / n_total < 0.01:
                gap = abs(jy_variance_closed_form(coeffs, n_total) / n_total - var_p)
                assert gap < 0.05 * var_p, (name, n_total, gap, var_p)
                checked += 1
        assert checked > 0, f"no qualifying cutoff for family {name}"
    report(6, "Var(Jy)/N within 5% of quadrature variance once nbar/N < 0.01")


def test_c07_jz_equals_number_variance():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n_total = int(rng.integers(1, 16))
        coeffs = random_profile(rng, n_total + 1)
        state = two_mode_fixed_n(coeffs, n_total)
        jz = schwinger_j(state.basis, PairAxis(0, 1, **Z_AXIS))
        n0 = number_op(state.basis, 0)
        assert abs(variance(state, jz) - variance(state, n0)) < 1e-12
    report(7, "Var(Jz) equals Var(n) on 100 random fixed-N states @ 1e-12")


def test_c08_zeta_optimization():
    rng = np.random.default_rng(88)
    for _ in range(10):
        coeffs = random_profile(rng, 4)
        state = correlated_three_mode(coeffs, 7)
        result = optimal_zeta(state)
        assert abs(result.zeta_opt - math.pi / 4) < 1e-10
        assert result.var_perp <= 1e-10

    from metrolab import PureState

    for _ in range(1000):
        num_modes = int(rng.integers(2, 4))
        basis = build_basis(num_modes, int(rng.integers(1, 5)))
        v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        state = PureState(basis, v, normalize=True)
        zeta = float(rng.uniform(0, 2 * math.pi))
        n_zeta, n_perp = weighted_number(basis, zeta), weighted_number(basis, zeta - math.pi / 2)
        lhs = variance(state, n_zeta) + variance(state, n_perp)
        rhs = variance(state, number_op(basis, 0)) + variance(state, number_op(basis, 1))
        assert abs(lhs - rhs) < 1e-10
    report(8, "zeta* = pi/4 with var_perp <= 1e-10; sum rule on 1000 pairs @ 1e-10")


def test_c09_measurement_optimality():
    rng = np.random.default_rng(99)

    for _ in range(50):
        n_total = int(rng.integers(2, 7))
        coeffs = random_profile(rng, n_total + 1)
        state = two_mode_fixed_n(coeffs, n_total)
        gen = schwinger_j(
            state.basis,
            PairAxis(0, 1, beta=rng.uniform(0.2, math.pi - 0.2), phi=rng.uniform(0, 2 * math.pi)),
        )
        qfi = qfi_pure(state, gen).qfi
        kappa0 = float(rng.uniform(0, 1))
        povm = optimal_povm(state, gen, kappa0=kappa0)
        fi = fisher_information(state, gen, povm, kappa0=kappa0)
        assert fi <= qfi + 1e-6
        assert 0.999 <= fi / qfi <= 1.001, (n_total, fi, qfi)

    for _ in range(10):
        n_total = int(rng.integers(2, 4))
        c = np.zeros((n_total + 1, n_total + 1), dtype=complex)
        for n1 in range(n_total + 1):
            for n2 in range(n_total + 1 - n1):
                c[n1, n2] = rng.standard_normal() + 1j * rng.standard_normal()
        c /= np.linalg.norm(c)
        probe = general_probe(c, n_total)
        rho = lossy_probe(probe, int(rng.integers(0, 3)), float(rng.uniform(0.2, 1.3)))
        gen = schwinger_j(
            rho.basis,
            PairAxis(0, 2, beta=rng.uniform(0.2, math.pi - 0.2), phi=rng.uniform(0, 2 * math.pi)),
        )
        qfi = qfi_mixed(rho, gen).qfi
        kappa0 = float(rng.uniform(0, 1))
        povm = optimal_povm(rho, gen, kappa0=kappa0)
        fi = fisher_information(rho, gen, povm, kappa0=kappa0)
        assert fi <= qfi + 1e-6
        assert 0.999 <= fi / qfi <= 1.001, (n_total, fi, qfi)
    report(9, "FI(optimal POVM)/QFI in [0.999, 1.001] on 50 pure + 10 lossy probes")


def test_c10_loss_monotonicity():
    probes = {
        "noon": noon_probe_with_environment(3),
        "correlated": correlated_probe_with_environment(4),
    }
    grid = np.linspace(0.0, math.pi / 2, 9)
    for name, probe in probes.items():
        previous = math.inf
        for kappa in grid:
            rho = lossy_probe(probe, 0, float(kappa))
            gen = schwinger_j(rho.basis, PairAxis(0, 2, **Z_AXIS))
            qfi = qfi_mixed(rho, gen).qfi
            assert qfi <= previous + 1e-8, (name, kappa)
            previous = qfi
    report(10, "QFI non-increasing over the 9-point loss grid for both probes")


def test_c11_cli_determinism_and_budget(tmp_path):
    scenario_params = {
        "noon-scaling": {},
        "cat-vs-noon": {},
        "cv-convergence": {},
        "zeta-optimize": {"n_total": 8},
        "lossy-sweep": {"n_total": 3},
        "variance-oracle": {"num_cases": 40, "n_max": 20},
    }
    for scenario, params in scenario_params.items():
        doc = json.dumps({"scenario": scenario, "params": {"seed": 5, **params}})
        outputs = []
        for run in range(2):
            config = validate_config(doc)
            config.output_path = str(tmp_path / f"{scenario}-{run}.csv")
            assert run_scenario(config, stream=io.StringIO()) == 0
            outputs.append((tmp_path / f"{scenario}-{run}.csv").read_bytes())
        assert outputs[0] == outputs[1], f"{scenario} rerun differed"

    elapsed = time.perf_counter() - _SUITE_START
    assert elapsed < 300.0, f"acceptance suite took {elapsed:.0f}s"
    report(11, "all CLI scenarios rerun byte-identically; suite under 5 minutes")


def test_c12_zeta_optimize_at_the_cap_budget(tmp_path, monkeypatch):
    monkeypatch.delenv("METROLAB_MAX_DIM", raising=False)
    config = validate_config(json.dumps({"scenario": "zeta-optimize", "params": {"n_total": 26}}))
    config.output_path = str(tmp_path / "zeta.csv")
    stream = io.StringIO()
    start = time.perf_counter()
    assert run_scenario(config, stream=stream) == 0
    elapsed = time.perf_counter() - start
    assert build_basis(3, 26).dim == 3654
    rows = (tmp_path / "zeta.csv").read_text(encoding="utf-8").splitlines()[2:]
    assert len(rows) == 64
    assert elapsed < 3.0, f"zeta-optimize at n_total=26 took {elapsed:.1f}s"
    report(12, "zeta-optimize at n_total=26 (dim 3654), 64 grid points, under 3 s")


def test_c13_variance_oracle_at_n_max_60_budget(tmp_path, monkeypatch):
    monkeypatch.delenv("METROLAB_MAX_DIM", raising=False)
    doc = json.dumps({"scenario": "variance-oracle", "params": {"n_max": 60, "seed": 13}})
    config = validate_config(doc)
    config.output_path = str(tmp_path / "oracle.csv")
    stream = io.StringIO()
    start = time.perf_counter()
    assert run_scenario(config, stream=stream) == 0
    elapsed = time.perf_counter() - start
    lines = (tmp_path / "oracle.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1].split(",")[-1] == "abs_diff"
    rows = lines[2:]
    assert len(rows) == 200
    assert max(float(row.split(",")[-1]) for row in rows) <= 1e-10
    assert elapsed < 3.0, f"variance-oracle at n_max=60 took {elapsed:.1f}s"
    report(13, "variance-oracle at n_max=60 (dims up to 1891), 200 cases within 1e-10, under 3 s")


def test_c14_optimal_measurement_at_reduced_dim_455_budget():
    rng = np.random.default_rng(14)
    n_total = 12
    n1, n2 = np.meshgrid(np.arange(n_total + 1), np.arange(n_total + 1), indexing="ij")
    shape = (n_total + 1, n_total + 1)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (n1 + n2 <= n_total)
    rho = lossy_probe(general_probe(c / np.linalg.norm(c), n_total), 1, 0.7)
    assert rho.basis.dim == 455
    gen = schwinger_j(rho.basis, PairAxis(0, 2, beta=1.1, phi=0.4))
    qfi = qfi_mixed(rho, gen).qfi
    start = time.perf_counter()
    povm = optimal_povm(rho, gen, kappa0=0.3)
    fi = fisher_information(rho, gen, povm, kappa0=0.3)
    elapsed = time.perf_counter() - start
    assert 0.999 <= fi / qfi <= 1.001, (fi, qfi)
    assert elapsed < 1.0, f"optimal_povm + fisher_information at dim 455 took {elapsed:.1f}s"
    report(14, "FI(optimal POVM)/QFI in [0.999, 1.001] on a lossy probe at dim 455, under 1 s")


def test_c15_correlated_lossy_sweep_at_n_total_15_budget(tmp_path, monkeypatch):
    monkeypatch.delenv("METROLAB_MAX_DIM", raising=False)
    doc = json.dumps({"scenario": "lossy-sweep", "params": {"n_total": 15, "probe": "correlated"}})
    config = validate_config(doc)
    config.output_path = str(tmp_path / "lossy.csv")
    start = time.perf_counter()
    assert run_scenario(config, stream=io.StringIO()) == 0
    elapsed = time.perf_counter() - start
    assert build_basis(3, 15).dim == 816
    rows = (tmp_path / "lossy.csv").read_text(encoding="utf-8").splitlines()[2:]
    qfis = [float(row.split(",")[1]) for row in rows]
    assert len(qfis) == 9
    assert all(b <= a + 1e-12 * a for a, b in zip(qfis, qfis[1:]))
    assert elapsed < 2.0, f"correlated lossy-sweep at n_total=15 took {elapsed:.1f}s"
    report(15, "correlated lossy-sweep at n_total=15 (3-mode dim 816), 9 kappas, under 2 s")


def test_c16_variance_oracle_at_its_cap_budget(tmp_path, monkeypatch):
    monkeypatch.delenv("METROLAB_MAX_DIM", raising=False)
    doc = {"scenario": "variance-oracle", "params": {"num_cases": 10_000, "n_max": 60, "seed": 16}}
    config = validate_config(json.dumps(doc))
    config.output_path = str(tmp_path / "oracle.csv")
    start = time.perf_counter()
    assert run_scenario(config, stream=io.StringIO()) == 0
    elapsed = time.perf_counter() - start
    rows = (tmp_path / "oracle.csv").read_text(encoding="utf-8").splitlines()[2:]
    assert len(rows) == 10_000
    assert max(float(row.split(",")[-1]) for row in rows) <= 1e-10
    assert elapsed < 8.0, f"variance-oracle at its cap took {elapsed:.1f}s"
    report(16, "variance-oracle at its cap (10 000 cases, n_max=60), within 1e-10, under 8 s")


def test_c17_lossy_sweep_at_n_total_60_budget(tmp_path):
    """Both probes at n_total=60 (3-mode dim 39711; one dense rho would take 25 GB), 9 kappas:
    under 2 s each and a tracemalloc peak under 20 MB, the basis built afresh each time."""
    for probe in ("correlated", "noon"):
        doc = json.dumps({"scenario": "lossy-sweep", "params": {"n_total": 60, "probe": probe}})
        config = validate_config(doc)
        config.output_path = str(tmp_path / f"{probe}.csv")
        build_basis.cache_clear()
        start = time.perf_counter()
        assert run_scenario(config, stream=io.StringIO()) == 0
        elapsed = time.perf_counter() - start
        build_basis.cache_clear()
        tracemalloc.start()
        try:
            assert run_scenario(config, stream=io.StringIO()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = (tmp_path / f"{probe}.csv").read_text(encoding="utf-8").splitlines()[2:]
        kappas, qfis = zip(*((float(k), float(q)) for k, q in (row.split(",") for row in rows)))
        assert len(qfis) == 9
        assert all(b <= a + 1e-12 * a for a, b in zip(qfis, qfis[1:]))
        if probe == "noon":  # loss on mode 0: N^2 eta^N / (2 (1 + eta^N)), eta^N = cos^2N(kappa/2)
            for kappa, qfi in zip(kappas, qfis):
                eta_n = math.cos(kappa / 2) ** 120
                expected = 3600 * eta_n / (2 * (1 + eta_n))
                assert abs(qfi - expected) <= 1e-12 * max(1.0, expected)
        assert elapsed < 2.0, f"{probe} lossy-sweep at n_total=60 took {elapsed:.1f}s"
        assert peak < 20e6, f"{probe} lossy-sweep at n_total=60 peaked at {peak / 1e6:.1f} MB"
    report(17, "lossy-sweep at n_total=60 (3-mode dim 39711), both probes, 9 kappas, "
               "under 2 s and 20 MB each")
