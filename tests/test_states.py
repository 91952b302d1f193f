import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import metrolab
from metrolab import (
    HermitianOp,
    PairAxis,
    PureState,
    build_basis,
    coherent_cutoff,
    coherent_truncated,
    correlated_three_mode,
    cv_cat,
    drop_reference,
    expectation,
    fidelity,
    general_probe,
    noon,
    number_op,
    qfi_pure,
    rotated_fock,
    rotation_unitary,
    schwinger_j,
    two_mode_fixed_n,
    variance,
    with_reference,
)
from reference import amplitude, basis_state, purity, sector_masses


def random_profile(rng, length):
    c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return c / np.linalg.norm(c)


def embedded_rotated_fock(n_total, theta, phi):
    """Reference rotated_fock that writes its own fixed-N sector, as the factory once did."""
    half = theta / 2.0
    c = math.cos(half)
    s = math.sin(half) * np.exp(1j * phi)
    k = np.arange(n_total + 1)
    coeffs = np.array([math.sqrt(math.comb(n_total, int(kk))) for kk in k], dtype=complex)
    coeffs *= c ** (n_total - k) * s**k
    basis = build_basis(2, n_total)
    amp = np.zeros(basis.dim, dtype=complex)
    amp[basis.sector_slice(n_total)] = coeffs
    return PureState(basis, amp, normalize=True)


class TestTwoModeFixedN:
    def test_single_coefficient(self):
        state = two_mode_fixed_n([1, 0, 0, 0], 3)
        assert np.isclose(abs(amplitude(state, (0, 3))), 1.0)

    def test_noon_coefficients(self):
        c = np.zeros(5)
        c[0] = c[4] = 1 / math.sqrt(2)
        state = two_mode_fixed_n(c, 4)
        assert np.isclose(fidelity(state, noon(4)), 1.0)

    def test_mean_photon_number(self):
        rng = np.random.default_rng(0)
        c = random_profile(rng, 7)
        state = two_mode_fixed_n(c, 6)
        expected = float(np.abs(c) ** 2 @ np.arange(7))
        assert np.isclose(expectation(state, number_op(state.basis, 0)), expected)

    def test_rejects_bad_profiles(self):
        with pytest.raises(ValueError):
            two_mode_fixed_n([1, 0], 3)
        with pytest.raises(ValueError):
            two_mode_fixed_n([1, 1, 0, 0], 3)


class TestNoon:
    def test_n1_amplitudes(self):
        state = noon(1)
        assert np.isclose(amplitude(state, (1, 0)), 1 / math.sqrt(2))
        assert np.isclose(amplitude(state, (0, 1)), 1 / math.sqrt(2))

    def test_jz_variance(self):
        state = noon(6)
        jz = schwinger_j(state.basis, PairAxis(0, 1, beta=0.0))
        assert np.isclose(variance(state, jz), 9.0, atol=1e-12)

    @pytest.mark.parametrize("n_total", [1, 2, 5])
    def test_reduced_purity_half(self, n_total):
        from metrolab import partial_trace

        reduced = partial_trace(noon(n_total), keep={0})
        assert np.isclose(purity(reduced), 0.5, atol=1e-12)

    def test_rejects_zero_photons(self):
        with pytest.raises(ValueError):
            noon(0)


class TestRotatedFock:
    @given(
        st.integers(0, 400),
        st.floats(-4 * math.pi, 4 * math.pi),
        st.floats(-4 * math.pi, 4 * math.pi),
    )
    def test_matches_the_direct_embedding(self, n_total, theta, phi):
        state = rotated_fock(n_total, theta, phi)
        reference = embedded_rotated_fock(n_total, theta, phi)
        assert state.basis == reference.basis
        assert np.array_equal(state.amplitudes, reference.amplitudes)

    def test_poles(self):
        n_total = 5
        assert np.isclose(abs(amplitude(rotated_fock(n_total, 0.0), (0, n_total))), 1.0)
        assert np.isclose(abs(amplitude(rotated_fock(n_total, math.pi), (n_total, 0))), 1.0)

    def test_matches_rotation_unitary_convention(self):
        for phi in (0.0, 0.8, 4.0):
            n_total, theta = 9, 1.1
            basis = build_basis(2, n_total)
            axis = PairAxis(0, 1, beta=math.pi / 2, phi=math.pi / 2 - phi)
            u = rotation_unitary(basis, axis, theta)
            direct = u.apply(basis_state(basis, (0, n_total)))
            assert np.max(np.abs(direct.amplitudes - rotated_fock(n_total, theta, phi).amplitudes)) < 1e-10

    def test_overlap_with_the_unrotated_state(self):
        # |0,N> + rotated_fock(N, theta, phi) has squared norm 2 + 2 cos^N(theta/2)
        n_total, theta, phi = 7, 1.3, 0.4
        branch = rotated_fock(n_total, theta, phi)
        basis = branch.basis
        raw = branch.amplitudes.copy()
        raw[basis.rank((0, n_total))] += 1.0
        expected = 2 + 2 * math.cos(theta / 2) ** n_total
        assert np.isclose(float(np.vdot(raw, raw).real), expected, atol=1e-12)

    def test_coherent_limit_improves_with_n(self):
        alpha = 1.0
        infidelities = []
        for n_total in (10, 40):
            theta = 2 * math.asin(alpha / math.sqrt(n_total))
            target = with_reference(
                coherent_truncated(alpha, coherent_cutoff(alpha)), n_total
            )
            infidelities.append(1 - fidelity(rotated_fock(n_total, theta, 0.0), target))
        assert infidelities[1] < infidelities[0]

    def test_coherent_limit_with_phase(self):
        # complex amplitude alpha = e^{i phi} sin(theta/2) sqrt(N)
        mag, phi = 0.9, 1.2
        infidelities = []
        for n_total in (10, 40, 160):
            theta = 2 * math.asin(mag / math.sqrt(n_total))
            alpha = mag * np.exp(1j * phi)
            target = with_reference(
                coherent_truncated(alpha, coherent_cutoff(alpha)), n_total
            )
            infidelities.append(1 - fidelity(rotated_fock(n_total, theta, phi), target))
        assert infidelities[0] > infidelities[1] > infidelities[2]
        assert infidelities[-1] < 0.01


class TestCoherent:
    def test_alpha_zero_is_vacuum(self):
        state = coherent_truncated(0.0, 4)
        assert np.isclose(abs(state.amplitudes[0]), 1.0)

    def test_poisson_mean(self):
        state = coherent_truncated(1.5, 40)
        nbar = expectation(state, number_op(state.basis, 0))
        assert abs(nbar - 2.25) < 1e-10

    def test_vacuum_overlap(self):
        alpha = 1.2
        state = coherent_truncated(alpha, 40)
        assert abs(state.amplitudes[0] - math.exp(-(alpha**2) / 2)) < 1e-10

    def test_insufficient_cutoff_rejected(self):
        with pytest.raises(ValueError):
            coherent_truncated(3.0, 10)

    def test_cutoff_helper_is_minimal(self):
        from scipy.stats import poisson

        cutoff = coherent_cutoff(2.0)
        assert poisson.sf(cutoff, 4.0) < 1e-12
        assert poisson.sf(cutoff - 1, 4.0) >= 1e-12


class TestCvCat:
    def test_alpha_zero_is_vacuum(self):
        state = cv_cat(0.0, 4)
        assert np.isclose(abs(state.amplitudes[0]), 1.0)

    def test_normalized(self):
        state = cv_cat(2.0, coherent_cutoff(2.0))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_norm_constant_formula(self):
        alpha = 1.7
        cutoff = coherent_cutoff(alpha)
        branch = coherent_truncated(alpha, cutoff)
        raw = branch.amplitudes.copy()
        raw[0] += 1.0
        expected = 2 + 2 * math.exp(-(alpha**2) / 2)
        assert np.isclose(float(np.vdot(raw, raw).real), expected, atol=1e-10)

    def test_quartic_qfi_growth(self):
        qfis = {}
        for alpha in (3.0, 6.0):
            state = cv_cat(alpha, coherent_cutoff(alpha))
            qfis[alpha] = qfi_pure(state, number_op(state.basis, 0)).qfi
        ratio = qfis[6.0] / qfis[3.0]
        assert abs(ratio - 16.0) <= 0.15 * 16.0


class TestCorrelatedThreeMode:
    def test_single_branch(self):
        state = correlated_three_mode([1, 0, 0], 5)
        assert np.isclose(abs(amplitude(state, (0, 0, 5))), 1.0)

    def test_equal_mode_means(self):
        rng = np.random.default_rng(1)
        c = random_profile(rng, 4)
        state = correlated_three_mode(c, 7)
        n0 = expectation(state, number_op(state.basis, 0))
        n1 = expectation(state, number_op(state.basis, 1))
        assert np.isclose(n0, n1, atol=1e-12)

    def test_number_difference_is_sharp(self):
        rng = np.random.default_rng(2)
        c = random_profile(rng, 4)
        state = correlated_three_mode(c, 6)
        n0, n1 = number_op(state.basis, 0), number_op(state.basis, 1)
        diff = HermitianOp(state.basis, n0.weights - n1.weights)
        assert variance(state, diff) < 1e-14

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            correlated_three_mode([1, 0], 6)


class TestGeneralProbe:
    def test_trivial_probe(self):
        n_total = 4
        c = np.zeros((n_total + 1, n_total + 1), dtype=complex)
        c[0, 0] = 1.0
        state = general_probe(c, n_total)
        assert np.isclose(abs(amplitude(state, (0, 0, n_total, 0))), 1.0)

    def test_environment_starts_in_vacuum(self):
        n_total = 3
        c = np.zeros((n_total + 1, n_total + 1), dtype=complex)
        c[1, 1] = c[0, 2] = c[3, 0] = 1 / math.sqrt(3)
        gates = [(PairAxis(0, 1, beta=0.8, phi=0.2), 0.7), (PairAxis(1, 2), 1.1)]
        for state in (general_probe(c, n_total), general_probe(c, n_total, gates=gates)):
            env = state.basis.occupations()[:, 3]
            assert np.all(state.amplitudes[env > 0] == 0)
            assert np.isclose(np.linalg.norm(state.amplitudes), 1.0, atol=1e-12)

    def test_gates_preserve_total_photon_number(self):
        rng = np.random.default_rng(3)
        n_total = 3
        c = np.zeros((n_total + 1, n_total + 1), dtype=complex)
        c[1, 1] = c[0, 2] = c[3, 0] = 1 / math.sqrt(3)
        gates = [
            (PairAxis(0, 2, beta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi)), 0.7),
            (PairAxis(1, 3, beta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi)), 1.2),
        ]
        state = general_probe(c, n_total, gates=gates)
        masses = sector_masses(state)
        assert np.isclose(masses[n_total], 1.0, atol=1e-12)

    def test_dephasing_product_matches_diagonal_phase(self):
        n_total = 3
        theta13, theta23 = 0.9, -0.4
        c = np.zeros((n_total + 1, n_total + 1), dtype=complex)
        c[1, 1] = c[0, 2] = c[2, 0] = c[0, 0] = 0.5
        gates = [
            (PairAxis(0, 2, beta=0.0), theta13),
            (PairAxis(1, 2, beta=0.0), theta23),
        ]
        state = general_probe(c, n_total, gates=gates)

        plain = general_probe(c, n_total)
        occ = plain.basis.occupations()
        phases = np.exp(
            0.5j
            * (
                theta13 * occ[:, 0]
                + theta23 * occ[:, 1]
                - (theta13 + theta23) * occ[:, 2]
            )
        )
        expected = phases * plain.amplitudes
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-10

    def test_rejects_mass_outside_triangle(self):
        c = np.zeros((3, 3), dtype=complex)
        c[2, 2] = 1.0
        with pytest.raises(ValueError, match="outside the n1 \\+ n2 <= n_total region"):
            general_probe(c, 2)

    def test_rejects_a_wrong_shape(self):
        with pytest.raises(ValueError, match=r"must be \(3, 3\), got \(2, 3\)"):
            general_probe(np.eye(2, 3), 2)

    def test_rejects_unnormalized(self):
        c = np.zeros((3, 3), dtype=complex)
        c[0, 0] = 0.5
        with pytest.raises(ValueError, match="coefficient norm 0.5 is not 1"):
            general_probe(c, 2)

    def test_rejects_invalid_gate_pair(self):
        c = np.zeros((3, 3), dtype=complex)
        c[0, 0] = 1.0
        with pytest.raises(ValueError):
            general_probe(c, 2, gates=[(PairAxis(0, 4, beta=1.0), 0.3)])


class TestReferenceHelpers:
    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        profile = random_profile(rng, 5)
        single = drop_reference(two_mode_fixed_n(profile, 4))
        assert np.max(np.abs(single.amplitudes - profile)) < 1e-12

    def test_with_reference_truncates_and_renormalizes(self):
        state = coherent_truncated(1.0, coherent_cutoff(1.0))
        embedded = with_reference(state, 10)
        assert np.isclose(np.linalg.norm(embedded.amplitudes), 1.0)
        assert np.isclose(sector_masses(embedded)[10], 1.0)

    def test_drop_reference_needs_fixed_sector(self):
        basis = build_basis(2, 3)
        mixed_sector = basis_state(basis, (0, 0))
        with pytest.raises(ValueError):
            drop_reference(mixed_sector)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: with_reference(noon(2), 4), "with_reference expects a single-mode state"),
            (lambda: drop_reference(coherent_truncated(0.5, 30)),
             "drop_reference expects a two-mode state"),
        ],
        ids=["with_reference", "drop_reference"],
    )
    def test_guards(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize(
    "factory",
    [
        lambda: two_mode_fixed_n(np.array([0.6, 0.8j, 0, 0]), 3),
        lambda: noon(4),
        lambda: rotated_fock(6, 1.2, 0.7),
        lambda: correlated_three_mode(np.array([0.6, 0.8]), 3),
        lambda: general_probe(
            np.diag([1 / math.sqrt(2), 1 / math.sqrt(2), 0]), 2,
            gates=[(PairAxis(0, 1, beta=1.0, phi=0.3), 0.5)],
        ),
    ],
)
def test_factories_normalized_in_fixed_sector(factory):
    state = factory()
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    masses = sector_masses(state)
    assert np.isclose(masses[state.basis.n_total], 1.0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "factory",
    [
        lambda bad: two_mode_fixed_n([bad, 0, 0, 0], 3),
        lambda bad: correlated_three_mode([bad, 0], 3),
        lambda bad: general_probe(np.diag([bad, 0, 0]), 2),
    ],
)
def test_profiles_reject_non_finite(factory, bad):
    with pytest.raises(ValueError):
        factory(bad)


def test_import_does_not_load_scipy_stats():
    """Only the coherent-state factories load scipy, when they are first called."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(metrolab.__file__)))
    code = (
        "import sys, metrolab, metrolab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
