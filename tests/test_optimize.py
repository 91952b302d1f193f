import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrolab import (
    MixedState,
    PairAxis,
    PureState,
    build_basis,
    correlated_three_mode,
    general_probe,
    loss_channel,
    lossy_probe,
    noon,
    number_covariance,
    number_op,
    optimal_weights,
    optimal_zeta,
    qfi_mixed,
    schwinger_j,
    sweep_qfi_vs_zeta,
    two_mode_fixed_n,
    variance,
    weighted_number,
)
from reference import basis_state, purity


def random_profile(rng, length):
    c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return c / np.linalg.norm(c)


def random_pure(rng, basis):
    v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return PureState(basis, v, normalize=True)


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


class TestOptimalZeta:
    def test_correlated_state_gives_pi_over_four(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            coeffs = random_profile(rng, 4)
            state = correlated_three_mode(coeffs, 7)
            result = optimal_zeta(state)
            assert abs(result.zeta_opt - math.pi / 4) < 1e-10
            assert result.var_perp <= 1e-10

    def test_fock_product_is_degenerate(self):
        basis = build_basis(3, 5)
        state = basis_state(basis, (2, 1, 2))
        result = optimal_zeta(state)
        assert result.degenerate
        assert result.zeta_opt == 0.0
        assert result.var_max == 0.0

    def test_anti_correlated_state(self):
        rng = np.random.default_rng(1)
        coeffs = random_profile(rng, 6)
        state = two_mode_fixed_n(coeffs, 5)
        result = optimal_zeta(state)
        assert abs(result.zeta_opt - 3 * math.pi / 4) < 1e-10
        assert result.var_perp <= 1e-10  # n0 + n1 is constant on the fixed sector

    def test_var_max_is_top_covariance_eigenvalue(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            basis = build_basis(3, 4)
            state = random_pure(rng, basis)
            result = optimal_zeta(state)
            eigvals = np.linalg.eigvalsh(result.cov)
            assert abs(result.var_max - eigvals[-1]) < 1e-10
            assert abs(result.var_perp - max(eigvals[0], 0.0)) < 1e-10

    def test_sum_rule_at_optimum(self):
        rng = np.random.default_rng(3)
        state = random_pure(rng, build_basis(2, 6))
        result = optimal_zeta(state)
        n0, n1 = number_op(state.basis, 0), number_op(state.basis, 1)
        total = variance(state, n0) + variance(state, n1)
        assert abs(result.var_max + result.var_perp - total) < 1e-10

    def test_needs_two_modes(self):
        with pytest.raises(ValueError):
            optimal_zeta(basis_state(build_basis(1, 3), (1,)))


class TestSumRule:
    def test_random_states_and_angles(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            num_modes = int(rng.integers(2, 4))
            basis = build_basis(num_modes, int(rng.integers(1, 6)))
            state = random_pure(rng, basis)
            zeta = rng.uniform(0, 2 * math.pi)
            n_zeta, n_perp = weighted_number(basis, zeta), weighted_number(basis, zeta - math.pi / 2)
            lhs = variance(state, n_zeta) + variance(state, n_perp)
            n0, n1 = number_op(basis, 0), number_op(basis, 1)
            rhs = variance(state, n0) + variance(state, n1)
            assert abs(lhs - rhs) < 1e-10


class TestOptimalWeights:
    def test_two_mode_special_case(self):
        rng = np.random.default_rng(5)
        state = random_pure(rng, build_basis(2, 5))
        zeta_result = optimal_zeta(state)
        weight_result = optimal_weights(state, (0, 1))
        expected = np.array([math.cos(zeta_result.zeta_opt), math.sin(zeta_result.zeta_opt)])
        aligned = min(
            np.max(np.abs(weight_result.weights - expected)),
            np.max(np.abs(weight_result.weights + expected)),
        )
        assert aligned < 1e-10
        assert abs(weight_result.var_max - zeta_result.var_max) < 1e-10

    def test_needs_two_modes(self):
        with pytest.raises(ValueError, match="at least 2 modes"):
            optimal_weights(noon(2), [0])

    def test_three_mode_weights_beat_any_pairwise_zeta(self):
        rng = np.random.default_rng(6)
        state = random_pure(rng, build_basis(3, 4))
        result = optimal_weights(state, (0, 1, 2))
        assert np.isclose(np.linalg.norm(result.weights), 1.0)
        sweep = sweep_qfi_vs_zeta(state, np.linspace(0, math.pi, 64))
        assert 4 * result.var_max >= np.max(sweep[:, 1]) - 1e-8


class TestLossyProbe:
    def test_zero_coupling_keeps_purity(self):
        probe = noon_probe_with_environment(3)
        rho = lossy_probe(probe, 0, 0.0)
        assert abs(purity(rho) - 1.0) < 1e-10

    def test_full_transfer_at_pi(self):
        n_total = 4
        c = np.zeros((n_total + 1, n_total + 1), dtype=complex)
        c[1, 0] = 1.0  # |1, 0, N-1, 0>
        probe = general_probe(c, n_total)
        rho = lossy_probe(probe, 0, math.pi)
        target = basis_state(build_basis(3, n_total), (0, 0, n_total - 1))
        overlap = float(
            np.real(np.vdot(target.amplitudes, rho.matrix @ target.amplitudes))
        )
        assert abs(overlap - 1.0) < 1e-10

    @pytest.mark.parametrize("probe_mode", [0, 1, 2])
    def test_x_coupling_loses_photons_binomially(self, probe_mode):
        # exp(i kappa J_x) against a vacuum environment keeps each photon
        # with probability cos^2(kappa/2), independently
        n, n_total, kappa = 3, 4, 1.1
        c = np.zeros((n_total + 1, n_total + 1), dtype=complex)
        c[(n, 0) if probe_mode == 0 else (0, n) if probe_mode == 1 else (0, 0)] = 1.0
        occupied = n if probe_mode < 2 else n_total
        rho = lossy_probe(general_probe(c, n_total), probe_mode, kappa)
        keep = math.cos(kappa / 2) ** 2
        kept = rho.basis.occupations()[:, probe_mode]
        populations = np.real(np.diag(rho.matrix))
        for k in range(occupied + 1):
            expected = math.comb(occupied, k) * keep**k * (1 - keep) ** (occupied - k)
            assert abs(populations[kept == k].sum() - expected) < 1e-12

    def test_qfi_decreases_with_coupling(self):
        probe = noon_probe_with_environment(3)
        previous = math.inf
        for kappa in np.linspace(0, math.pi / 2, 5):
            rho = lossy_probe(probe, 0, float(kappa))
            gen = schwinger_j(rho.basis, PairAxis(0, 2, beta=0.0))
            q = qfi_mixed(rho, gen).qfi
            assert q <= previous + 1e-8
            previous = q

    def test_never_exceeds_lossless(self):
        probe = correlated_probe_with_environment(4)
        gen_axis = PairAxis(0, 2, beta=0.0)
        rho0 = lossy_probe(probe, 0, 0.0)
        baseline = qfi_mixed(rho0, schwinger_j(rho0.basis, gen_axis)).qfi
        for kappa in np.linspace(0, math.pi, 7):
            rho = lossy_probe(probe, 0, float(kappa))
            q = qfi_mixed(rho, schwinger_j(rho.basis, gen_axis)).qfi
            assert q <= baseline + 1e-8

    def test_outputs_valid_mixed_states(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n_total = int(rng.integers(1, 4))
            c = np.zeros((n_total + 1, n_total + 1), dtype=complex)
            for n1 in range(n_total + 1):
                for n2 in range(n_total + 1 - n1):
                    c[n1, n2] = rng.standard_normal() + 1j * rng.standard_normal()
            c /= np.linalg.norm(c)
            probe = general_probe(c, n_total)
            mode = int(rng.integers(0, 3))
            rho = lossy_probe(probe, mode, float(rng.uniform(0, math.pi)))
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
            assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
            assert float(np.linalg.eigvalsh(rho.matrix)[0]) > -1e-10

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            lossy_probe(noon(2), 0, 0.3)
        probe = noon_probe_with_environment(2)
        with pytest.raises(ValueError):
            lossy_probe(probe, 3, 0.3)


def lossy_qfi(probe, probe_mode, kappa):
    """QFI of Jz(0, 2) on the probe modes after the loss coupling on `probe_mode`."""
    rho = lossy_probe(probe, probe_mode, kappa)
    return qfi_mixed(rho, schwinger_j(rho.basis, PairAxis(0, 2))).qfi


def rank_one_sector_qfi(coeffs, n_total, probe_mode, kappa):
    """Sum over lost-photon counts l of |v_l|^2 4 Var_{v_l/|v_l|}(Jz(0, 2)), without eigh.

    v_l = K_l |psi>, with the binomial Kraus operator
    K_l = sum_n sqrt(C(n, l)) cos^(n-l)(kappa/2) sin^l(kappa/2) |n-l><n| on the
    probe mode; each v_l lies in sector N - l, so rho is a direct sum of rank-one
    blocks and the number-conserving generator acts on each one separately.
    """
    c, s = math.cos(kappa / 2), math.sin(kappa / 2)
    total = 0.0
    for lost in range(n_total + 1):
        probs, jz = [], []
        for n1 in range(n_total + 1):
            for n2 in range(n_total + 1 - n1):
                occ = [n1, n2, n_total - n1 - n2]
                n = occ[probe_mode]
                if n < lost or coeffs[n1, n2] == 0:
                    continue
                amp = coeffs[n1, n2] * math.sqrt(math.comb(n, lost)) * c ** (n - lost) * s**lost
                occ[probe_mode] -= lost
                probs.append(abs(amp) ** 2)
                jz.append((occ[0] - occ[2]) / 2)
        # distinct (n1, n2) stay distinct after the loss, so the weights do not interfere
        probs, jz = np.array(probs), np.array(jz)
        mass = probs.sum()
        if mass > 0:
            total += 4 * (probs @ jz**2 - (probs @ jz) ** 2 / mass)
    return total


def random_triangle(rng, n_total):
    """Sparse random coefficients c[n1, n2] over n1 + n2 <= N, of unit norm."""
    n1, n2 = np.meshgrid(np.arange(n_total + 1), np.arange(n_total + 1), indexing="ij")
    coeffs = rng.standard_normal(n1.shape) + 1j * rng.standard_normal(n1.shape)
    coeffs[(n1 + n2 > n_total) | (rng.random(n1.shape) < 0.3)] = 0
    coeffs[0, 0] = 1.0  # the support is never empty
    return coeffs / np.linalg.norm(coeffs)


class TestLossOracles:
    @given(st.integers(1, 8), st.integers(0, 2), st.floats(0, math.pi))
    def test_noon_closed_form(self, n_total, probe_mode, kappa):
        eta_n = math.cos(kappa / 2) ** (2 * n_total)
        expected = n_total**2 / 4
        if probe_mode < 2:
            expected = n_total**2 * eta_n / (2 * (1 + eta_n))
        qfi = lossy_qfi(noon_probe_with_environment(n_total), probe_mode, kappa)
        assert abs(qfi - expected) <= 1e-12 * max(1.0, expected)

    @given(st.integers(1, 8), st.integers(0, 2), st.floats(0, math.pi), st.integers(0, 2**32 - 1))
    def test_rank_one_sector_oracle(self, n_total, probe_mode, kappa, seed):
        coeffs = random_triangle(np.random.default_rng(seed), n_total)
        expected = rank_one_sector_qfi(coeffs, n_total, probe_mode, kappa)
        qfi = lossy_qfi(general_probe(coeffs, n_total), probe_mode, kappa)
        assert abs(qfi - expected) <= 1e-12 * max(1.0, expected)

    @given(
        st.integers(1, 8),
        st.integers(0, 2),
        st.booleans(),
        st.lists(st.floats(0, math.pi), min_size=2, max_size=2),
    )
    def test_qfi_does_not_grow_with_kappa(self, n_total, probe_mode, noon_probe, kappas):
        make = noon_probe_with_environment if noon_probe else correlated_probe_with_environment
        probe = make(n_total)
        low, high = (lossy_qfi(probe, probe_mode, k) for k in sorted(kappas))
        assert high <= low + 1e-12 * max(1.0, low)


def with_vacuum_environment(state):
    """A three-mode pure state as the four-mode |psi>|0> that lossy_probe couples."""
    basis = build_basis(4, state.basis.n_total)
    occ = state.basis.occupations()
    amp = np.zeros(basis.dim, dtype=complex)
    amp[basis.rank(np.column_stack([occ, np.zeros(len(occ), dtype=int)]))] = state.amplitudes
    return PureState(basis, amp)


def noon_three_mode(n_total):
    """(|N,0,0> + |0,N,0>)/sqrt(2), the NOON probe of lossy-sweep."""
    basis = build_basis(3, n_total)
    amp = np.zeros(basis.dim, dtype=complex)
    amp[basis.rank([[n_total, 0, 0], [0, n_total, 0]])] = 1 / math.sqrt(2)
    return PureState(basis, amp)


def correlated_uniform(n_total):
    size = n_total // 2 + 1
    return correlated_three_mode(np.full(size, 1 / math.sqrt(size)), n_total)


@st.composite
def three_mode_states(draw):
    """A random sparse three-mode pure state, N <= 8, on the top sector or on every sector."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = build_basis(3, draw(st.integers(1, 8)))
    v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    v[rng.random(basis.dim) < 0.3] = 0
    if draw(st.booleans()):
        v[: basis.sector_slice(basis.n_total).start] = 0
    v[-1] = 1.0  # the support is never empty
    return PureState(basis, v, normalize=True)


def channel_qfi(probe, mode, kappa):
    rho = loss_channel(probe, mode, kappa)
    return qfi_mixed(rho, schwinger_j(rho.basis, PairAxis(0, 2))).qfi


class TestLossChannel:
    @settings(max_examples=60, deadline=None)
    @given(three_mode_states(), st.integers(0, 2), st.floats(0, math.pi))
    def test_matches_the_dense_coupling(self, state, mode, kappa):
        rho = loss_channel(state, mode, kappa)
        dense = lossy_probe(with_vacuum_environment(state), mode, kappa)
        assert rho.basis == dense.basis
        assert np.max(np.abs(rho.matrix - dense.matrix)) <= 1e-12

    @given(st.integers(1, 16), st.integers(0, 2), st.floats(0, math.pi))
    def test_noon_closed_form(self, n_total, mode, kappa):
        eta_n = math.cos(kappa / 2) ** (2 * n_total)
        expected = n_total**2 / 4  # mode 2 holds no photon, so it loses none
        if mode < 2:
            expected = n_total**2 * eta_n / (2 * (1 + eta_n))
        qfi = channel_qfi(noon_three_mode(n_total), mode, kappa)
        assert abs(qfi - expected) <= 1e-12 * max(1.0, expected)

    @given(
        st.integers(1, 16),
        st.integers(0, 2),
        st.booleans(),
        st.lists(st.floats(0, math.pi), min_size=2, max_size=2),
    )
    def test_qfi_does_not_grow_with_kappa(self, n_total, mode, noon_probe, kappas):
        probe = (noon_three_mode if noon_probe else correlated_uniform)(n_total)
        low, high = (channel_qfi(probe, mode, k) for k in sorted(kappas))
        assert high <= low + 1e-12 * max(1.0, low)

    @given(st.integers(1, 8), st.integers(0, 2), st.floats(0, math.pi), st.integers(0, 2**32 - 1))
    def test_rank_one_sector_oracle(self, n_total, mode, kappa, seed):
        coeffs = random_triangle(np.random.default_rng(seed), n_total)
        basis = build_basis(3, n_total)
        n1, n2 = np.nonzero(coeffs)
        amp = np.zeros(basis.dim, dtype=complex)
        amp[basis.rank(np.column_stack([n1, n2, n_total - n1 - n2]))] = coeffs[n1, n2]
        expected = rank_one_sector_qfi(coeffs, n_total, mode, kappa)
        qfi = channel_qfi(PureState(basis, amp), mode, kappa)
        assert abs(qfi - expected) <= 1e-12 * max(1.0, expected)

    def test_output_is_a_valid_state_that_keeps_sector_coherences(self):
        rng = np.random.default_rng(21)
        basis = build_basis(3, 5)
        state = PureState(basis, rng.standard_normal(basis.dim) + 0j, normalize=True)
        rho = loss_channel(state, 1, 1.3)
        MixedState(basis, rho.matrix)  # hermiticity, unit trace and PSD, checked
        assert not rho.matrix.flags.writeable
        mask = np.zeros((basis.dim, basis.dim), dtype=bool)
        for block in basis.sectors():
            mask[block, block] = True
        # the input mixes sectors, and its coherences between them survive the channel
        assert np.count_nonzero(rho.matrix[~mask]) > 0

    def test_kappa_zero_is_the_input_and_pi_empties_the_mode(self):
        state = correlated_uniform(6)
        np.testing.assert_allclose(loss_channel(state, 0, 0.0).matrix, state.density_matrix(),
                                   atol=1e-15)
        rho = loss_channel(state, 0, math.pi)
        occ = state.basis.occupations()
        assert np.max(np.abs(rho.matrix[occ[:, 0] > 0])) <= 1e-15


class TestSweep:
    def test_single_point(self):
        rng = np.random.default_rng(8)
        state = random_pure(rng, build_basis(2, 4))
        rows = sweep_qfi_vs_zeta(state, [0.0])
        expected = 4 * variance(state, number_op(state.basis, 0))
        assert rows.shape == (1, 2)
        assert abs(rows[0, 1] - expected) < 1e-10

    def test_grid_max_below_closed_form(self):
        rng = np.random.default_rng(9)
        state = random_pure(rng, build_basis(3, 4))
        result = optimal_zeta(state)
        rows = sweep_qfi_vs_zeta(state, np.linspace(0, math.pi, 1000, endpoint=False))
        assert np.max(rows[:, 1]) <= 4 * result.var_max + 1e-8

    def test_correlated_max_near_pi_over_four(self):
        state = correlated_three_mode(np.array([1, 1, 1]) / math.sqrt(3), 5)
        grid = np.linspace(0, math.pi, 129)
        rows = sweep_qfi_vs_zeta(state, grid)
        best = rows[np.argmax(rows[:, 1]), 0]
        assert abs(best - math.pi / 4) <= grid[1] - grid[0]

    def test_sum_rule_constant_across_grid(self):
        rng = np.random.default_rng(10)
        state = random_pure(rng, build_basis(2, 5))
        totals = []
        for zeta in np.linspace(0, math.pi, 16):
            n_zeta = weighted_number(state.basis, float(zeta))
            n_perp = weighted_number(state.basis, float(zeta) - math.pi / 2)
            totals.append(variance(state, n_zeta) + variance(state, n_perp))
        assert np.max(totals) - np.min(totals) < 1e-10

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_qfi_vs_zeta(noon(2), [])


class TestNumberCovariance:
    def test_matches_operator_route(self):
        rng = np.random.default_rng(11)
        state = random_pure(rng, build_basis(3, 4))
        cov = number_covariance(state, (0, 1, 2))
        for m in range(3):
            assert abs(cov[m, m] - variance(state, number_op(state.basis, m))) < 1e-12

    def test_default_modes_are_all_modes(self):
        state = random_pure(np.random.default_rng(12), build_basis(3, 3))
        np.testing.assert_array_equal(number_covariance(state), number_covariance(state, (0, 1, 2)))

    def test_mixed_state_input(self):
        from metrolab import partial_trace

        rho = partial_trace(correlated_three_mode(np.array([1, 1]) / math.sqrt(2), 3), keep={0, 1})
        cov = number_covariance(rho, (0, 1))
        assert abs(cov[0, 0] - cov[1, 1]) < 1e-12
        assert abs(cov[0, 1] - cov[0, 0]) < 1e-12  # perfectly correlated
