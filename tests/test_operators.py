import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from metrolab import (
    HermitianOp,
    PairAxis,
    PureState,
    UnitaryOp,
    annihilation,
    build_basis,
    coherent_truncated,
    correlated_three_mode,
    creation,
    expectation,
    number_op,
    quadrature_p,
    rotated_fock,
    rotation_axis_for,
    rotation_unitary,
    schwinger_j,
    spin_squeeze_unitary,
    total_number_op,
    variance,
    weighted_number,
)
from metrolab.operators import _exp_i, _hopping

X_AXIS = dict(beta=math.pi / 2, phi=0.0)
Y_AXIS = dict(beta=math.pi / 2, phi=math.pi / 2)
Z_AXIS = dict(beta=0.0, phi=0.0)
LADDER_BASES = [(1, 6), (2, 5), (3, 4), (4, 3), (5, 2)]

angles = st.floats(-2 * math.pi, 2 * math.pi)


@st.composite
def bases_and_axes(draw, min_total=0):
    """A basis up to dim 84 and a random axis on a random pair of its modes."""
    basis = build_basis(draw(st.integers(2, 3)), draw(st.integers(min_total, 6)))
    i, j = draw(st.permutations(range(basis.num_modes)))[:2]
    beta, phi = draw(st.floats(0, math.pi)), draw(st.floats(0, 2 * math.pi))
    return basis, PairAxis(i, j, beta=beta, phi=phi)


def loop_annihilation(basis, mode):
    """Reference a_mode built one column at a time."""
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col, occ in enumerate(basis.occupations().tolist()):
        if occ[mode] > 0:
            target = list(occ)
            target[mode] -= 1
            mat[basis.rank(target), col] = math.sqrt(occ[mode])
    return mat


def loop_hopping(basis, i, j):
    """Reference ai† aj built one column at a time."""
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col, occ in enumerate(basis.occupations().tolist()):
        if occ[j] > 0:
            target = list(occ)
            target[i] += 1
            target[j] -= 1
            mat[basis.rank(target), col] = math.sqrt((occ[i] + 1) * occ[j])
    return mat


class TestPairAxis:
    def test_rejects_equal_modes(self):
        with pytest.raises(ValueError):
            PairAxis(1, 1)

    def test_canonicalizes_negative_beta(self):
        axis = PairAxis(0, 1, beta=-0.3, phi=1.0)
        assert 0.0 <= axis.beta <= math.pi
        assert 0.0 <= axis.phi < 2 * math.pi
        nz, nx, ny = axis.direction()
        assert np.isclose(nz, math.cos(-0.3))
        assert np.isclose(nx, math.sin(-0.3) * math.cos(1.0))
        assert np.isclose(ny, math.sin(-0.3) * math.sin(1.0))

    def test_pole_fixes_phi(self):
        assert PairAxis(0, 1, beta=0.0, phi=2.5).phi == 0.0

    def test_equal_directions_compare_equal(self):
        a = PairAxis(0, 1, beta=math.pi / 2, phi=0.5)
        b = PairAxis(0, 1, beta=math.pi / 2, phi=0.5 + 2 * math.pi)
        assert np.isclose(a.phi, b.phi)


class TestLadder:
    def test_annihilation_defining_action(self):
        basis = build_basis(2, 5)
        a0 = annihilation(basis, 0)
        one = basis.basis_state((1, 0)).amplitudes
        out = a0 @ one
        assert np.isclose(out[basis.rank((0, 0))], 1.0)
        three_two = basis.basis_state((3, 2)).amplitudes
        out = a0 @ three_two
        assert np.isclose(out[basis.rank((2, 2))], math.sqrt(3))
        # vacuum annihilated
        assert np.allclose(a0 @ basis.basis_state((0, 0)).amplitudes, 0.0)

    @pytest.mark.parametrize("num_modes,n_total", LADDER_BASES)
    def test_annihilation_matches_loop_reference(self, num_modes, n_total):
        basis = build_basis(num_modes, n_total)
        for mode in range(num_modes):
            assert np.array_equal(annihilation(basis, mode), loop_annihilation(basis, mode))

    @pytest.mark.parametrize("num_modes,n_total", LADDER_BASES[1:])
    def test_hopping_matches_loop_reference(self, num_modes, n_total):
        basis = build_basis(num_modes, n_total)
        for i in range(num_modes):
            for j in range(num_modes):
                if i != j:
                    assert np.array_equal(_hopping(basis, i, j), loop_hopping(basis, i, j))

    def test_creation_is_adjoint(self):
        basis = build_basis(2, 3)
        np.testing.assert_allclose(
            creation(basis, 1), annihilation(basis, 1).conj().T, atol=0
        )

    def test_commutator_below_cutoff(self):
        basis = build_basis(2, 4)
        below = basis.sector_slice(4).start  # states with total < 4
        eye = np.eye(basis.dim)
        for i in range(2):
            for j in range(2):
                a_i = annihilation(basis, i)
                c_j = creation(basis, j)
                comm = a_i @ c_j - c_j @ a_i
                expected = eye if i == j else np.zeros_like(eye)
                np.testing.assert_allclose(
                    comm[:below, :below], expected[:below, :below], atol=1e-12
                )

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            annihilation(build_basis(2, 2), 2)


class TestNumberOps:
    def test_diagonal_values(self):
        basis = build_basis(2, 3)
        n0 = number_op(basis, 0)
        state = basis.basis_state((2, 1))
        assert np.isclose(expectation(state, n0), 2.0)

    def test_fixed_sector_total(self):
        basis = build_basis(2, 6)
        total = number_op(basis, 0) + number_op(basis, 1)
        block = basis.sector_slice(6)
        np.testing.assert_allclose(
            total.matrix[block, block], 6.0 * np.eye(7), atol=0
        )
        np.testing.assert_allclose(total.matrix, total_number_op(basis).matrix)

    def test_coherent_number_variance(self):
        state = coherent_truncated(2.0, 40)
        assert abs(variance(state, number_op(state.basis, 0)) - 4.0) < 1e-8


class TestSchwinger:
    def test_jz_diagonal_action(self):
        n_total = 5
        basis = build_basis(2, n_total)
        jz = schwinger_j(basis, PairAxis(0, 1, **Z_AXIS))
        for n in range(n_total + 1):
            state = basis.basis_state((n, n_total - n))
            assert np.isclose(expectation(state, jz), (2 * n - n_total) / 2)

    def test_jy_matches_ladder_definition(self):
        basis = build_basis(2, 4)
        jy = schwinger_j(basis, PairAxis(0, 1, **Y_AXIS))
        a0, a1 = annihilation(basis, 0), annihilation(basis, 1)
        expected = 0.5j * (a1.conj().T @ a0 - a0.conj().T @ a1)
        np.testing.assert_allclose(jy.matrix, expected, atol=1e-14)

    @pytest.mark.parametrize("num_modes,n_total,i,j", [(3, 5, 0, 2), (2, 30, 0, 1)])
    def test_su2_algebra(self, num_modes, n_total, i, j):
        basis = build_basis(num_modes, n_total)  # second case has dim 496
        jx = schwinger_j(basis, PairAxis(i, j, **X_AXIS)).matrix
        jy = schwinger_j(basis, PairAxis(i, j, **Y_AXIS)).matrix
        jz = schwinger_j(basis, PairAxis(i, j, **Z_AXIS)).matrix
        np.testing.assert_allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
        np.testing.assert_allclose(jy @ jz - jz @ jy, 1j * jx, atol=1e-12)
        np.testing.assert_allclose(jz @ jx - jx @ jz, 1j * jy, atol=1e-12)

    def test_commutes_with_pair_number(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            num_modes = int(rng.integers(2, 5))
            n_total = int(rng.integers(1, 5))
            basis = build_basis(num_modes, n_total)
            i, j = rng.choice(num_modes, size=2, replace=False)
            pair = PairAxis(
                int(i), int(j), beta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi)
            )
            jn = schwinger_j(basis, pair).matrix
            pair_number = (number_op(basis, int(i)) + number_op(basis, int(j))).matrix
            assert np.max(np.abs(jn @ pair_number - pair_number @ jn)) < 1e-12

    def test_casimir_on_fixed_sector(self):
        n_total = 6
        basis = build_basis(2, n_total)
        jx = schwinger_j(basis, PairAxis(0, 1, **X_AXIS)).matrix
        jy = schwinger_j(basis, PairAxis(0, 1, **Y_AXIS)).matrix
        jz = schwinger_j(basis, PairAxis(0, 1, **Z_AXIS)).matrix
        casimir = jx @ jx + jy @ jy + jz @ jz
        block = basis.sector_slice(n_total)
        spin = n_total / 2
        np.testing.assert_allclose(
            casimir[block, block], spin * (spin + 1) * np.eye(n_total + 1), atol=1e-10
        )

    def test_rejects_equal_pair_via_axis(self):
        with pytest.raises(ValueError):
            schwinger_j(build_basis(2, 2), PairAxis(0, 0))


class TestRotation:
    def test_zero_angle_is_identity(self):
        basis = build_basis(2, 4)
        u = rotation_unitary(basis, PairAxis(0, 1, **Y_AXIS), 0.0)
        np.testing.assert_allclose(u.matrix, np.eye(basis.dim), atol=1e-12)

    def test_inverse_and_composition(self):
        basis = build_basis(2, 5)
        pair = PairAxis(0, 1, beta=1.1, phi=0.4)
        forward = rotation_unitary(basis, pair, 0.8)
        backward = rotation_unitary(basis, pair, -0.8)
        np.testing.assert_allclose(
            forward.matrix @ backward.matrix, np.eye(basis.dim), atol=1e-10
        )
        composed = rotation_unitary(basis, pair, 0.8 + 0.5)
        np.testing.assert_allclose(
            forward.matrix @ rotation_unitary(basis, pair, 0.5).matrix,
            composed.matrix,
            atol=1e-10,
        )

    def test_jy_rotation_builds_rotated_fock(self):
        n_total, theta = 10, 2 * math.asin(1 / math.sqrt(10))
        basis = build_basis(2, n_total)
        u = rotation_unitary(basis, PairAxis(0, 1, **Y_AXIS), theta)
        out = u.apply(basis.basis_state((0, n_total)))
        target = rotated_fock(n_total, theta, 0.0)
        assert np.max(np.abs(out.amplitudes - target.amplitudes)) < 1e-10

    def test_axis_helper_matches_convention(self):
        n_total, theta, phi = 7, 0.9, 2.3
        basis = build_basis(2, n_total)
        u = rotation_unitary(basis, rotation_axis_for(phi), theta)
        out = u.apply(basis.basis_state((0, n_total)))
        target = rotated_fock(n_total, theta, phi)
        assert np.max(np.abs(out.amplitudes - target.amplitudes)) < 1e-10

    def test_number_conserving(self):
        basis = build_basis(3, 4)
        u = rotation_unitary(basis, PairAxis(1, 2, beta=0.7, phi=1.9), 1.3).matrix
        total = total_number_op(basis).matrix
        assert np.max(np.abs(u @ total - total @ u)) < 1e-10


class TestSpinSqueeze:
    def test_zero_gamma_is_identity(self):
        basis = build_basis(2, 3)
        u = spin_squeeze_unitary(basis, PairAxis(0, 1, **X_AXIS), 0.0)
        np.testing.assert_allclose(u.matrix, np.eye(basis.dim), atol=1e-12)

    def test_commutes_with_pair_number(self):
        basis = build_basis(2, 5)
        u = spin_squeeze_unitary(basis, PairAxis(0, 1, beta=0.9, phi=0.2), 0.31).matrix
        total = total_number_op(basis).matrix
        assert np.max(np.abs(u @ total - total @ u)) < 1e-12

    def test_diagonal_phases_in_jz_eigenbasis(self):
        n_total, gamma = 6, 0.37
        basis = build_basis(2, n_total)
        u = spin_squeeze_unitary(basis, PairAxis(0, 1, **Z_AXIS), gamma)
        for n in range(n_total + 1):
            state = basis.basis_state((n, n_total - n))
            out = u.matrix @ state.amplitudes
            m = n - n_total / 2
            expected = np.exp(1j * gamma * m**2)
            assert abs(out[basis.rank((n, n_total - n))] - expected) < 1e-12


def check_exp_i(h, kappa, sector_wise):
    """_exp_i(H) against scipy's expm(i kappa H), and which blocks it decomposed."""
    basis = h.basis
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        u = _exp_i(basis, h.matrix, lambda w: kappa * w)
    sectors = [basis.sector_dim(s) for s in range(basis.n_total + 1)]
    assert [c.args[0].shape[0] for c in eigh.call_args_list] == (
        sectors if sector_wise else [basis.dim]
    )
    assert np.max(np.abs(u - scipy.linalg.expm(1j * kappa * h.matrix))) <= 1e-12


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return PureState(basis, v, normalize=True)


class TestExpI:
    @given(bases_and_axes(), angles)
    def test_pair_generator_matches_expm(self, case, kappa):
        check_exp_i(schwinger_j(*case), kappa, sector_wise=True)

    @given(st.integers(1, 3), st.integers(0, 6), st.data(), angles)
    def test_number_op_matches_expm(self, num_modes, n_total, data, kappa):
        basis = build_basis(num_modes, n_total)
        mode = data.draw(st.integers(0, num_modes - 1))
        check_exp_i(number_op(basis, mode), kappa, sector_wise=True)

    @given(st.integers(1, 3), st.integers(1, 6), st.data(), angles)
    def test_quadrature_takes_whole_matrix_path(self, num_modes, n_total, data, kappa):
        basis = build_basis(num_modes, n_total)
        mode = data.draw(st.integers(0, num_modes - 1))
        check_exp_i(quadrature_p(basis, mode), kappa, sector_wise=False)

    @given(bases_and_axes(min_total=1), st.floats(1e-12, 1e-6), angles)
    def test_tiny_off_sector_term_takes_whole_matrix_path(self, case, eps, kappa):
        basis, axis = case
        mixed = schwinger_j(basis, axis) + eps * quadrature_p(basis, axis.i)
        check_exp_i(mixed, kappa, sector_wise=False)

    @given(bases_and_axes(), angles, st.booleans(), st.integers(0, 2**32 - 1))
    def test_gates_keep_norm_and_sector_masses(self, case, angle, squeeze, seed):
        basis, axis = case
        state = random_state(basis, seed)
        gate = spin_squeeze_unitary if squeeze else rotation_unitary
        out = gate(basis, axis, angle).matrix @ state.amplitudes
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
        np.testing.assert_allclose(
            PureState(basis, out).sector_masses(), state.sector_masses(), atol=1e-12
        )


class TestQuadrature:
    def test_vacuum_variance(self):
        basis = build_basis(1, 10)
        vacuum = basis.basis_state((0,))
        assert np.isclose(variance(vacuum, quadrature_p(basis, 0)), 0.25, atol=1e-12)

    def test_coherent_expectation(self):
        alpha = 1 + 2j
        state = coherent_truncated(alpha, 60)
        p = quadrature_p(state.basis, 0)
        assert abs(expectation(state, p) - alpha.imag) < 1e-8

    def test_hermitian(self):
        p = quadrature_p(build_basis(1, 8), 0).matrix
        assert np.max(np.abs(p - p.conj().T)) < 1e-12


class TestWeightedNumber:
    def test_zeta_zero(self):
        basis = build_basis(2, 3)
        n_zeta, n_perp = weighted_number(basis, 0.0)
        np.testing.assert_allclose(n_zeta.matrix, number_op(basis, 0).matrix)
        np.testing.assert_allclose(n_perp.matrix, -number_op(basis, 1).matrix)

    def test_perp_annihilates_correlated_family(self):
        state = correlated_three_mode(np.array([1, 1, 1]) / math.sqrt(3), 4)
        _, n_perp = weighted_number(state.basis, math.pi / 4)
        assert np.max(np.abs(n_perp.matrix @ state.amplitudes)) < 1e-12

    def test_sum_of_squares_identity(self):
        basis = build_basis(2, 4)
        for zeta in (0.0, 0.3, math.pi / 4, 2.0):
            n_zeta, n_perp = weighted_number(basis, zeta)
            lhs = n_zeta.matrix @ n_zeta.matrix + n_perp.matrix @ n_perp.matrix
            rhs = (
                number_op(basis, 0).matrix @ number_op(basis, 0).matrix
                + number_op(basis, 1).matrix @ number_op(basis, 1).matrix
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_needs_two_modes(self):
        with pytest.raises(ValueError):
            weighted_number(build_basis(1, 3), 0.2)


class TestWrappers:
    def test_hermitian_op_rejects_non_hermitian(self):
        basis = build_basis(1, 1)
        with pytest.raises(ValueError):
            HermitianOp(basis, [[0, 1], [0, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("wrapper", [HermitianOp, UnitaryOp])
    def test_wrappers_reject_non_finite(self, wrapper, bad):
        basis = build_basis(1, 1)
        for matrix in (np.full((2, 2), bad), np.diag([bad, 1.0])):
            with pytest.raises(ValueError):
                wrapper(basis, matrix)

    def test_hermitian_op_scaling_and_sum(self):
        basis = build_basis(1, 2)
        n = number_op(basis, 0)
        combo = 2.0 * n - n
        np.testing.assert_allclose(combo.matrix, n.matrix)
        with pytest.raises(TypeError):
            1j * n

    def test_unitary_op_rejects_non_unitary(self):
        basis = build_basis(1, 1)
        with pytest.raises(ValueError):
            UnitaryOp(basis, [[1, 0], [0, 2]])

    def test_unitary_apply_keeps_norm(self):
        basis = build_basis(2, 3)
        u = rotation_unitary(basis, PairAxis(0, 1, **X_AXIS), 0.77)
        state = u.apply(basis.basis_state((1, 2)))
        assert np.isclose(np.linalg.norm(state.amplitudes), 1.0)
