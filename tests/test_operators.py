import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from metrolab import (
    HermitianOp,
    MixedState,
    PairAxis,
    PureState,
    UnitaryOp,
    annihilation,
    build_basis,
    coherent_truncated,
    correlated_three_mode,
    expectation,
    general_probe,
    loss_channel,
    lossy_probe,
    number_op,
    quadrature_p,
    rotated_fock,
    rotation_unitary,
    schwinger_j,
    spin_squeeze_unitary,
    two_mode_fixed_n,
    variance,
    weighted_number,
)
from metrolab.fock import _spectrum
from metrolab.operators import _AXIS_TOL, _blocks, _ladder_entries
from reference import (
    basis_state, density_matrix, dense_jn, exp_i, loop_hopping, reference_gate, sector_masses,
)

def total_number(basis):
    return HermitianOp(basis, basis.occupations().sum(axis=1).astype(float))


X_AXIS = dict(beta=math.pi / 2, phi=0.0)
Y_AXIS = dict(beta=math.pi / 2, phi=math.pi / 2)
Z_AXIS = dict(beta=0.0, phi=0.0)
LADDER_BASES = [(1, 6), (2, 5), (3, 4), (4, 3), (5, 2)]

angles = st.floats(-2 * math.pi, 2 * math.pi)
seeds = st.integers(0, 2**32 - 1)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["beta", "phi"])
    def test_rejects_non_finite_angles(self, name, bad):
        angles = {"beta": 1.0, "phi": 0.5, name: bad}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=f"axis angle {name} must be finite"):
                PairAxis(0, 1, **angles)


class TestLadder:
    def test_annihilation_defining_action(self):
        basis = build_basis(2, 5)
        a0 = annihilation(basis, 0)
        one = basis_state(basis, (1, 0)).amplitudes
        out = a0 @ one
        assert np.isclose(out[basis.rank((0, 0))], 1.0)
        three_two = basis_state(basis, (3, 2)).amplitudes
        out = a0 @ three_two
        assert np.isclose(out[basis.rank((2, 2))], math.sqrt(3))
        # vacuum annihilated
        assert np.allclose(a0 @ basis_state(basis, (0, 0)).amplitudes, 0.0)

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
                    rows, cols, amp = _ladder_entries(basis, j, i=i)
                    hop = np.zeros((basis.dim, basis.dim), dtype=complex)
                    hop[rows, cols] = amp
                    assert np.array_equal(hop, loop_hopping(basis, i, j))

    def test_commutator_below_cutoff(self):
        basis = build_basis(2, 4)
        below = basis.sector_slice(4).start  # states with total < 4
        eye = np.eye(basis.dim)
        for i in range(2):
            for j in range(2):
                a_i = annihilation(basis, i)
                c_j = annihilation(basis, j).conj().T
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
        state = basis_state(basis, (2, 1))
        assert np.isclose(expectation(state, n0), 2.0)

    def test_fixed_sector_total(self):
        basis = build_basis(2, 6)
        total = HermitianOp(basis, number_op(basis, 0).weights + number_op(basis, 1).weights)
        block = basis.sector_slice(6)
        np.testing.assert_allclose(
            total.matrix[block, block], 6.0 * np.eye(7), atol=0
        )
        np.testing.assert_allclose(total.matrix, total_number(basis).matrix)

    def test_coherent_number_variance(self):
        state = coherent_truncated(2.0, 40)
        assert abs(variance(state, number_op(state.basis, 0)) - 4.0) < 1e-8


class TestSchwinger:
    def test_jz_diagonal_action(self):
        n_total = 5
        basis = build_basis(2, n_total)
        jz = schwinger_j(basis, PairAxis(0, 1, **Z_AXIS))
        for n in range(n_total + 1):
            state = basis_state(basis, (n, n_total - n))
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
            pair_number = number_op(basis, int(i)).matrix + number_op(basis, int(j)).matrix
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


@st.composite
def off_axis_angles(draw):
    """(beta, phi) drawn at random, in the xy-plane, or just off a pole."""
    kind = draw(st.sampled_from(["random", "planar", "near-pole"]))
    if kind == "random":
        return draw(st.floats(0, math.pi)), draw(st.floats(0, 2 * math.pi))
    if kind == "planar":
        return math.pi / 2, draw(st.floats(0, 2 * math.pi))
    eps = draw(st.floats(2 * _AXIS_TOL, 10 * _AXIS_TOL))
    beta = draw(st.sampled_from([eps, math.pi - eps]))
    return beta, draw(st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2]))


class TestScatterBuild:
    """Off-axis schwinger_j, scattered, against the dense sum of loop_hopping."""

    @given(st.integers(2, 4), st.integers(0, 6), st.data(), off_axis_angles(), seeds)
    def test_matches_the_dense_sum_bit_for_bit(self, num_modes, n_total, data, angles, seed):
        basis = build_basis(num_modes, n_total)
        i, j = data.draw(st.permutations(range(num_modes)))[:2]
        pair = PairAxis(i, j, beta=angles[0], phi=angles[1])
        _, nx, ny = pair.direction()
        assume(abs(nx) > _AXIS_TOL or abs(ny) > _AXIS_TOL)
        op = schwinger_j(basis, pair)
        assert op.weights is None
        assert np.array_equal(op.matrix, dense_jn(basis, pair))
        assert not op.matrix.flags.writeable
        assert op.matrix is op.matrix  # built once, then cached
        HermitianOp(basis, op.matrix)  # the public hermiticity check
        raw = np.random.default_rng(seed).standard_normal((2, n_total + 1))
        state = two_mode_fixed_n((raw[0] + 1j * raw[1]) / np.linalg.norm(raw), n_total)
        pair2 = PairAxis(*((0, 1) if i < j else (1, 0)), beta=angles[0], phi=angles[1])
        reference = variance(state, HermitianOp(state.basis, dense_jn(state.basis, pair2)))
        # the ladder apply sums each row in its own order, so only the last digits may differ
        assert abs(variance(state, schwinger_j(state.basis, pair2)) - reference) <= 1e-13 * reference

    @given(st.integers(2, 4), st.integers(0, 6), st.data(), off_axis_angles(), seeds)
    def test_ladder_apply_matches_the_dense_product(self, num_modes, n_total, data, angles, seed):
        basis = build_basis(num_modes, n_total)
        i, j = data.draw(st.permutations(range(num_modes)))[:2]
        pair = PairAxis(i, j, beta=angles[0], phi=angles[1])
        _, nx, ny = pair.direction()
        assume(abs(nx) > _AXIS_TOL or abs(ny) > _AXIS_TOL)
        # spread over every sector, with sector weights of different sizes
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.1, 1.0, n_total + 1)[basis.occupations().sum(axis=1)]
        amp = scale * (rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim))
        state = PureState(basis, amp, normalize=True)
        op = schwinger_j(basis, pair)
        mean, var = expectation(state, op), variance(state, op)
        assert op._matrix is None  # both read the ladder form only
        v = state.amplitudes
        dense_hv = op.matrix @ v
        dense_mean = float(np.real(np.vdot(v, dense_hv)))
        dense_dev = dense_hv - dense_mean * v
        dense_var = float(np.real(np.vdot(dense_dev, dense_dev)))
        assert np.max(np.abs(op._apply(v) - dense_hv), initial=0.0) <= 1e-13 * max(1, n_total)
        assert abs(mean - dense_mean) <= 1e-13 * max(1, n_total)
        assert abs(var - dense_var) <= 1e-13 * max(1.0, dense_var)

    def test_variance_at_n_max_60_builds_no_dense_matrix(self):
        basis = build_basis(2, 60)
        rng = np.random.default_rng(60)
        state = PureState(basis, rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim),
                          normalize=True)
        basis.occupations()
        tracemalloc.start()
        try:
            op = schwinger_j(basis, PairAxis(0, 1, beta=1.1, phi=0.4))
            variance(state, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op._matrix is None
        dense_bytes = basis.dim**2 * np.dtype(complex).itemsize
        assert peak < dense_bytes / 100, (peak, dense_bytes)


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
        out = u.apply(basis_state(basis, (0, n_total)))
        target = rotated_fock(n_total, theta, 0.0)
        assert np.max(np.abs(out.amplitudes - target.amplitudes)) < 1e-10

    def test_axis_helper_matches_convention(self):
        n_total, theta, phi = 7, 0.9, 2.3
        basis = build_basis(2, n_total)
        axis = PairAxis(0, 1, beta=math.pi / 2, phi=math.pi / 2 - phi)
        u = rotation_unitary(basis, axis, theta)
        out = u.apply(basis_state(basis, (0, n_total)))
        target = rotated_fock(n_total, theta, phi)
        assert np.max(np.abs(out.amplitudes - target.amplitudes)) < 1e-10

    def test_number_conserving(self):
        basis = build_basis(3, 4)
        u = rotation_unitary(basis, PairAxis(1, 2, beta=0.7, phi=1.9), 1.3).matrix
        total = total_number(basis).matrix
        assert np.max(np.abs(u @ total - total @ u)) < 1e-10


class TestSpinSqueeze:
    def test_zero_gamma_is_identity(self):
        basis = build_basis(2, 3)
        u = spin_squeeze_unitary(basis, PairAxis(0, 1, **X_AXIS), 0.0)
        np.testing.assert_allclose(u.matrix, np.eye(basis.dim), atol=1e-12)

    def test_commutes_with_pair_number(self):
        basis = build_basis(2, 5)
        u = spin_squeeze_unitary(basis, PairAxis(0, 1, beta=0.9, phi=0.2), 0.31).matrix
        total = total_number(basis).matrix
        assert np.max(np.abs(u @ total - total @ u)) < 1e-12

    def test_diagonal_phases_in_jz_eigenbasis(self):
        n_total, gamma = 6, 0.37
        basis = build_basis(2, n_total)
        u = spin_squeeze_unitary(basis, PairAxis(0, 1, **Z_AXIS), gamma)
        for n in range(n_total + 1):
            state = basis_state(basis, (n, n_total - n))
            out = u.matrix @ state.amplitudes
            m = n - n_total / 2
            expected = np.exp(1j * gamma * m**2)
            assert abs(out[basis.rank((n, n_total - n))] - expected) < 1e-12


def check_exp_i(h, kappa, sector_wise):
    """exp(i kappa H) from H's spectrum against scipy's expm, and which blocks were decomposed."""
    basis = h.basis
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        u = exp_i(basis, _spectrum(h.matrix, _blocks(basis, h.matrix)), lambda w: kappa * w)
    sectors = [block.stop - block.start for block in basis.sectors()]
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
        mixed = HermitianOp(
            basis, schwinger_j(basis, axis).matrix + eps * quadrature_p(basis, axis.i).matrix
        )
        check_exp_i(mixed, kappa, sector_wise=False)

    @given(bases_and_axes(), angles, st.booleans(), st.integers(0, 2**32 - 1))
    def test_gates_keep_norm_and_sector_masses(self, case, angle, squeeze, seed):
        basis, axis = case
        state = random_state(basis, seed)
        gate = spin_squeeze_unitary if squeeze else rotation_unitary
        out = gate(basis, axis, angle).matrix @ state.amplitudes
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
        np.testing.assert_allclose(
            sector_masses(PureState(basis, out)), sector_masses(state), atol=1e-12
        )


@st.composite
def gate_cases(draw):
    """A basis of 2..4 modes with N <= 5, a pair in either order, on the z axis or a random one."""
    basis = build_basis(draw(st.integers(2, 4)), draw(st.integers(0, 5)))
    i, j = draw(st.permutations(range(basis.num_modes)))[:2]
    beta = draw(st.one_of(st.just(0.0), st.floats(0, math.pi)))
    return basis, PairAxis(i, j, beta=beta, phi=draw(st.floats(0, 2 * math.pi)))


def gate_and_reference(basis, pair, angle, squeeze):
    if squeeze:
        return spin_squeeze_unitary(basis, pair, angle), reference_gate(
            basis, pair, lambda w: angle * w**2)
    return rotation_unitary(basis, pair, angle), reference_gate(basis, pair, lambda w: angle * w)


def gate_atol(basis, angle, squeeze):
    """1e-13 per 2 pi of the gate phase's slope over J_n's spectrum, and at least 1e-13.

    The slope is |angle| for a rotation and up to |angle| N for a twist
    (d(gamma w^2)/dw at |w| = N/2): an eigenvalue's rounding moves the
    phase that much.  At N = 5 and |gamma| near 2 pi the gate and the
    dense per-sector gate differ by up to 1.2e-13.
    """
    slope = abs(angle) * (basis.n_total if squeeze else 1)
    return 1e-13 * max(1.0, slope / (2 * math.pi))


class TestPairSpectrum:
    @given(
        bases_and_axes(),
        st.floats(0, math.pi),
        st.floats(0, 2 * math.pi),
        st.lists(st.tuples(st.booleans(), st.booleans(), angles), min_size=1, max_size=6),
    )
    def test_gates_equal_a_fresh_decomposition(self, case, beta, phi, steps):
        """Repeated and interleaved angles and pairs give the same bits, within
        :func:`gate_atol` of the dense gate from a per-sector eigh."""
        basis, first = case
        pairs = (first, PairAxis(first.j, first.i, beta=beta, phi=phi))
        seen = {}
        for other, squeeze, angle in steps + steps[::-1]:
            gate, expected = gate_and_reference(basis, pairs[other], angle, squeeze)
            assert np.max(np.abs(gate.matrix - expected)) <= gate_atol(basis, angle, squeeze)
            first_bits = seen.setdefault((other, squeeze, angle), gate.matrix)
            assert np.array_equal(gate.matrix, first_bits)

    def test_gates_run_no_sector_census(self):
        """J_n conserves number by construction, so its gates never test for blocks."""
        basis = build_basis(3, 4)
        with mock.patch("metrolab.operators._blocks", wraps=_blocks) as census:
            rotation_unitary(basis, PairAxis(0, 2, beta=1.0, phi=0.3), 0.4)
            spin_squeeze_unitary(basis, PairAxis(0, 1, beta=0.7), 0.2)
            rotation_unitary(basis, PairAxis(1, 2), 0.2)  # a z-axis pair
        census.assert_not_called()


class TestKBlockGates:
    """Gates kept as (spectator configuration, K) blocks against the dense per-sector gate."""

    @given(gate_cases(), angles, st.booleans(), seeds)
    def test_apply_and_matrix_match_the_dense_gate(self, case, angle, squeeze, seed):
        basis, pair = case
        gate, expected = gate_and_reference(basis, pair, angle, squeeze)
        state = random_state(basis, seed)
        atol = gate_atol(basis, angle, squeeze)
        out = gate.apply(state).amplitudes
        assert np.max(np.abs(out - expected @ state.amplitudes)) <= atol
        view = gate.matrix
        assert np.max(np.abs(view - expected)) <= atol
        assert gate.matrix is view and not view.flags.writeable

    @given(gate_cases(), angles, st.booleans(), seeds)
    def test_unoccupied_spectators_stay_exactly_empty(self, case, angle, squeeze, seed):
        """A gate on (i, j) never moves amplitude between configurations of the other modes."""
        basis, pair = case
        gate, _ = gate_and_reference(basis, pair, angle, squeeze)
        occ = basis.occupations()
        _, spectator = np.unique(np.delete(occ, [pair.i, pair.j], axis=1), axis=0,
                                 return_inverse=True)
        spectator = spectator.ravel()
        rng = np.random.default_rng(seed)
        occupied = rng.random(spectator.max() + 1) < 0.5
        occupied[rng.integers(len(occupied))] = True
        amp = np.where(occupied[spectator], rng.standard_normal(basis.dim) + 1j, 0)
        out = gate.apply(PureState(basis, amp, normalize=True)).amplitudes
        assert np.all(out[~occupied[spectator]] == 0)
        assert np.all(gate.matrix[spectator[:, None] != spectator[None, :]] == 0)

    def test_lossy_probe_on_a_basis_too_large_for_a_dense_gate(self):
        n_total, kappa = 14, 0.9
        basis = build_basis(4, n_total)
        assert basis.dim == 3060
        rng = np.random.default_rng(14)
        n1, n2 = np.meshgrid(np.arange(n_total + 1), np.arange(n_total + 1), indexing="ij")
        inside = n1 + n2 <= n_total
        c = (rng.standard_normal(n1.shape) + 1j * rng.standard_normal(n1.shape)) * inside
        c /= np.linalg.norm(c)
        basis.occupations()
        tracemalloc.start()
        try:
            rho = lossy_probe(general_probe(c, n_total), 0, kappa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_bytes = basis.dim**2 * np.dtype(complex).itemsize
        assert peak < dense_bytes, (peak, dense_bytes)
        probe_basis = build_basis(3, n_total)  # the same probe without the environment mode
        amp = np.zeros(probe_basis.dim, dtype=complex)
        amp[probe_basis.rank(np.stack([n1, n2, n_total - n1 - n2], axis=-1)[inside])] = c[inside]
        expected = loss_channel(PureState(probe_basis, amp), 0, kappa)
        np.testing.assert_allclose(rho.matrix, expected.matrix, rtol=0, atol=1e-12)


class TestQuadrature:
    def test_vacuum_variance(self):
        basis = build_basis(1, 10)
        vacuum = basis_state(basis, (0,))
        assert np.isclose(variance(vacuum, quadrature_p(basis, 0)), 0.25, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 1 - 1.5j])
    def test_coherent_keeps_vacuum_noise(self, alpha):
        # a displacement moves <p> but not Var(p): 1/sqrt(4 Var(p)) stays 1
        state = coherent_truncated(alpha, 40)
        assert abs(variance(state, quadrature_p(state.basis, 0)) - 0.25) < 1e-8

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
        np.testing.assert_allclose(weighted_number(basis, 0.0).matrix, number_op(basis, 0).matrix)
        # the perpendicular partner at zeta = 0; cos(-pi/2) is 6e-17, not 0
        np.testing.assert_allclose(
            weighted_number(basis, -math.pi / 2).matrix, -number_op(basis, 1).matrix,
            rtol=0, atol=1e-15,
        )

    def test_perp_annihilates_correlated_family(self):
        state = correlated_three_mode(np.array([1, 1, 1]) / math.sqrt(3), 4)
        n_perp = weighted_number(state.basis, math.pi / 4 - math.pi / 2)
        assert np.max(np.abs(n_perp.matrix @ state.amplitudes)) < 1e-12

    def test_sum_of_squares_identity(self):
        basis = build_basis(2, 4)
        for zeta in (0.0, 0.3, math.pi / 4, 2.0):
            n_zeta, n_perp = weighted_number(basis, zeta), weighted_number(basis, zeta - math.pi / 2)
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

    def test_dense_op_stores_its_exactly_hermitian_part(self):
        """Input accepted with a residual is stored Hermitian to the bit."""
        basis = build_basis(2, 3)
        rng = np.random.default_rng(8)
        g = rng.standard_normal((basis.dim, basis.dim)) + 1j * rng.standard_normal(
            (basis.dim, basis.dim)
        )
        exact = g + g.conj().T
        assert np.array_equal(HermitianOp(basis, exact).matrix, exact)  # its bits are kept
        skew = np.zeros_like(exact)
        skew[0, 1] = 4e-13
        op = HermitianOp(basis, exact + skew)
        np.testing.assert_allclose(op.matrix, exact + (skew + skew.T) / 2, rtol=0, atol=1e-15)
        assert np.array_equal(op.matrix, op.matrix.conj().T)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            huge = HermitianOp(basis, np.diag(np.full(basis.dim, 1e308)) + skew)
        assert np.all(np.isfinite(huge.matrix))
        assert np.array_equal(huge.matrix, huge.matrix.conj().T)

    def test_unitary_op_rejects_non_unitary(self):
        basis = build_basis(1, 1)
        with pytest.raises(ValueError):
            UnitaryOp(basis, [[1, 0], [0, 2]])
        with pytest.raises(ValueError, match="does not match dim 2"):
            UnitaryOp(basis, np.eye(3))

    def test_unitary_apply_keeps_norm(self):
        basis = build_basis(2, 3)
        u = rotation_unitary(basis, PairAxis(0, 1, **X_AXIS), 0.77)
        state = u.apply(basis_state(basis, (1, 2)))
        assert np.isclose(np.linalg.norm(state.amplitudes), 1.0)


small_bases = st.builds(build_basis, st.integers(1, 4), st.integers(0, 5))


def random_mixed(basis, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((basis.dim, basis.dim)) + 1j * rng.standard_normal(
        (basis.dim, basis.dim)
    )
    rho = g @ g.conj().T
    return MixedState(basis, rho / np.trace(rho).real)


class TestDiagonalForm:
    """Weight-form operators against dense np.diag references built here."""

    @given(small_bases, seeds, st.booleans())
    def test_expectation_and_variance_match_dense(self, basis, seed, mixed):
        weights = np.random.default_rng(seed).uniform(-5.0, 5.0, basis.dim)
        diag, dense = np.diag(weights), HermitianOp(basis, np.diag(weights))
        op = HermitianOp(basis, weights)
        state = random_mixed(basis, seed + 1) if mixed else random_state(basis, seed + 1)
        rho = state.matrix if mixed else density_matrix(state)
        mean = float(np.real(np.trace(rho @ diag)))
        shifted = diag - mean * np.eye(basis.dim)
        var = float(np.real(np.trace(rho @ shifted @ shifted)))
        assert abs(expectation(state, op) - mean) <= 1e-12
        assert abs(expectation(state, op) - expectation(state, dense)) <= 1e-12
        assert abs(variance(state, op) - max(var, 0.0)) <= 1e-12
        assert abs(variance(state, op) - variance(state, dense)) <= 1e-12

    @given(small_bases, st.data())
    def test_builders_keep_weights_and_a_read_only_view(self, basis, data):
        occ = basis.occupations().astype(float)
        mode = data.draw(st.integers(0, basis.num_modes - 1))
        cases = [(number_op(basis, mode), occ[:, mode]), (total_number(basis), occ.sum(axis=1))]
        if basis.num_modes >= 2:
            zeta = data.draw(angles)
            c, s = math.cos(zeta), math.sin(zeta)
            half_diff = (occ[:, 0] - occ[:, 1]) / 2
            cases += [
                (weighted_number(basis, zeta), c * occ[:, 0] + s * occ[:, 1]),
                (schwinger_j(basis, PairAxis(0, 1, **Z_AXIS)), half_diff),
                (schwinger_j(basis, PairAxis(0, 1, beta=math.pi)), -half_diff),
            ]
        for op, weights in cases:
            assert op.weights is not None
            np.testing.assert_array_equal(op.weights, weights)
            view = op.matrix
            assert view.dtype == complex
            np.testing.assert_array_equal(view, np.diag(weights))
            assert op.matrix is view
            assert not view.flags.writeable and not op.weights.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 1.0

    def test_off_axis_schwinger_is_dense(self):
        basis = build_basis(2, 3)
        assert schwinger_j(basis, PairAxis(0, 1, **X_AXIS)).weights is None
        assert quadrature_p(basis, 0).weights is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0 + 1e-3j, 2.0 + 0j])
    def test_rejects_non_finite_and_complex_weights(self, bad):
        basis = build_basis(2, 2)
        weights = np.ones(basis.dim, dtype=type(bad))
        weights[3] = bad
        with pytest.raises(ValueError):
            HermitianOp(basis, weights)

    def test_rejects_weights_of_the_wrong_length(self):
        basis = build_basis(2, 2)
        with pytest.raises(ValueError, match="does not match dim"):
            HermitianOp(basis, np.ones(basis.dim + 1))
