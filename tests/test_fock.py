import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrolab import (
    FockBasis,
    MixedState,
    PureState,
    build_basis,
    coherent_cutoff,
    coherent_truncated,
    correlated_three_mode,
    fidelity,
    noon,
    partial_trace,
    rotated_fock,
    with_reference,
)
from reference import amplitude, basis_state, density_matrix, purity, to_mixed, uhlmann_fidelity


def brute_force_dim(num_modes, n_total):
    return sum(
        1
        for occ in itertools.product(range(n_total + 1), repeat=num_modes)
        if sum(occ) <= n_total
    )


def loop_rank(basis, occ):
    """Reference rank: one binomial term per photon, as a plain loop."""
    occ = tuple(int(x) for x in occ)
    m = basis.num_modes
    rem = sum(occ)
    index = math.comb(rem + m - 1, m)
    for k in range(m - 1):
        left = m - k - 1
        for t in range(occ[k]):
            index += math.comb(rem - t + left - 1, left - 1)
        rem -= occ[k]
    return index


bases = st.builds(build_basis, st.integers(1, 5), st.integers(0, 12))


@st.composite
def basis_and_rows(draw, min_rows=0):
    """A basis plus a (k, num_modes) array of valid occupation vectors."""
    basis = draw(bases)
    rows = []
    for _ in range(draw(st.integers(min_rows, 20))):
        rem, row = basis.n_total, []
        for _ in range(basis.num_modes):
            row.append(draw(st.integers(0, rem)))
            rem -= row[-1]
        rows.append(draw(st.permutations(row)))
    return basis, np.array(rows, dtype=np.int64).reshape(-1, basis.num_modes)


def random_pure(rng, basis):
    v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return PureState(basis, v, normalize=True)


class TestBasis:
    def test_single_mode_dim(self):
        assert build_basis(1, 5).dim == 6

    @pytest.mark.parametrize("num_modes,n_total", [(2, 4), (4, 3), (3, 6)])
    def test_dim_matches_enumeration(self, num_modes, n_total):
        basis = build_basis(num_modes, n_total)
        assert basis.dim == brute_force_dim(num_modes, n_total)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            FockBasis(0, 3)
        with pytest.raises(ValueError):
            FockBasis(2, -1)

    def test_vacuum_is_index_zero(self):
        for basis in (build_basis(1, 4), build_basis(3, 5)):
            assert basis.rank((0,) * basis.num_modes) == 0

    @given(st.integers(1, 4), st.integers(0, 8))
    def test_sectors_tile_the_basis_in_order(self, num_modes, n_total):
        basis = FockBasis(num_modes, n_total)
        sectors = basis.sectors()
        assert sectors is basis.sectors()
        assert sectors == tuple(basis.sector_slice(s) for s in range(n_total + 1))
        assert sectors[0].start == 0 and sectors[-1].stop == basis.dim
        totals = basis.occupations().sum(axis=1)
        for s, block in enumerate(sectors):
            assert block.stop - block.start == math.comb(s + num_modes - 1, num_modes - 1)
            assert np.all(totals[block] == s)
        for s in (n_total + 1, -1):  # no such sector
            with pytest.raises(ValueError, match="sector"):
                basis.sector_slice(s)

    def test_rank_of_single_table_rows(self):
        basis = build_basis(4, 8)
        table = basis.occupations()
        rng = np.random.default_rng(7)
        for index in rng.integers(0, basis.dim, size=1000):
            assert basis.rank(table[index]) == int(index)

    def test_graded_ordering(self):
        basis = build_basis(2, 2)
        totals = basis.occupations().sum(axis=1).tolist()
        assert totals == sorted(totals)
        sector1 = basis.sector_slice(1)
        r10, r01 = basis.rank((1, 0)), basis.rank((0, 1))
        assert r10 != r01
        assert sector1.start <= r10 < sector1.stop
        assert sector1.start <= r01 < sector1.stop

    def test_occupations_agree_with_loop_rank(self):
        basis = build_basis(3, 4)
        for k, row in enumerate(basis.occupations()):
            assert loop_rank(basis, row) == k

    def test_rank_rejects_invalid_occupations(self):
        basis = build_basis(2, 3)
        with pytest.raises(ValueError):
            basis.rank((1, 1, 1))
        with pytest.raises(ValueError):
            basis.rank((2, 2))
        with pytest.raises(ValueError):
            basis.rank((-1, 1))
        with pytest.raises(ValueError, match="exceed"):
            build_basis(3, 4).rank((2**63 - 1, 2**63 - 1, 2))  # int64 sum wraps to 0
        for occ in ((0.5, 1), (1.7, 0), (math.nan, 1), (math.inf, 0), ("1", "0")):
            with pytest.raises(ValueError, match=r"occupation .* is not integral"):
                basis.rank(occ)
        assert basis.rank((1.0, 2.0)) == basis.rank(np.array([1, 2])) == basis.rank((1, 2))

    @given(basis_and_rows())
    def test_array_rank_matches_loop_reference(self, case):
        basis, rows = case
        expected = [loop_rank(basis, row) for row in rows]
        ranks = basis.rank(rows)
        assert ranks.dtype == np.int64 and ranks.shape == (len(rows),)
        assert ranks.tolist() == expected
        for row, index in zip(rows.tolist(), expected):
            single = basis.rank(row)
            assert type(single) is int and single == index

    @given(bases)
    def test_rank_of_occupation_table_is_arange(self, basis):
        assert np.array_equal(basis.rank(basis.occupations()), np.arange(basis.dim))

    @given(basis_and_rows())
    def test_occupations_row_at_each_rank(self, case):
        basis, rows = case
        assert np.array_equal(basis.occupations()[basis.rank(rows)], rows)

    @given(basis_and_rows(min_rows=1), st.data())
    def test_array_rank_rejects_invalid_rows(self, case, data):
        basis, rows = case
        k = data.draw(st.integers(0, len(rows) - 1))
        mode = data.draw(st.integers(0, basis.num_modes - 1))
        with pytest.raises(ValueError, match="modes"):
            basis.rank(np.hstack([rows, np.zeros((len(rows), 1), dtype=np.int64)]))
        negative = rows.copy()
        negative[k, mode] = -1
        with pytest.raises(ValueError, match="negative"):
            basis.rank(negative)
        overfull = rows.copy()
        overfull[k, mode] += basis.n_total + 1
        with pytest.raises(ValueError, match="exceed"):
            basis.rank(overfull)

    def test_rank_exact_just_below_int64(self):
        basis = FockBasis(18, 76)
        assert 0.97 * 2**63 < basis.dim < 2**63
        assert basis.rank((76,) + (0,) * 17) == basis.dim - 1
        assert basis.rank((0,) * 17 + (76,)) == math.comb(93, 18)

    def test_rank_refuses_dim_beyond_int64(self):
        basis = FockBasis(40, 60)
        assert basis.dim >= 2**63
        with pytest.raises(ValueError, match="int64"):
            basis.rank((0,) * 40)
        with pytest.raises(ValueError, match="int64"):
            basis.rank(np.zeros((3, 40), dtype=np.int64))

    @pytest.mark.parametrize("num_modes,n_total", [(1, 7), (2, 9), (3, 5), (5, 4)])
    def test_sector_sizes_sum_to_dim(self, num_modes, n_total):
        basis = build_basis(num_modes, n_total)
        blocks = [basis.sector_slice(s) for s in range(n_total + 1)]
        assert sum(block.stop - block.start for block in blocks) == basis.dim


class TestStates:
    def test_pure_state_rejects_unnormalized(self):
        basis = build_basis(1, 2)
        with pytest.raises(ValueError):
            PureState(basis, [1.0, 1.0, 0.0])
        state = PureState(basis, [1.0, 1.0, 0.0], normalize=True)
        assert np.isclose(np.linalg.norm(state.amplitudes), 1.0)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pure_state_rejects_non_finite(self, bad, normalize):
        basis = build_basis(1, 2)
        for amplitudes in (np.full(3, bad), [bad, 1.0, 0.0]):
            with pytest.raises(ValueError):
                PureState(basis, amplitudes, normalize=normalize)

    def test_normalize_rejects_overflowing_norm(self):
        with pytest.raises(ValueError, match="norm inf"):
            PureState(build_basis(1, 2), [1e200, 1e200, 0.0], normalize=True)

    def test_pure_state_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PureState(build_basis(1, 2), [1.0, 0.0])

    def test_mixed_state_validation(self):
        basis = build_basis(1, 1)
        with pytest.raises(ValueError):
            MixedState(basis, [[0.5, 0.5j], [0.5j, 0.5]])  # not Hermitian
        with pytest.raises(ValueError):
            MixedState(basis, [[0.7, 0], [0, 0.7]])  # trace 1.4
        with pytest.raises(ValueError):
            MixedState(basis, [[1.5, 0], [0, -0.5]])  # negative eigenvalue
        with pytest.raises(ValueError, match="basis dim is 2"):
            MixedState(basis, [[1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_mixed_state_rejects_non_finite(self, bad):
        basis = build_basis(1, 1)
        for matrix in (np.full((2, 2), bad), np.diag([bad, 1.0])):
            with pytest.raises(ValueError):
                MixedState(basis, matrix)

    def test_expand_cutoff_preserves_amplitudes(self):
        state = noon(3)
        bigger = state.expand_cutoff(5)
        assert bigger.basis.n_total == 5
        assert np.isclose(amplitude(bigger, (3, 0)), amplitude(state, (3, 0)))
        assert np.isclose(amplitude(bigger, (0, 3)), amplitude(state, (0, 3)))

    def test_factor_rebuilds_the_stored_matrix(self):
        rho = partial_trace(correlated_three_mode([0.6, 0.0, 0.8], 4), keep={0, 1})
        rebuilt = np.zeros_like(rho.matrix)
        for block, vb in rho._factors():
            rebuilt[block, block] += vb @ vb.conj().T
        np.testing.assert_allclose(rebuilt, rho.matrix, rtol=0, atol=1e-14)
        for block, vb in rho._factors(rho.basis.sectors()):
            rebuilt = vb @ vb.conj().T
            np.testing.assert_allclose(rebuilt, rho.matrix[block, block], rtol=0, atol=1e-14)


class TestFidelity:
    def test_self_fidelity_one(self):
        rng = np.random.default_rng(0)
        state = random_pure(rng, build_basis(2, 5))
        assert np.isclose(fidelity(state, state), 1.0)

    def test_orthogonal_fock_states(self):
        basis = build_basis(2, 1)
        a = basis_state(basis, (1, 0))
        b = basis_state(basis, (0, 1))
        assert fidelity(a, b) == 0.0

    def test_symmetric_and_phase_invariant(self):
        rng = np.random.default_rng(1)
        basis = build_basis(2, 4)
        a, b = random_pure(rng, basis), random_pure(rng, basis)
        assert np.isclose(fidelity(a, b), fidelity(b, a))
        rotated = PureState(basis, np.exp(0.7j) * a.amplitudes)
        assert np.isclose(fidelity(a, rotated), 1.0)
        assert fidelity(a, b) < 1.0 - 1e-6

    def test_basis_mismatch_raises(self):
        with pytest.raises(ValueError):
            fidelity(noon(2), noon(3))

    def test_uhlmann_consistent_with_pure(self):
        rng = np.random.default_rng(2)
        basis = build_basis(2, 3)
        a, b = random_pure(rng, basis), random_pure(rng, basis)
        assert np.isclose(uhlmann_fidelity(to_mixed(a), to_mixed(b)), fidelity(a, b), atol=1e-10)
        assert np.isclose(uhlmann_fidelity(a, to_mixed(b)), fidelity(a, b), atol=1e-12)

    @pytest.mark.parametrize("kinds", [(True, False), (False, True), (True, True)],
                             ids=["mixed-pure", "pure-mixed", "mixed-mixed"])
    def test_mixed_input_is_refused(self, kinds):
        state = noon(2)
        a, b = (to_mixed(state) if mixed else state for mixed in kinds)
        with pytest.raises(TypeError, match="fidelity expects two PureStates, got MixedState"):
            fidelity(a, b)

    def test_rotated_fock_close_to_embedded_coherent(self):
        # independent oracle: overlap of binomial amplitudes with the
        # renormalized Poisson profile, summed directly
        n_total, alpha = 40, 1.0
        theta = 2 * math.asin(alpha / math.sqrt(n_total))
        cutoff = coherent_cutoff(alpha)
        k_max = min(cutoff, n_total)
        poisson = np.array(
            [math.exp(-(alpha**2) / 2) * alpha**k / math.sqrt(math.factorial(k)) for k in range(k_max + 1)]
        )
        poisson /= np.linalg.norm(poisson)
        half = theta / 2
        binom = np.array(
            [
                math.sqrt(math.comb(n_total, k)) * math.cos(half) ** (n_total - k) * math.sin(half) ** k
                for k in range(k_max + 1)
            ]
        )
        expected = abs(np.dot(binom, poisson)) ** 2

        value = fidelity(
            rotated_fock(n_total, theta, 0.0),
            with_reference(coherent_truncated(alpha, cutoff), n_total),
        )
        assert value > 0.99
        assert np.isclose(value, expected, atol=1e-12)


def random_state_of_kind(rng, basis, mixed):
    """A random pure state, or a density matrix of random rank (1..dim)."""
    if not mixed:
        return random_pure(rng, basis)
    rank = int(rng.integers(1, basis.dim + 1))
    g = rng.standard_normal((basis.dim, rank)) + 1j * rng.standard_normal((basis.dim, rank))
    rho = g @ g.conj().T
    return MixedState(basis, rho / np.trace(rho).real)


@given(
    st.builds(build_basis, st.integers(1, 3), st.integers(0, 4)),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_uhlmann_reference_symmetric_and_in_unit_interval(basis, a_mixed, b_mixed, seed):
    """The dense fidelity the Bures QFI test relies on, on either kind of state."""
    rng = np.random.default_rng(seed)
    a = random_state_of_kind(rng, basis, a_mixed)
    b = random_state_of_kind(rng, basis, b_mixed)
    forward, backward = uhlmann_fidelity(a, b), uhlmann_fidelity(b, a)
    assert 0.0 <= forward <= 1.0 and 0.0 <= backward <= 1.0
    assert abs(forward - backward) <= 1e-10
    assert abs(uhlmann_fidelity(a, a) - 1.0) <= 1e-8
    if not (a_mixed or b_mixed):
        assert abs(forward - fidelity(a, b)) <= 1e-10
        assert fidelity(a, b) == fidelity(b, a) and 0.0 <= fidelity(a, b) <= 1.0


def loop_partial_trace(state, keep):
    """Reference reduction of a pure state: per traced configuration, a zeroed
    reduced vector and one full outer product."""
    basis = state.basis
    traced = [m for m in range(basis.num_modes) if m not in keep]
    reduced = build_basis(len(keep), basis.n_total)
    occ = basis.occupations()
    kept_rank = reduced.rank(occ[:, keep])
    traced_key = build_basis(len(traced), basis.n_total).rank(occ[:, traced])
    amp = state.amplitudes
    out = np.zeros((reduced.dim, reduced.dim), dtype=complex)
    for key in np.unique(traced_key[np.abs(amp) > 0]):
        idx = np.nonzero(traced_key == key)[0]
        v = np.zeros(reduced.dim, dtype=complex)
        v[kept_rank[idx]] = amp[idx]
        out += np.outer(v, v.conj())
    return (out + out.conj().T) / 2


class TestPartialTrace:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 6), st.floats(0.0, 0.95), st.data())
    def test_pure_input_matches_the_reference_loop(self, num_modes, n_total, zero_fraction, data):
        basis = build_basis(num_modes, n_total)
        modes = st.integers(0, num_modes - 1)
        keep = sorted(data.draw(st.sets(modes, min_size=1, max_size=num_modes - 1)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        v[rng.random(basis.dim) < zero_fraction] = 0
        v[data.draw(st.integers(0, basis.dim - 1))] = 1.0  # a sparse support, never empty
        state = PureState(basis, v, normalize=True)
        reduced = partial_trace(state, keep).matrix
        assert np.max(np.abs(reduced - loop_partial_trace(state, keep))) <= 1e-14

    def test_product_state_reduces_to_projector(self):
        basis = build_basis(2, 4)
        state = basis_state(basis, (4, 0))
        reduced = partial_trace(state, keep={0})
        expected = np.zeros((5, 5))
        expected[4, 4] = 1.0
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-14)

    def test_noon_reduction(self):
        reduced = partial_trace(noon(3), keep={0})
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-14)

    def test_schmidt_purity(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c /= np.linalg.norm(c)
        state = correlated_three_mode(c, 6)
        reduced = partial_trace(state, keep={0})
        assert np.isclose(purity(reduced), float(np.sum(np.abs(c) ** 4)), atol=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(noon(2), keep=set())
        with pytest.raises(ValueError):
            partial_trace(noon(2), keep={0, 5})

    def test_random_states_stay_valid(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            num_modes = int(rng.integers(2, 4))
            n_total = int(rng.integers(1, 6))
            basis = build_basis(num_modes, n_total)
            state = random_pure(rng, basis)
            keep = sorted(
                rng.choice(num_modes, size=int(rng.integers(1, num_modes)), replace=False)
            )
            reduced = partial_trace(state, keep=keep)
            assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12
            assert np.max(np.abs(reduced.matrix - reduced.matrix.conj().T)) < 1e-12
            assert float(np.linalg.eigvalsh(reduced.matrix)[0]) > -1e-10

    def test_product_reduces_to_factor(self):
        rng = np.random.default_rng(5)
        a = random_pure(rng, build_basis(2, 2))
        b = random_pure(rng, build_basis(1, 3))
        basis = build_basis(3, 5)  # a's cutoff plus b's: the product loses no amplitude
        amp = np.zeros(basis.dim, dtype=complex)
        for ka, occ_a in enumerate(a.basis.occupations()):
            for kb, occ_b in enumerate(b.basis.occupations()):
                amp[basis.rank((*occ_a, *occ_b))] = a.amplitudes[ka] * b.amplitudes[kb]
        product = PureState(basis, amp, normalize=True)
        reduced = partial_trace(product, keep={0, 1})
        expected = density_matrix(a.expand_cutoff(product.basis.n_total))
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-12)

    def test_keep_all_modes_is_density(self):
        state = noon(2)
        full = partial_trace(state, keep={0, 1})
        np.testing.assert_allclose(full.matrix, density_matrix(state), atol=1e-14)

    def test_mixed_input(self):
        rho = partial_trace(correlated_three_mode([1 / math.sqrt(2), 0, 1 / math.sqrt(2)], 4), keep={0, 1})
        again = partial_trace(rho, keep={0})
        assert abs(np.trace(again.matrix) - 1.0) < 1e-12
        assert float(np.linalg.eigvalsh(again.matrix)[0]) > -1e-10

