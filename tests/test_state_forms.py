"""Each state-level quantity on every form of state and on each operator form.

The metrology layer reads a state only through its factors, rho = V V†,
and an operator only through its `_apply`.  So a pure state, its
density-matrix twin and its factor-form twin must give the same numbers,
for a diagonal, a ladder and a dense operator alike, and all must match
the dense formula.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metrolab import (
    HermitianOp,
    MixedState,
    PairAxis,
    PureState,
    build_basis,
    correlated_three_mode,
    expectation,
    fisher_information,
    loss_channel,
    number_covariance,
    number_op,
    optimal_povm,
    partial_trace,
    qfi_mixed,
    quadrature_p,
    schwinger_j,
    variance,
)
from metrolab import fock
from reference import dense_partial_trace, density_matrix, to_factor, to_mixed


def dense_mean(rho, h):
    return float(np.real(np.trace(rho @ h.matrix)))


def dense_variance(rho, h):
    return float(np.real(np.trace(rho @ h.matrix @ h.matrix))) - dense_mean(rho, h) ** 2


def dense_covariance(rho, basis):
    occ = basis.occupations().astype(float)
    probs = np.real(np.diag(rho))
    mean = probs @ occ
    return occ.T @ (probs[:, None] * occ) - np.outer(mean, mean)


KAPPA0 = 0.3

# name: (the library's value on a state, the dense value from its density matrix).
# Every state drawn is rank one, so its QFI is 4 Var(H), and the SLD basis
# at KAPPA0 attains it.
QUANTITIES = {
    "expectation": (expectation, dense_mean),
    "variance": (variance, dense_variance),
    "qfi_mixed": (lambda s, h: qfi_mixed(s, h).qfi, lambda rho, h: 4 * dense_variance(rho, h)),
    "number_covariance": (
        lambda s, h: number_covariance(s), lambda rho, h: dense_covariance(rho, h.basis)
    ),
    "partial_trace": (
        lambda s, h: partial_trace(s, keep=(0,)).matrix,
        lambda rho, h: dense_partial_trace(rho, h.basis, (0,)),
    ),
    "optimal_povm+fisher_information": (
        lambda s, h: fisher_information(
            s, h, optimal_povm(s, h, kappa0=KAPPA0), kappa0=KAPPA0, method="analytic"
        ),
        lambda rho, h: 4 * dense_variance(rho, h),
    ),
}


@st.composite
def states_and_generators(draw):
    """(pure state, generator) on 2 or 3 modes; the state fills one sector or all of them.

    The generator is diagonal (weights), an off-axis J_n (ladder form), a
    dense copy of that J_n (keeps the sectors) or a quadrature (mixes them).
    """
    num_modes, n_total = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    basis = build_basis(num_modes, n_total)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    if draw(st.booleans()):
        amp[: basis.sector_slice(n_total).start] = 0
    state = PureState(basis, amp, normalize=True)
    i, j = draw(st.permutations(range(num_modes)))[:2]
    axis = PairAxis(i, j, beta=rng.uniform(0.2, 3.0), phi=rng.uniform(0, 2 * math.pi))
    form = draw(st.sampled_from(["weights", "ladder", "dense", "mixing"]))
    if form == "weights":
        return state, number_op(basis, draw(st.integers(0, num_modes - 1)))
    if form == "mixing":
        return state, quadrature_p(basis, 0)
    ladder = schwinger_j(basis, axis)
    return state, ladder if form == "ladder" else HermitianOp(basis, ladder.matrix)


@pytest.mark.parametrize("name", sorted(QUANTITIES))
@settings(max_examples=40, deadline=None)
@given(case=states_and_generators())
def test_pure_and_mixed_twins_match_the_dense_formula(name, case):
    state, gen = case
    library, dense = QUANTITIES[name]
    expected = np.asarray(dense(density_matrix(state), gen))
    bound = 1e-12 * max(1.0, float(np.max(np.abs(expected))))
    for twin in (state, to_mixed(state), to_factor(state)):
        assert np.max(np.abs(np.asarray(library(twin, gen)) - expected)) <= bound


def lossy_correlated(n_total, kappa):
    """The correlated three-mode probe after loss on mode 2: every sector 0..n_total is held."""
    coeffs = np.full(n_total // 2 + 1, 1.0) / math.sqrt(n_total // 2 + 1)
    return loss_channel(correlated_three_mode(coeffs, n_total), 2, kappa)


def test_mixed_moments_of_an_off_axis_pair_build_no_dense_view():
    rho = lossy_correlated(6, 0.9)
    gen = schwinger_j(rho.basis, PairAxis(0, 2, beta=1.1, phi=0.4))
    mean, var = expectation(rho, gen), variance(rho, gen)
    assert gen._matrix is None
    expected_mean, expected_var = dense_mean(rho.matrix, gen), dense_variance(rho.matrix, gen)
    assert abs(mean - expected_mean) <= 1e-12 * max(1.0, abs(expected_mean))
    assert abs(var - expected_var) <= 1e-12 * max(1.0, expected_var)


def factor_and_dense(n_total=6, kappa=0.9):
    """The lossy correlated probe in factor form, and its checked dense twin (from another
    instance, so that the factor's dense view stays unbuilt)."""
    rho = lossy_correlated(n_total, kappa)
    return rho, MixedState(rho.basis, lossy_correlated(n_total, kappa).matrix)


@pytest.mark.parametrize("form", ["factor", "dense"])
def test_census_and_eigenpairs_run_once_per_state(form):
    """A dense rho counts its nonzeros and solves each sector once; a factor does neither, and
    solves each sector's Gram matrix once, at most (N+1) x (N+1), and builds no dense view."""
    factor, dense = factor_and_dense()
    rho = factor if form == "factor" else dense
    jz = schwinger_j(rho.basis, PairAxis(0, 2))
    jn = schwinger_j(rho.basis, PairAxis(0, 1, beta=1.0, phi=0.3))
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
            mock.patch.object(fock, "_blocks", wraps=fock._blocks) as census:
        qfi_mixed(rho, jz)
        first = [c.args[0].shape[0] for c in eigh.call_args_list]
        qfi_mixed(rho, jn)
        expectation(rho, jn)
        variance(rho, jz)
        partial_trace(rho, keep=(0, 1))
        number_covariance(rho)
    sectors = rho.basis.sectors()
    assert eigh.call_count == len(first) == len(sectors)
    if form == "dense":
        assert first == [block.stop - block.start for block in sectors]
        assert census.call_count == 1
    else:
        assert max(first) <= rho.basis.n_total + 1
        assert census.call_count == 0
        assert rho._matrix is None


@pytest.mark.parametrize("form", ["factor", "dense"])
def test_a_sector_mixing_generator_solves_rho_once(form):
    """The whole-block eigenpairs found for a generator that mixes sectors are kept."""
    rho = factor_and_dense()[form == "dense"]
    p = quadrature_p(rho.basis, 0)
    first, qfi = variance(rho, p), qfi_mixed(rho, p).qfi
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        assert variance(rho, p) == first
        assert qfi_mixed(rho, p).qfi == qfi
    assert eigh.call_count == 0


@st.composite
def lossy_cases(draw):
    """(loss_channel output, generator): a random 3-mode state, fixed-N (sector blocks) or over
    every sector (one whole block), and a diagonal, ladder, dense or sector-mixing generator."""
    n_total = draw(st.integers(1, 6))
    basis = build_basis(3, n_total)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    amp[rng.random(basis.dim) < 0.3] = 0
    if draw(st.booleans()):
        amp[: basis.sector_slice(n_total).start] = 0
    amp[-1] = 1.0  # the support is never empty
    state = PureState(basis, amp, normalize=True)
    rho = loss_channel(state, draw(st.integers(0, 2)), draw(st.floats(0, math.pi)))
    i, j = draw(st.permutations(range(3)))[:2]
    axis = PairAxis(i, j, beta=rng.uniform(0.2, 3.0), phi=rng.uniform(0, 2 * math.pi))
    form = draw(st.sampled_from(["weights", "ladder", "dense", "mixing"]))
    if form == "weights":
        return rho, schwinger_j(basis, PairAxis(i, j))
    if form == "mixing":
        return rho, quadrature_p(basis, i)
    ladder = schwinger_j(basis, axis)
    return rho, ladder if form == "ladder" else HermitianOp(basis, ladder.matrix)


@settings(max_examples=80, deadline=None)
@given(case=lossy_cases())
def test_factor_qfi_matches_the_dense_qfi_of_its_matrix(case):
    rho, gen = case
    expected = qfi_mixed(MixedState(rho.basis, rho.matrix), gen).qfi
    assert abs(qfi_mixed(rho, gen).qfi - expected) <= 1e-12 * max(1.0, expected)


@settings(max_examples=60, deadline=None)
@given(case=lossy_cases(), kappa0=st.floats(0.0, 1.0))
def test_optimal_povm_on_a_factor_attains_its_qfi(case, kappa0):
    """The thin eigenframe, completed by a kernel basis, gives an orthonormal SLD basis."""
    rho, gen = case
    qfi = qfi_mixed(rho, gen).qfi
    assume(qfi > 1e-6)
    povm = optimal_povm(rho, gen, kappa0=kappa0)
    assert np.max(np.abs(povm.vectors.conj().T @ povm.vectors - np.eye(rho.basis.dim))) <= 1e-10
    fi = fisher_information(rho, gen, povm, kappa0=kappa0, method="analytic")
    assert 0.999 <= fi / qfi <= 1.001
