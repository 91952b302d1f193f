"""Library products that skip their constructor's checks still pass them.

Gates, off-axis pair operators, the momentum quadrature, reduced states
and optimal POVMs are exact by construction, so they are built without
the checks that ``HermitianOp``, ``UnitaryOp``, ``MixedState`` and
``Povm`` run on caller input.  These tests run those checks on the
products instead.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metrolab import (
    HermitianOp,
    MixedState,
    PairAxis,
    Povm,
    PureState,
    UnitaryOp,
    build_basis,
    general_probe,
    lossy_probe,
    optimal_povm,
    partial_trace,
    quadrature_p,
    rotation_unitary,
    schwinger_j,
    spin_squeeze_unitary,
)
from reference import density_matrix

angles = st.floats(-2 * math.pi, 2 * math.pi)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def pair_cases(draw, off_axis=False):
    """A basis of 2..4 modes with a small cutoff and an axis on one of its pairs."""
    basis = build_basis(draw(st.integers(2, 4)), draw(st.integers(0, 4)))
    modes = st.integers(0, basis.num_modes - 1)
    i, j = draw(st.lists(modes, min_size=2, max_size=2, unique=True))
    beta = draw(st.floats(0.1, math.pi - 0.1) if off_axis else angles)
    return basis, PairAxis(i, j, beta=beta, phi=draw(angles))


def random_state(seed, basis, mixed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, basis.dim + 1)) if mixed else 1
    g = rng.standard_normal((basis.dim, rank)) + 1j * rng.standard_normal((basis.dim, rank))
    if not mixed:
        return PureState(basis, g[:, 0], normalize=True)
    rho = g @ g.conj().T
    return MixedState(basis, rho / np.trace(rho).real)


@given(pair_cases(), angles, angles)
def test_gates_pass_the_unitary_constructor(case, angle, gamma):
    basis, axis = case
    for gate in (rotation_unitary(basis, axis, angle), spin_squeeze_unitary(basis, axis, gamma)):
        UnitaryOp(basis, gate.matrix)
        assert not gate.matrix.flags.writeable


@given(pair_cases(off_axis=True), st.integers(0, 3))
def test_dense_generators_pass_the_hermitian_constructor(case, mode):
    basis, axis = case
    for op in (schwinger_j(basis, axis), quadrature_p(basis, mode % basis.num_modes)):
        assert op.weights is None
        HermitianOp(basis, op.matrix)
        assert not op.matrix.flags.writeable


@given(st.integers(1, 4), st.integers(0, 3), seeds, st.booleans(), st.data())
def test_reduced_states_pass_the_mixed_constructor(num_modes, n_total, seed, mixed, data):
    basis = build_basis(num_modes, n_total)
    state = random_state(seed, basis, mixed)
    keep = data.draw(st.sets(st.integers(0, num_modes - 1), min_size=1))
    rho = partial_trace(state, keep)
    MixedState(rho.basis, rho.matrix)  # hermiticity, trace and PSD
    assert not rho.matrix.flags.writeable


@given(st.integers(1, 3), seeds, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_optimal_povm_passes_the_povm_constructor(n_total, seed, purity, kappa0):
    rng = np.random.default_rng(seed)
    basis = build_basis(2, n_total)
    pure = random_state(seed, basis, mixed=False)
    rho = purity * density_matrix(pure) + (1.0 - purity) * np.eye(basis.dim) / basis.dim
    axis = PairAxis(0, 1, beta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi))
    povm = optimal_povm(MixedState(basis, rho), schwinger_j(basis, axis), kappa0=kappa0)
    Povm(povm.vectors)
    assert povm.vectors.shape[1] == basis.dim
    assert not povm.vectors.flags.writeable


def test_optimal_povm_runs_no_eigvalsh():
    c = np.zeros((6, 6), dtype=complex)
    c[5, 0] = c[0, 5] = 1 / math.sqrt(2)
    rho = lossy_probe(general_probe(c, 5), 0, math.pi / 4)
    assert rho.basis.dim == 56
    generator = schwinger_j(rho.basis, PairAxis(0, 2))
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        povm = optimal_povm(rho, generator, kappa0=0.37)
    assert povm.vectors.shape[1] == 56 and eigvalsh.call_count == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gates_reject_non_finite_angles(bad):
    basis = build_basis(2, 2)
    axis = PairAxis(0, 1, beta=1.0, phi=0.3)
    with pytest.raises(ValueError, match="finite"):
        rotation_unitary(basis, axis, bad)
    with pytest.raises(ValueError, match="finite"):
        spin_squeeze_unitary(basis, axis, bad)
