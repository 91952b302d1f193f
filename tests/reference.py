"""Dense references that the tests compare the library against.

Nothing here is part of metrolab.  Each function is the plain, dense
form of a quantity that the library computes another way, or that only
tests need: a basis vector, a density matrix, sector masses, purity, the
Uhlmann fidelity of two density matrices and the off-axis J_n summed from
loop-built ladder matrices.  Tests import it as ``reference``.
"""

import math

import numpy as np

from metrolab import MixedState, PureState


def basis_state(basis, occ):
    """The unit vector of one occupation configuration."""
    amp = np.zeros(basis.dim, dtype=complex)
    amp[basis.rank(occ)] = 1.0
    return PureState(basis, amp)


def amplitude(state, occ):
    """A pure state's amplitude on one occupation configuration."""
    return complex(state.amplitudes[state.basis.rank(occ)])


def to_mixed(state):
    """A pure state's density matrix |psi><psi|, through the checked constructor."""
    return MixedState(state.basis, state.density_matrix())


def sector_masses(state):
    """A pure state's probability in each total-photon-number sector, indexed by sector."""
    probs = np.abs(state.amplitudes) ** 2
    return np.array([probs[block].sum() for block in state.basis.sectors()])


def purity(rho):
    """tr(rho^2), read as the sum of |rho_ij|^2 (rho is Hermitian)."""
    return float(np.real(np.vdot(rho.matrix, rho.matrix)))


def psd_sqrt(matrix):
    """The PSD square root of a Hermitian PSD matrix, from one eigh.

    Eigenvalues that are zero up to roundoff are zeroed exactly: taking
    sqrt(1e-16)-sized noise would otherwise pollute the kernel block.
    """
    w, v = np.linalg.eigh(matrix)
    floor = 1e-13 * max(float(w[-1]), 0.0)
    w = np.where(w > floor, w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def uhlmann_fidelity(a, b):
    """(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 of two states of either kind, within [0, 1].

    It equals the squared trace norm of sqrt(rho) sqrt(sigma); singular
    values avoid square-rooting eigenvalue noise, which matters for
    rank-deficient inputs.
    """
    product = psd_sqrt(a.density_matrix()) @ psd_sqrt(b.density_matrix())
    singular = np.linalg.svd(product, compute_uv=False)
    return min(max(float(np.sum(singular) ** 2), 0.0), 1.0)


def loop_hopping(basis, i, j):
    """ai† aj built one column at a time."""
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col, occ in enumerate(basis.occupations().tolist()):
        if occ[j] > 0:
            target = list(occ)
            target[i] += 1
            target[j] -= 1
            mat[basis.rank(target), col] = math.sqrt((occ[i] + 1) * occ[j])
    return mat


def dense_jn(basis, pair):
    """J_n on `pair` as a dense matrix, summed from :func:`loop_hopping`."""
    nz, nx, ny = pair.direction()
    occ = basis.occupations()
    hop = loop_hopping(basis, pair.i, pair.j)
    diag = np.diag(nz * (occ[:, pair.i] - occ[:, pair.j]) / 2.0).astype(complex)
    return diag + (nx / 2.0) * (hop + hop.conj().T) + (ny / 2.0) * 1j * (hop.conj().T - hop)
