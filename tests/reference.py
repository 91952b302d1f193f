"""Dense references that the tests compare the library against.

Nothing here is part of metrolab.  Each function is the plain, dense
form of a quantity that the library computes another way, or that only
tests need: a basis vector, a density matrix, a partial trace, sector
masses, purity, the Uhlmann fidelity of two density matrices, the
off-axis J_n summed from loop-built ladder matrices, the pair gates
assembled as d x d matrices from a per-sector eigendecomposition and the
loss channel's density matrix summed from outer products.  Tests import
it as ``reference``.
"""

import math

import numpy as np

from metrolab import MixedState, PureState, build_basis, schwinger_j
from metrolab.fock import _from_columns


def basis_state(basis, occ):
    """The unit vector of one occupation configuration."""
    amp = np.zeros(basis.dim, dtype=complex)
    amp[basis.rank(occ)] = 1.0
    return PureState(basis, amp)


def amplitude(state, occ):
    """A pure state's amplitude on one occupation configuration."""
    return complex(state.amplitudes[state.basis.rank(occ)])


def density_matrix(state):
    """rho of either kind of state: |psi><psi| of a pure one, the stored matrix of a mixed one."""
    if isinstance(state, PureState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    return state.matrix


def to_mixed(state):
    """A pure state's density matrix |psi><psi|, through the checked constructor."""
    return MixedState(state.basis, density_matrix(state))


def to_factor(state, angle=0.6):
    """A pure state's |psi><psi| in factor form, with two columns: cos(angle) psi and
    sin(angle) psi.  Their Gram matrix has rank one, so the factor's second eigenvalue is 0
    up to roundoff."""
    occupied = np.flatnonzero(state.amplitudes)
    values = state.amplitudes[occupied]
    columns = [(occupied, math.cos(angle) * values), (occupied, math.sin(angle) * values)]
    return _from_columns(state.basis, columns)


def dense_loss_channel(state, mode, kappa):
    """The loss channel's rho, each Kraus branch K_l|psi> added as one outer product on the
    indices it reaches: the dense build that loss_channel's factor replaced."""
    basis = state.basis
    cos, sin = math.cos(kappa / 2), math.sin(kappa / 2)
    occupied = np.flatnonzero(state.amplitudes)
    occ = basis.occupations()[occupied]
    amp = state.amplitudes[occupied]
    n = occ[:, mode]
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    for lost in range(int(n.max()) + 1):
        hit = n >= lost
        target = occ[hit]
        target[:, mode] -= lost
        idx = basis.rank(target)
        kraus = [math.sqrt(math.comb(k, lost)) * cos ** (k - lost) * sin**lost for k in n[hit]]
        v = amp[hit] * kraus
        rho[np.ix_(idx, idx)] += np.outer(v, v.conj())
    return rho


def dense_partial_trace(rho, basis, keep):
    """The reduced matrix summed entry by entry: rho[i, j] adds to (kept i, kept j) when i and j
    agree on every traced mode."""
    occ = basis.occupations()
    traced = [m for m in range(basis.num_modes) if m not in keep]
    reduced = build_basis(len(keep), basis.n_total)
    kept = reduced.rank(occ[:, list(keep)])
    rows, cols = np.nonzero(np.all(occ[:, None, traced] == occ[None, :, traced], axis=2))
    out = np.zeros((reduced.dim, reduced.dim), dtype=complex)
    np.add.at(out, (kept[rows], kept[cols]), rho[rows, cols])
    return out


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
    product = psd_sqrt(density_matrix(a)) @ psd_sqrt(density_matrix(b))
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


def exp_i(basis, spectrum, phase_of):
    """exp(i phase_of(H)) as a d x d matrix, assembled block by block from H's spectrum
    (block, w, v): the dense gate assembly that the library's K-block gates replaced."""
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for block, w, v in spectrum:
        out[block, block] = (v * np.exp(1j * phase_of(w))) @ v.conj().T
    return out


def reference_gate(basis, pair, phase_of):
    """exp(i phase_of(J_n)) on `pair` from the dense J_n, one eigh per total-number sector."""
    h = schwinger_j(basis, pair).matrix
    return exp_i(basis, [(block, *np.linalg.eigh(h[block, block])) for block in basis.sectors()],
                 phase_of)
