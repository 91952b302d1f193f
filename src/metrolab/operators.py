"""Mode operators, two-mode angular momentum, and exact unitaries.

The angular-momentum operators on a mode pair (i, j) follow the
convention

    Jx = (ai† aj + ai aj†) / 2
    Jy = i (ai aj† - ai† aj) / 2
    Jz = (ni - nj) / 2

and a direction (beta, phi) selects

    J_n = cos(beta) Jz + sin(beta) cos(phi) Jx + sin(beta) sin(phi) Jy.

All of these conserve the pair's total photon number, so they are block
diagonal over the graded sectors of the basis; unitaries are built by
exact eigendecomposition sector by sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    HERMITICITY_ATOL, FockBasis, PureState, _arg, _blocks, _check_same_basis, _exact,
    _hermiticity_residual,
)

UNITARITY_ATOL = 1e-10
_AXIS_TOL = 1e-14


@dataclass(frozen=True)
class PairAxis:
    """A mode pair (i, j) plus a rotation-axis direction (beta, phi).

    Angles are canonicalized on construction: beta is folded into
    [0, pi] and phi into [0, 2*pi) via the direction vector, so equal
    axes compare equal.
    """

    i: int
    j: int
    beta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        i = _arg("mode i", self.i, 0, kind=int)
        j = _arg("mode j", self.j, 0, kind=int)
        if i == j:
            raise ValueError("pair modes must differ")
        beta = _arg("axis angle beta", self.beta)
        phi = _arg("axis angle phi", self.phi)
        nz = math.cos(beta)
        nx = math.sin(beta) * math.cos(phi)
        ny = math.sin(beta) * math.sin(phi)
        planar = math.hypot(nx, ny)
        beta = math.atan2(planar, nz)
        phi = math.atan2(ny, nx) % (2 * math.pi) if planar > _AXIS_TOL else 0.0
        for name, value in (("i", i), ("j", j), ("beta", beta), ("phi", phi)):
            object.__setattr__(self, name, value)

    def direction(self) -> tuple[float, float, float]:
        """Unit direction as (z, x, y) components."""
        return (
            math.cos(self.beta),
            math.sin(self.beta) * math.cos(self.phi),
            math.sin(self.beta) * math.sin(self.phi),
        )


class HermitianOp:
    """A Hermitian operator tied to a basis, kept in one of three read-only forms.

    A ``(dim,)`` real array is a diagonal operator, kept as that weight
    vector (``weights``).  A ``(dim, dim)`` array is kept as its exactly
    Hermitian part (exactly Hermitian input keeps its bits), so a matrix
    accepted within 1e-12 is Hermitian to the bit from then on.  An
    off-axis :func:`schwinger_j` is kept in its ladder form: the diagonal
    plus the entries of ai† aj and of aj† ai.  Consumers call
    :meth:`_apply`, which builds no dense view of a diagonal or ladder
    operator, :meth:`_blocks` and :meth:`_eigenpairs`, whose spectrum is
    kept per block once found; ``matrix``, the dense view, is built once
    on first use.
    """

    __slots__ = ("basis", "weights", "_ladder", "_matrix", "_eig", "label")

    def __init__(self, basis: FockBasis, matrix, label: str = ""):
        arr = np.asarray(matrix)
        if arr.shape not in ((basis.dim,), (basis.dim, basis.dim)):
            raise ValueError(f"matrix shape {arr.shape} does not match dim {basis.dim}")
        weights = mat = None
        if arr.ndim == 1:
            if np.iscomplexobj(arr):
                raise ValueError("diagonal weights must be real")
            weights = np.array(arr, dtype=float)
            if not np.all(np.isfinite(weights)):
                raise ValueError("operator is not Hermitian within 1e-12")
            weights.setflags(write=False)
        else:
            mat = np.array(arr, dtype=complex)
            residual = _hermiticity_residual(mat)
            if not residual <= HERMITICITY_ATOL:
                raise ValueError("operator is not Hermitian within 1e-12")
            if residual:  # (M + M†)/2, halved first so that it cannot overflow
                mat = mat / 2 + mat.conj().T / 2
            mat.setflags(write=False)
        self.basis = basis
        self.weights = weights
        self._ladder = None
        self._matrix = mat
        self._eig = {}
        self.label = label

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:  # the diagonal, and a ladder form's two scatters
            diag, rows, cols, up, down = self._ladder or (self.weights, *[np.zeros(0, int)] * 4)
            mat = np.zeros((self.basis.dim, self.basis.dim), dtype=complex)
            np.fill_diagonal(mat, diag)
            mat[rows, cols] = up
            mat[cols, rows] = down
            mat.setflags(write=False)
            self._matrix = mat
        return self._matrix

    def _apply(self, x: np.ndarray, block: slice = slice(None)) -> np.ndarray:
        """H x from the stored form, x a vector or column block on the rows of a `block` H keeps."""
        if self.weights is None and self._ladder is None:
            return self.matrix[block, block] @ x
        col = (slice(None),) + (None,) * (x.ndim - 1)  # w[col] * x scales the rows of x
        if self.weights is not None:
            return self.weights[block][col] * x
        diag, rows, cols, up, down = self._ladder
        if block != slice(None):  # cols ascend, and H keeps each sector: its entries are one run
            lo, hi = np.searchsorted(cols, (block.start, block.stop))
            rows, cols = rows[lo:hi] - block.start, cols[lo:hi] - block.start
            up, down = up[lo:hi], down[lo:hi]
        out = diag[block][col] * x
        # rows are distinct, and so are cols, so a fancy-index += adds every entry
        out[rows] += up[col] * x[cols]
        out[cols] += down[col] * x[rows]
        return out

    def _blocks(self) -> tuple[slice, ...]:
        """Blocks that H keeps: the sectors, or one whole block if a dense H mixes them."""
        if self.weights is None and self._ladder is None:
            return _blocks(self.basis, self.matrix)
        return self.basis.sectors()

    def _eigenpairs(self, blocks) -> tuple:
        """(block, w, v) per block of `blocks` that H keeps, one eigh each, kept once found."""
        for block in blocks:
            if (block.start, block.stop) not in self._eig:
                self._eig[block.start, block.stop] = np.linalg.eigh(self.matrix[block, block])
        return tuple((block, *self._eig[block.start, block.stop]) for block in blocks)

    def __repr__(self) -> str:
        return f"HermitianOp({self.label or 'unlabeled'}, basis={self.basis!r})"


class UnitaryOp:
    """A unitary matrix tied to a basis (checked to 1e-10)."""

    __slots__ = ("basis", "matrix", "label")

    def __init__(self, basis: FockBasis, matrix, label: str = ""):
        mat = np.array(matrix, dtype=complex)
        if mat.shape != (basis.dim, basis.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {basis.dim}")
        if not _unitarity_residual(mat) <= UNITARITY_ATOL:
            raise ValueError("operator is not unitary within 1e-10")
        mat.setflags(write=False)
        self.basis = basis
        self.matrix = mat
        self.label = label

    def __repr__(self) -> str:
        return f"UnitaryOp({self.label or 'unlabeled'}, basis={self.basis!r})"

    def apply(self, state: PureState) -> PureState:
        _check_same_basis(self, state)
        return PureState(self.basis, self.matrix @ state.amplitudes, normalize=True)


def _unitarity_residual(mat: np.ndarray) -> float:
    """max |M^dagger M - 1|; NaN or inf, without a warning, on non-finite input."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[1]))))


def _check_mode(basis: FockBasis, mode: int) -> int:
    return _arg("mode", mode, 0, basis.num_modes - 1, kind=int)


def _ladder_entries(basis: FockBasis, j: int, i: int | None = None) -> tuple[np.ndarray, ...]:
    """(rows, cols, amplitudes) of the nonzeros of aj, or of ai† aj (i != j), one per column."""
    occ = basis.occupations()
    cols = np.nonzero(occ[:, j] > 0)[0]
    target = occ[cols]
    if i is None:
        amp = np.sqrt(target[:, j])
    else:
        amp = np.sqrt((target[:, i] + 1) * target[:, j])
        target[:, i] += 1
    target[:, j] -= 1
    return basis.rank(target), cols, amp


def annihilation(basis: FockBasis, mode: int) -> np.ndarray:
    """Matrix of a_mode: removes a photon with amplitude sqrt(n)."""
    rows, cols, amp = _ladder_entries(basis, _check_mode(basis, mode))
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    mat[rows, cols] = amp
    return mat


def number_op(basis: FockBasis, mode: int) -> HermitianOp:
    """Diagonal photon-number operator for one mode."""
    mode = _check_mode(basis, mode)
    diag = basis.occupations()[:, mode].astype(float)
    return HermitianOp(basis, diag, label=f"n[{mode}]")


def schwinger_j(basis: FockBasis, pair: PairAxis) -> HermitianOp:
    """Angular-momentum component J_n on a mode pair along `pair`'s axis.

    Along z (no x or y component) it is diagonal and kept as weights.
    Otherwise each column holds at most three nonzeros, the diagonal and
    one ai† aj and one aj† ai entry, and it is kept in that ladder form.
    """
    i = _check_mode(basis, pair.i)
    j = _check_mode(basis, pair.j)
    nz, nx, ny = pair.direction()
    occ = basis.occupations()
    diag = nz * (occ[:, i] - occ[:, j]) / 2.0
    label = f"J[beta={pair.beta:.6g},phi={pair.phi:.6g}]({i},{j})"
    if abs(nx) > _AXIS_TOL or abs(ny) > _AXIS_TOL:
        rows, cols, amp = _ladder_entries(basis, j, i=i)
        amp = amp.astype(complex)
        up = (nx / 2.0) * amp + ((ny / 2.0) * 1j) * -amp
        down = (nx / 2.0) * amp + ((ny / 2.0) * 1j) * amp
        return _exact(HermitianOp, basis=basis, weights=None, _ladder=(diag, rows, cols, up, down),
                      _matrix=None, _eig={}, label=label)
    return HermitianOp(basis, diag, label=label)


def _exp_i_blocks(spectrum, phase_of):
    """(block, exp(i * phase_of(H)) on that block) for each block of H's spectrum (block, w, v)."""
    for block, w, v in spectrum:
        yield block, (v * np.exp(1j * phase_of(w))) @ v.conj().T


def _exp_i(basis: FockBasis, spectrum, phase_of) -> np.ndarray:
    """exp(i * phase_of(H)) assembled from H's spectrum, as :func:`_exp_i_blocks` reads it."""
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for block, u in _exp_i_blocks(spectrum, phase_of):
        out[block, block] = u
    return out


def _pair_spectrum(basis: FockBasis, pair: PairAxis) -> tuple[str, tuple]:
    """(label, spectrum) of J_n on `pair`, one eigh per sector."""
    h = schwinger_j(basis, pair)
    return h.label, h._eigenpairs(basis.sectors())


def rotation_unitary(basis: FockBasis, pair: PairAxis, angle: float) -> UnitaryOp:
    """exp(i * angle * J_n) computed exactly via eigendecomposition."""
    angle = _arg("rotation angle", angle)
    label, spectrum = _pair_spectrum(basis, pair)
    mat = _exp_i(basis, spectrum, lambda w: angle * w)
    return _exact(UnitaryOp, basis=basis, matrix=mat, label=f"exp(i*{angle:.6g}*{label})")


def spin_squeeze_unitary(basis: FockBasis, pair: PairAxis, gamma: float) -> UnitaryOp:
    """exp(i * gamma * J_n^2), the one-axis-twisting gate."""
    gamma = _arg("twisting strength gamma", gamma)
    label, spectrum = _pair_spectrum(basis, pair)
    mat = _exp_i(basis, spectrum, lambda w: gamma * w**2)
    return _exact(UnitaryOp, basis=basis, matrix=mat, label=f"exp(i*{gamma:.6g}*{label}^2)")


def quadrature_p(basis: FockBasis, mode: int) -> HermitianOp:
    """Momentum quadrature i (a† - a) / 2, so <alpha|p|alpha> = Im(alpha).

    Built on the truncated space without a tail guard; consumers acting
    near the cutoff must check the state's boundary-sector mass
    themselves: the mass ``sum |c_k|^2`` over the top sector, the
    indices ``k`` in ``basis.sector_slice(basis.n_total)``, where a†
    would leave the truncated space.
    """
    a = annihilation(basis, mode)
    mat = 0.5j * (a.conj().T - a)
    return _exact(HermitianOp, basis=basis, weights=None, _ladder=None, _matrix=mat, _eig={},
                  label=f"p[{mode}]")


def weighted_number(basis: FockBasis, zeta: float) -> HermitianOp:
    """The weighted number generator n_zeta = cos(zeta) n0 + sin(zeta) n1, diagonal (weights).

    Its perpendicular partner sin(zeta) n0 - cos(zeta) n1 is
    ``weighted_number(basis, zeta - pi / 2)``, up to roundoff.
    """
    if basis.num_modes < 2:
        raise ValueError("weighted_number needs at least 2 modes")
    zeta = _arg("zeta", zeta)
    occ = basis.occupations()
    n0 = occ[:, 0].astype(float)
    n1 = occ[:, 1].astype(float)
    c, s = math.cos(zeta), math.sin(zeta)
    return HermitianOp(basis, c * n0 + s * n1, label=f"n_zeta[{zeta:.6g}]")
