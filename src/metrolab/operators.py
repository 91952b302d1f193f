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

from .fock import HERMITICITY_ATOL, FockBasis, PureState, _check_same_basis, _hermiticity_residual

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
        if self.i == self.j:
            raise ValueError("pair modes must differ")
        if self.i < 0 or self.j < 0:
            raise ValueError("mode indices must be non-negative")
        nz = math.cos(self.beta)
        nx = math.sin(self.beta) * math.cos(self.phi)
        ny = math.sin(self.beta) * math.sin(self.phi)
        planar = math.hypot(nx, ny)
        beta = math.atan2(planar, nz)
        phi = math.atan2(ny, nx) % (2 * math.pi) if planar > _AXIS_TOL else 0.0
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "phi", phi)

    def direction(self) -> tuple[float, float, float]:
        """Unit direction as (z, x, y) components."""
        return (
            math.cos(self.beta),
            math.sin(self.beta) * math.cos(self.phi),
            math.sin(self.beta) * math.sin(self.phi),
        )


class HermitianOp:
    """A Hermitian matrix tied to a basis; supports + and real scaling."""

    __slots__ = ("basis", "matrix", "label")

    def __init__(self, basis: FockBasis, matrix, label: str = ""):
        mat = np.array(matrix, dtype=complex)
        if mat.shape != (basis.dim, basis.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {basis.dim}")
        if not _hermiticity_residual(mat) <= HERMITICITY_ATOL:
            raise ValueError("operator is not Hermitian within 1e-12")
        mat.setflags(write=False)
        self.basis = basis
        self.matrix = mat
        self.label = label

    def __repr__(self) -> str:
        return f"HermitianOp({self.label or 'unlabeled'}, basis={self.basis!r})"

    def __add__(self, other: "HermitianOp") -> "HermitianOp":
        _check_same_basis(self, other)
        return HermitianOp(self.basis, self.matrix + other.matrix)

    def __sub__(self, other: "HermitianOp") -> "HermitianOp":
        _check_same_basis(self, other)
        return HermitianOp(self.basis, self.matrix - other.matrix)

    def __mul__(self, scalar) -> "HermitianOp":
        if isinstance(scalar, complex) and scalar.imag != 0:
            raise TypeError("only real scalars preserve hermiticity")
        return HermitianOp(self.basis, float(scalar) * self.matrix)

    __rmul__ = __mul__

    def __neg__(self) -> "HermitianOp":
        return HermitianOp(self.basis, -self.matrix)


class UnitaryOp:
    """A unitary matrix tied to a basis (checked to 1e-10)."""

    __slots__ = ("basis", "matrix", "label")

    def __init__(self, basis: FockBasis, matrix, label: str = ""):
        mat = np.array(matrix, dtype=complex)
        if mat.shape != (basis.dim, basis.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {basis.dim}")
        with np.errstate(invalid="ignore", over="ignore"):
            err = np.max(np.abs(mat.conj().T @ mat - np.eye(basis.dim)))
        if not err <= UNITARITY_ATOL:
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


def _check_mode(basis: FockBasis, mode: int) -> int:
    mode = int(mode)
    if not 0 <= mode < basis.num_modes:
        raise ValueError(f"mode {mode} outside 0..{basis.num_modes - 1}")
    return mode


def annihilation(basis: FockBasis, mode: int) -> np.ndarray:
    """Matrix of a_mode: removes a photon with amplitude sqrt(n)."""
    mode = _check_mode(basis, mode)
    occ = basis.occupations()
    cols = np.nonzero(occ[:, mode] > 0)[0]
    target = occ[cols]
    target[:, mode] -= 1
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    mat[basis.rank(target), cols] = np.sqrt(occ[cols, mode])
    return mat


def creation(basis: FockBasis, mode: int) -> np.ndarray:
    """Adjoint of :func:`annihilation`; truncates at the cutoff sector."""
    return annihilation(basis, mode).conj().T


def _hopping(basis: FockBasis, i: int, j: int) -> np.ndarray:
    """Matrix of ai† aj (i != j); conserves total photon number."""
    occ = basis.occupations()
    cols = np.nonzero(occ[:, j] > 0)[0]
    target = occ[cols]
    amp = np.sqrt((target[:, i] + 1) * target[:, j])
    target[:, i] += 1
    target[:, j] -= 1
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    mat[basis.rank(target), cols] = amp
    return mat


def number_op(basis: FockBasis, mode: int) -> HermitianOp:
    """Diagonal photon-number operator for one mode."""
    mode = _check_mode(basis, mode)
    diag = basis.occupations()[:, mode].astype(float)
    return HermitianOp(basis, np.diag(diag), label=f"n[{mode}]")


def total_number_op(basis: FockBasis) -> HermitianOp:
    diag = basis.occupations().sum(axis=1).astype(float)
    return HermitianOp(basis, np.diag(diag), label="n_total")


def schwinger_j(basis: FockBasis, pair: PairAxis) -> HermitianOp:
    """Angular-momentum component J_n on a mode pair along `pair`'s axis."""
    i = _check_mode(basis, pair.i)
    j = _check_mode(basis, pair.j)
    nz, nx, ny = pair.direction()
    occ = basis.occupations()
    mat = np.diag(nz * (occ[:, i] - occ[:, j]) / 2.0).astype(complex)
    if abs(nx) > _AXIS_TOL or abs(ny) > _AXIS_TOL:
        hop = _hopping(basis, i, j)
        mat += (nx / 2.0) * (hop + hop.conj().T)
        mat += (ny / 2.0) * 1j * (hop.conj().T - hop)
    label = f"J[beta={pair.beta:.6g},phi={pair.phi:.6g}]({i},{j})"
    return HermitianOp(basis, mat, label=label)


def _exp_i(basis: FockBasis, h: np.ndarray, phase_of) -> np.ndarray:
    """exp(i * phase_of(H)) for a Hermitian H, from one eigh per total-number sector.

    An H with a nonzero outside the sector blocks, such as
    :func:`quadrature_p`, is decomposed as one whole-matrix block instead.
    """
    sectors = [basis.sector_slice(s) for s in range(basis.n_total + 1)]
    conserving = np.count_nonzero(h) == sum(np.count_nonzero(h[b, b]) for b in sectors)
    out = np.zeros_like(h)
    for block in sectors if conserving else [slice(None)]:
        w, v = np.linalg.eigh(h[block, block])
        out[block, block] = (v * np.exp(1j * phase_of(w))) @ v.conj().T
    return out


def rotation_unitary(basis: FockBasis, pair: PairAxis, angle: float) -> UnitaryOp:
    """exp(i * angle * J_n) computed exactly via eigendecomposition."""
    h = schwinger_j(basis, pair)
    mat = _exp_i(basis, h.matrix, lambda w: angle * w)
    return UnitaryOp(basis, mat, label=f"exp(i*{angle:.6g}*{h.label})")


def spin_squeeze_unitary(basis: FockBasis, pair: PairAxis, gamma: float) -> UnitaryOp:
    """exp(i * gamma * J_n^2), the one-axis-twisting gate."""
    h = schwinger_j(basis, pair)
    mat = _exp_i(basis, h.matrix, lambda w: gamma * w**2)
    return UnitaryOp(basis, mat, label=f"exp(i*{gamma:.6g}*{h.label}^2)")


def quadrature_p(basis: FockBasis, mode: int) -> HermitianOp:
    """Momentum quadrature i (a† - a) / 2, so <alpha|p|alpha> = Im(alpha).

    Built on the truncated space without a tail guard; consumers acting
    near the cutoff must check the state's boundary-sector mass
    themselves (see :func:`metrolab.metrology.displacement_bound`).
    """
    a = annihilation(basis, mode)
    return HermitianOp(basis, 0.5j * (a.conj().T - a), label=f"p[{mode}]")


def weighted_number(basis: FockBasis, zeta: float) -> tuple[HermitianOp, HermitianOp]:
    """The pair (n_zeta, n_zeta_perp) of weighted number generators.

    n_zeta = cos(zeta) n0 + sin(zeta) n1 and
    n_zeta_perp = sin(zeta) n0 - cos(zeta) n1, both diagonal.
    """
    if basis.num_modes < 2:
        raise ValueError("weighted_number needs at least 2 modes")
    occ = basis.occupations()
    n0 = occ[:, 0].astype(float)
    n1 = occ[:, 1].astype(float)
    c, s = math.cos(zeta), math.sin(zeta)
    n_zeta = HermitianOp(basis, np.diag(c * n0 + s * n1), label=f"n_zeta[{zeta:.6g}]")
    n_perp = HermitianOp(
        basis, np.diag(s * n0 - c * n1), label=f"n_zeta_perp[{zeta:.6g}]"
    )
    return n_zeta, n_perp
