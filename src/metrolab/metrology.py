"""Variance, quantum/classical Fisher information, and precision bounds.

For a pure probe under exp(i H kappa) the quantum Fisher information is
4 * Var(H); for mixed probes it is computed exactly from the spectral
form of the symmetric logarithmic derivative.  Classical Fisher
information is evaluated for an explicit POVM, with finite-difference or
analytic probability derivatives.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import (
    MixedState, PureState, State, _as_density, _check_same_basis, _hermiticity_residual
)
from .operators import HermitianOp, _exp_i, quadrature_p

VARIANCE_FLOOR = -1e-10
PROB_FLOOR = 1e-12
DERIV_LEAK_TOL = 1e-9
POVM_ATOL = 1e-10


@dataclass(frozen=True)
class CramerRaoBound:
    """Precision floor delta = 1 / sqrt(nu * qfi) for nu repetitions."""

    nu: int
    delta: float


@dataclass(frozen=True)
class QFIReport:
    qfi: float
    generator_label: str = ""
    crb: CramerRaoBound | None = None


def _report(qfi: float, label: str, nu: int | None) -> QFIReport:
    crb = None
    if nu is not None:
        nu = int(nu)
        if nu < 1:
            raise ValueError("nu must be >= 1")
        delta = 1.0 / math.sqrt(nu * qfi) if qfi > 0 else math.inf
        crb = CramerRaoBound(nu=nu, delta=delta)
    return QFIReport(qfi=qfi, generator_label=label, crb=crb)


class Povm:
    """A list of Hermitian PSD matrices that sum to the identity."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[np.ndarray]):
        elems = [np.asarray(e, dtype=complex) for e in elements]
        if not elems:
            raise ValueError("POVM needs at least one element")
        dim = elems[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for k, e in enumerate(elems):
            if e.shape != (dim, dim):
                raise ValueError(f"element {k} has shape {e.shape}, expected ({dim},{dim})")
            if not _hermiticity_residual(e) <= POVM_ATOL:
                raise ValueError(f"element {k} is not Hermitian")
            if float(np.linalg.eigvalsh(e)[0]) < -POVM_ATOL:
                raise ValueError(f"element {k} is not positive semidefinite")
            total += e
        if not np.max(np.abs(total - np.eye(dim))) <= POVM_ATOL:
            raise ValueError("POVM elements do not sum to the identity within 1e-10")
        self.elements = tuple(e.copy() for e in elems)
        for e in self.elements:
            e.setflags(write=False)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


def projective_povm(vectors: np.ndarray) -> Povm:
    """Rank-1 POVM from the orthonormal columns of `vectors`."""
    v = np.asarray(vectors, dtype=complex)
    return Povm([np.outer(v[:, k], v[:, k].conj()) for k in range(v.shape[1])])


def expectation(state: State, op: HermitianOp) -> float:
    _check_same_basis(state, op)
    if isinstance(state, PureState):
        return float(np.real(np.vdot(state.amplitudes, op.matrix @ state.amplitudes)))
    return float(np.real(np.trace(state.matrix @ op.matrix)))


def variance(state: State, op: HermitianOp) -> float:
    """<op^2> - <op>^2, clamped at zero (raises below -1e-10)."""
    _check_same_basis(state, op)
    mean = expectation(state, op)
    if isinstance(state, PureState):
        dev = op.matrix @ state.amplitudes - mean * state.amplitudes
        var = float(np.real(np.vdot(dev, dev)))
    else:
        dev = op.matrix - mean * np.eye(op.basis.dim)
        var = float(np.real(np.trace(state.matrix @ dev @ dev)))
    if var < VARIANCE_FLOOR:
        raise ValueError(f"variance {var} below roundoff floor {VARIANCE_FLOOR}")
    return max(var, 0.0)


def qfi_pure(state: PureState, generator: HermitianOp, nu: int | None = None) -> QFIReport:
    """QFI = 4 Var(generator) for a pure probe under exp(i * generator * kappa)."""
    if not isinstance(state, PureState):
        raise TypeError("qfi_pure expects a PureState; use qfi_mixed for density matrices")
    return _report(4.0 * variance(state, generator), generator.label, nu)


def qfi_mixed(
    rho: MixedState,
    generator: HermitianOp,
    eigenvalue_floor: float = 1e-12,
    nu: int | None = None,
) -> QFIReport:
    """Exact mixed-state QFI from the SLD spectral formula.

    Q = 2 sum_{k,l} |<k|H|l>|^2 (p_k - p_l)^2 / (p_k + p_l) over
    eigenpairs of rho with p_k + p_l > eigenvalue_floor.  Reduces to
    4 Var(H) on rank-1 input.
    """
    _check_same_basis(rho, generator)
    if eigenvalue_floor < 0:
        raise ValueError("eigenvalue_floor must be >= 0")
    lam, vecs = np.linalg.eigh(rho.matrix)
    if float(lam[0]) < -1e-10:
        raise ValueError(f"density matrix eigenvalue {lam[0]} below -1e-10")
    lam = np.clip(lam, 0.0, None)
    h = vecs.conj().T @ generator.matrix @ vecs
    sums = lam[:, None] + lam[None, :]
    diffs = lam[:, None] - lam[None, :]
    mask = sums > eigenvalue_floor
    weights = np.zeros_like(sums)
    weights[mask] = diffs[mask] ** 2 / sums[mask]
    qfi = 2.0 * float(np.sum(weights * np.abs(h) ** 2))
    return _report(qfi, generator.label, nu)


def jn_variance_closed_form(
    coeffs: Sequence[complex], n_total: int, beta: float, phi: float
) -> float:
    """Closed-form Var(J_n) for the fixed-N state sum_n c_n |n, N-n>.

    Combines the photon-number moments of |c_n|^2 with the
    nearest-neighbor (c_n c*_{n+1}) and next-nearest (c_n c*_{n+2})
    coherences, each carrying sqrt((n+1)(N-n))-type ladder weights.
    Validated against the operator computation; see the test suite.
    """
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.shape != (n_total + 1,):
        raise ValueError(f"expected {n_total + 1} coefficients, got {c.shape}")
    n = np.arange(len(c), dtype=float)
    probs = np.abs(c) ** 2
    nbar = float(probs @ n)
    n2bar = float(probs @ n**2)
    var_n = n2bar - nbar**2
    sin_b, cos_b = math.sin(beta), math.cos(beta)

    n1 = n[:-1]
    w1 = np.sqrt((n1 + 1.0) * (n_total - n1))
    r1 = np.real(c[:-1] * np.conj(c[1:]) * np.exp(-1j * phi))
    first = float(np.sum(r1 * w1))
    cross = float(np.sum(r1 * (2.0 * n1 - 2.0 * nbar + 1.0) * w1))

    second = 0.0
    if n_total >= 2:
        n2 = n[:-2]
        w2 = np.sqrt(
            (n_total - n2) * (n_total - n2 - 1.0) * (n2 + 1.0) * (n2 + 2.0)
        )
        r2 = np.real(c[:-2] * np.conj(c[2:]) * np.exp(-2j * phi))
        second = float(np.sum(r2 * w2))

    return (
        (n_total / 4.0) * sin_b**2
        + 0.5 * (n_total * nbar - n2bar) * sin_b**2
        + var_n * cos_b**2
        - first**2 * sin_b**2
        + 0.5 * second * sin_b**2
        + cross * cos_b * sin_b
    )


def jy_variance_closed_form(coeffs: Sequence[complex], n_total: int) -> float:
    """Var(J_y) specialization (beta = pi/2, phi = pi/2) of the closed form.

    This is the generator of phase-space displacement in the large-N
    limit: Var(J_y)/N converges to the momentum-quadrature variance of
    the mode-0 profile.
    """
    return jn_variance_closed_form(coeffs, n_total, math.pi / 2, math.pi / 2)


def displacement_bound(state: State, nu: int = 1, tail_tol: float = 1e-10) -> float:
    """Displacement-magnitude precision floor 1 / sqrt(4 nu Var(p)).

    Expects a single-mode (or reduced) state.  The p-quadrature matrix is
    truncated at the cutoff, so the two boundary sectors must carry mass
    below `tail_tol`; otherwise the variance is untrustworthy and a
    ValueError is raised.
    """
    if state.basis.num_modes != 1:
        raise ValueError("displacement_bound expects a single-mode state")
    nu = int(nu)
    if nu < 1:
        raise ValueError("nu must be >= 1")
    masses = state.sector_masses()
    boundary = float(masses[max(0, state.basis.n_total - 1) :].sum())
    if state.basis.n_total < 2 or boundary > tail_tol:
        raise ValueError(
            f"boundary-sector mass {boundary:.3g} exceeds {tail_tol:.3g}; "
            "increase the cutoff"
        )
    var_p = variance(state, quadrature_p(state.basis, 0))
    if var_p == 0.0:
        return math.inf
    return 1.0 / math.sqrt(4.0 * nu * var_p)


def _outcome_probs(rho: np.ndarray, povm: Povm) -> np.ndarray:
    return np.array([float(np.real(np.einsum("ij,ji->", e, rho))) for e in povm.elements])


def fisher_information(
    state: State,
    generator: HermitianOp,
    povm: Povm,
    kappa0: float,
    dkappa: float = 1e-5,
    method: str = "central",
) -> float:
    """Classical Fisher information at kappa0 for the family exp(i H kappa).

    Outcome probabilities are P_i = tr(E_i U rho U†).  Derivatives use a
    central finite difference of step `dkappa` ("central", default), a
    Richardson-extrapolated difference ("richardson"), or the exact
    commutator form i[H, rho] ("analytic").  Outcomes with P below 1e-12
    are skipped; if such an outcome still has a non-vanishing derivative
    the information diverges and +inf is returned with a warning.
    """
    _check_same_basis(state, generator)
    if povm.dim != state.basis.dim:
        raise ValueError("POVM dimension does not match the state")
    if dkappa <= 0:
        raise ValueError("dkappa must be positive")
    rho = _as_density(state)
    h = generator.matrix

    def evolved(kappa: float) -> np.ndarray:
        u = _exp_i(state.basis, h, lambda w: kappa * w)
        return u @ rho @ u.conj().T

    def slope(step: float) -> np.ndarray:
        ahead = _outcome_probs(evolved(kappa0 + step), povm)
        return (ahead - _outcome_probs(evolved(kappa0 - step), povm)) / (2 * step)

    rho0 = evolved(kappa0)
    p0 = _outcome_probs(rho0, povm)
    if method == "central":
        dp = slope(dkappa)
    elif method == "richardson":
        dp = (4 * slope(dkappa / 2) - slope(dkappa)) / 3
    elif method == "analytic":
        dp = _outcome_probs(1j * (h @ rho0 - rho0 @ h), povm)
    else:
        raise ValueError(f"unknown derivative method {method!r}")

    fi = 0.0
    for p, d in zip(p0, dp):
        if p >= PROB_FLOOR:
            fi += d * d / p
        elif abs(d) > DERIV_LEAK_TOL:
            warnings.warn(
                "outcome with vanishing probability but non-vanishing derivative; "
                "Fisher information diverges",
                RuntimeWarning,
                stacklevel=2,
            )
            return math.inf
    return fi


def optimal_povm(
    state: State,
    generator: HermitianOp,
    kappa0: float = 0.0,
    eigenvalue_floor: float = 1e-12,
) -> Povm:
    """Projective POVM onto the SLD eigenbasis at kappa0.

    Measuring it makes the classical Fisher information meet the QFI at
    kappa0.  Within degenerate SLD eigenspaces the basis choice is
    arbitrary and does not affect the information.
    """
    _check_same_basis(state, generator)
    rho = _as_density(state)
    u = _exp_i(state.basis, generator.matrix, lambda w: kappa0 * w)
    rho_k = u @ rho @ u.conj().T
    lam, vecs = np.linalg.eigh(rho_k)
    lam = np.clip(lam, 0.0, None)
    drho = 1j * (generator.matrix @ rho_k - rho_k @ generator.matrix)
    g = vecs.conj().T @ drho @ vecs
    sums = lam[:, None] + lam[None, :]
    sld_eig = np.zeros_like(g)
    mask = sums > eigenvalue_floor
    sld_eig[mask] = 2.0 * g[mask] / sums[mask]
    sld = vecs @ sld_eig @ vecs.conj().T
    sld = (sld + sld.conj().T) / 2
    _, w = np.linalg.eigh(sld)
    return projective_povm(w)
