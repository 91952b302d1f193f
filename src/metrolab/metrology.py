"""Variance, quantum/classical Fisher information, and precision bounds.

For a pure probe under exp(i H kappa) the quantum Fisher information is
4 * Var(H); for mixed probes it is computed exactly from the spectral
form of the symmetric logarithmic derivative.  Classical Fisher
information is evaluated for a projective POVM, with finite-difference
or analytic probability derivatives.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import (
    PureState, State, _arg, _check_same_basis, _checked_profile, _exact, _gram
)
from .operators import HermitianOp, _exp_i_blocks, _unitarity_residual

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


def _checked_nu(nu: int | None) -> int | None:
    return None if nu is None else _arg("nu", nu, 1, kind=int)


def _report(qfi: float, label: str, nu: int | None) -> QFIReport:
    """The report for a `nu` already passed through :func:`_checked_nu`."""
    crb = None
    if nu is not None:
        delta = 1.0 / math.sqrt(nu * qfi) if qfi > 0 else math.inf
        crb = CramerRaoBound(nu=nu, delta=delta)
    return QFIReport(qfi=qfi, generator_label=label, crb=crb)


class Povm:
    """A rank-1 projective POVM onto an orthonormal basis.

    The basis is kept as the columns of the square, read-only
    ``vectors``; outcome i is the projector onto column i.  The
    constructor checks orthonormality once, to 1e-10.
    """

    __slots__ = ("vectors",)

    def __init__(self, vectors: np.ndarray):
        v = np.array(vectors, dtype=complex)
        square = v.ndim == 2 and v.shape[0] == v.shape[1] > 0
        if not (square and _unitarity_residual(v) <= POVM_ATOL):
            raise ValueError(
                f"vectors of shape {v.shape} are not an orthonormal basis within 1e-10"
            )
        v.setflags(write=False)
        self.vectors = v

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def _applied(state: State, op: HermitianOp) -> list:
    """(V, H V) for each factor V of rho = sum V V†, on blocks that H keeps."""
    _check_same_basis(state, op)
    keeps = op._blocks()
    factors = state._factors() if len(keeps) > 1 else state._factors(keeps)
    return [(v, op._apply(v, block)) for block, v in factors]


def expectation(state: State, op: HermitianOp) -> float:
    """tr(rho H), the sum of Re tr(V† H V) over the factors V of rho."""
    return sum(float(np.real(np.vdot(v, h_v))) for v, h_v in _applied(state, op))


def variance(state: State, op: HermitianOp) -> float:
    """<op^2> - <op>^2 = sum ||(H - <H>) V||^2 over the factors V of rho, clamped at zero.

    It raises below -1e-10.  H is applied once, from its stored form: for
    a diagonal op or an off-axis ``schwinger_j`` no dense matrix is built.
    """
    pairs = _applied(state, op)  # H V once: it gives the mean and the deviation
    mean = sum(float(np.real(np.vdot(v, h_v))) for v, h_v in pairs)
    devs = [h_v - mean * v for v, h_v in pairs]
    var = sum(float(np.real(np.vdot(dev, dev))) for dev in devs)
    if var < VARIANCE_FLOOR:
        raise ValueError(f"variance {var} below roundoff floor {VARIANCE_FLOOR}")
    return max(var, 0.0)


def qfi_pure(state: PureState, generator: HermitianOp, nu: int | None = None) -> QFIReport:
    """QFI = 4 Var(generator) for a pure probe under exp(i * generator * kappa)."""
    if not isinstance(state, PureState):
        raise TypeError("qfi_pure expects a PureState; use qfi_mixed for density matrices")
    nu = _checked_nu(nu)
    return _report(4.0 * variance(state, generator), generator.label, nu)


def qfi_mixed(
    rho: State,
    generator: HermitianOp,
    eigenvalue_floor: float = 1e-12,
    nu: int | None = None,
) -> QFIReport:
    """Exact mixed-state QFI from the SLD spectral formula, on rho's support alone.

    Over the eigenpairs of rho with p_k > eigenvalue_floor, the support S,
    Q = 4 sum_k p_k <k|H^2|k> - 8 sum_{k,l} p_k p_l / (p_k + p_l) |H_kl|^2
    (Liu, Yuan, Lu & Wang, J. Phys. A 53, 023001, 2020).  It is summed as
    2 sum_{k,l} (p_k - p_l)^2 / (p_k + p_l) |H_kl|^2 + 4 sum_k p_k ||P H|k>||^2,
    P the projector off S, the same sum with no cancellation between two
    large terms, so no kernel vector of rho is needed.  The formula holds
    at every rank, so `rho` may be either kind of state; it reduces to
    4 Var(H) on rank-1 input.  When rho and H are block diagonal over the
    total-number sectors, Q is the sum of each sector's term; a
    sector-mixing input is one whole-matrix block.
    """
    _check_same_basis(rho, generator)
    floor = _arg("eigenvalue_floor", eigenvalue_floor, 0.0)
    nu = _checked_nu(nu)
    total = 0.0
    for block, p, vecs in rho._eigenpairs(generator._blocks()):
        support = p > floor
        if not support.any():
            continue
        p, vecs = p[support], vecs[:, support]
        h_vecs = generator._apply(vecs, block)
        hk = vecs.conj().T @ h_vecs  # <k|H|l>
        off = h_vecs - vecs @ hk  # P H|l>
        sums, diffs = p[:, None] + p[None, :], p[:, None] - p[None, :]
        total += 2.0 * float(np.sum(diffs**2 / sums * np.abs(hk) ** 2))
        total += 4.0 * float(p @ np.real(np.einsum("ij,ij->j", off.conj(), off)))
    return _report(total, generator.label, nu)


def jn_variance_closed_form(
    coeffs: Sequence[complex], n_total: int, beta: float, phi: float
) -> float:
    """Closed-form Var(J_n) for the fixed-N state sum_n c_n |n, N-n>.

    Combines the photon-number moments of |c_n|^2 with the
    nearest-neighbor (c_n c*_{n+1}) and next-nearest (c_n c*_{n+2})
    coherences, each carrying sqrt((n+1)(N-n))-type ladder weights.
    `coeffs` must have length N+1 and unit norm.  Validated against the
    operator computation; see the test suite.
    """
    n_total = _arg("n_total", n_total, 0, kind=int)
    beta, phi = _arg("beta", beta), _arg("phi", phi)
    c = _checked_profile(coeffs, n_total + 1)
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


def _evolved(spectrum, rhos: list[np.ndarray], kappa: float) -> list[np.ndarray]:
    """U rho U† on each block of H's spectrum, U = exp(i kappa H), from rho's blocks `rhos`."""
    gates = _exp_i_blocks(spectrum, lambda w: kappa * w)
    return [u @ r @ u.conj().T for (_, u), r in zip(gates, rhos)]


def _outcome_probs(povm: Povm, blocks, rhos: list[np.ndarray]) -> np.ndarray:
    """<v_i|rho|v_i> for every column v_i, for a rho whose nonzero blocks are `rhos` on `blocks`.

    Sums Re conj(V) ⊙ (rho V) over the rows of each block.
    """
    v = povm.vectors
    return sum(np.real(np.einsum("ij,ij->j", v[b].conj(), r @ v[b])) for b, r in zip(blocks, rhos))


def fisher_information(
    state: State,
    generator: HermitianOp,
    povm: Povm,
    kappa0: float,
    dkappa: float = 1e-5,
    method: str = "central",
) -> float:
    """Classical Fisher information at kappa0 for the family exp(i H kappa).

    Outcome probabilities are P_i = <v_i|U rho U†|v_i> over the POVM's
    basis.  Derivatives use a central finite difference of step `dkappa`
    ("central", default) or the exact commutator form i[H, rho]
    ("analytic").  Outcomes with P below 1e-12 are skipped; if such an
    outcome still has a non-vanishing derivative the information
    diverges and +inf is returned with a warning.

    When rho and H are block diagonal over the total-number sectors,
    every step runs sector by sector.
    """
    _check_same_basis(state, generator)
    if povm.dim != state.basis.dim:
        raise ValueError("POVM dimension does not match the state")
    kappa0 = _arg("kappa0", kappa0)
    dkappa = _arg("dkappa", dkappa, math.ulp(0.0))  # the least positive float: dkappa > 0
    if method not in ("central", "analytic"):
        raise ValueError(f"unknown derivative method {method!r}")
    factors = state._factors(generator._blocks())
    blocks = [block for block, _ in factors]
    spectrum = generator._eigenpairs(blocks)
    rho = [_gram(v) for _, v in factors]

    def probs(kappa: float) -> np.ndarray:
        return _outcome_probs(povm, blocks, _evolved(spectrum, rho, kappa))

    rhos = _evolved(spectrum, rho, kappa0)
    p0 = _outcome_probs(povm, blocks, rhos)
    if method == "central":
        dp = (probs(kappa0 + dkappa) - probs(kappa0 - dkappa)) / (2 * dkappa)
    else:  # i[H, rho] = i (H rho - (H rho)†), as H and rho are Hermitian
        h_rhos = [generator._apply(r, b) for b, r in zip(blocks, rhos)]
        dp = _outcome_probs(povm, blocks, [1j * (hr - hr.conj().T) for hr in h_rhos])

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
    arbitrary and does not affect the information.  When rho and H are
    block diagonal over the total-number sectors, so is the SLD: each
    sector is solved on its own and the basis is block diagonal.
    """
    _check_same_basis(state, generator)
    kappa0 = _arg("kappa0", kappa0)
    floor = _arg("eigenvalue_floor", eigenvalue_floor, 0.0)
    vectors = np.zeros((state.basis.dim, state.basis.dim), dtype=complex)
    for block, p, vecs in state._eigenpairs(generator._blocks()):
        p = np.clip(p, 0.0, None)
        if vecs.shape[1] < vecs.shape[0]:  # a thin frame: a kernel basis completes it, at p = 0
            support = p > floor
            kernel = np.linalg.qr(vecs[:, support], mode="complete")[0][:, support.sum():]
            vecs = np.hstack([vecs[:, support], kernel])
            p = np.concatenate([p[support], np.zeros(kernel.shape[1])])
        hk = generator._apply(vecs, block).conj().T @ vecs
        sums, diffs = p[:, None] + p[None, :], p[:, None] - p[None, :]
        mask = sums > floor
        # <k|L|l> = 2 <k|i[H, rho]|l> / (p_k + p_l) = -2i (p_k - p_l) H_kl / (p_k + p_l):
        # -2i H_kl from support k to kernel l, and 0 within the kernel
        sld = np.zeros_like(hk)
        sld[mask] = -2j * diffs[mask] * hk[mask] / sums[mask]
        # U rho U† has eigenvectors U vecs and, as H commutes with U, the same SLD there
        [(_, u)] = _exp_i_blocks(generator._eigenpairs([block]), lambda w: kappa0 * w)
        vectors[block, block] = u @ vecs @ np.linalg.eigh(sld)[1]
    return _exact(Povm, vectors=vectors)
