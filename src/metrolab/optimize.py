"""Generator-weight optimization and the beam-splitter loss channel.

The phase generator n_zeta = cos(zeta) n0 + sin(zeta) n1 has variance
determined by the 2x2 covariance matrix of the mode photon numbers, so
the optimal weight angle is solved in closed form as its top
eigenvector.  The K-mode generalization returns a unit weight vector
over any set of probe modes.  Loss on one mode is the closed-form
binomial Kraus channel :func:`loss_channel`; :func:`lossy_probe` couples
an explicit environment mode instead, and is its dense reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fock import MixedState, PureState, State, _arg, _from_columns, partial_trace
from .operators import PairAxis, rotation_unitary, weighted_number
from .metrology import variance

_DEGENERACY_TOL = 1e-14


@dataclass(frozen=True)
class ZetaResult:
    """Optimal weight angle for the two leading modes.

    var_max + var_perp always equals Var(n0) + Var(n1); `degenerate`
    flags an isotropic covariance, where every angle is optimal and
    zeta_opt = 0 is returned by convention.
    """

    zeta_opt: float
    var_max: float
    var_perp: float
    cov: np.ndarray = field(repr=False)
    degenerate: bool = False


@dataclass(frozen=True)
class WeightResult:
    """Top covariance eigenvector over K probe modes (unit weight vector)."""

    weights: np.ndarray
    var_max: float
    var_min: float
    cov: np.ndarray = field(repr=False)
    degenerate: bool = False


def number_covariance(state: State, modes: Sequence[int] | None = None) -> np.ndarray:
    """Covariance matrix of the photon numbers of the given modes.

    Number operators commute and are diagonal, so only the occupation
    distribution matters; works identically for pure and mixed states.
    """
    basis = state.basis
    if modes is None:
        modes = range(basis.num_modes)
    modes = [_arg("mode", m, 0, basis.num_modes - 1, kind=int) for m in modes]
    probs = np.zeros(basis.dim)  # the diagonal of rho = sum V V†: the row sums of |V|^2
    for block, v in state._factors():
        probs[block] += np.sum(np.abs(v.reshape(v.shape[0], -1)) ** 2, axis=1)
    occ = basis.occupations()[:, modes].astype(float)
    mean = probs @ occ
    second = occ.T @ (probs[:, None] * occ)
    return second - np.outer(mean, mean)


def optimal_zeta(state: State) -> ZetaResult:
    """Closed-form maximizer of Var(cos(zeta) n0 + sin(zeta) n1).

    zeta* = atan2(2 Cov(n0,n1), Var(n0) - Var(n1)) / 2, folded into
    [0, pi); var_max is the top eigenvalue of the covariance matrix and
    var_perp the bottom one.
    """
    if state.basis.num_modes < 2:
        raise ValueError("optimal_zeta needs at least 2 modes")
    cov = number_covariance(state, (0, 1))
    diff = cov[0, 0] - cov[1, 1]
    off = cov[0, 1]
    degenerate = math.hypot(diff, 2 * off) <= _DEGENERACY_TOL * max(1.0, abs(np.trace(cov)))
    zeta = 0.0 if degenerate else (0.5 * math.atan2(2 * off, diff)) % math.pi
    var_max = _weighted_variance(cov, zeta)
    var_perp = float(cov[0, 0] + cov[1, 1]) - var_max
    return ZetaResult(
        zeta_opt=zeta,
        var_max=var_max,
        var_perp=max(var_perp, 0.0),
        cov=cov,
        degenerate=degenerate,
    )


def _weighted_variance(cov: np.ndarray, zeta: float) -> float:
    c, s = math.cos(zeta), math.sin(zeta)
    return float(c * c * cov[0, 0] + s * s * cov[1, 1] + 2 * c * s * cov[0, 1])


def optimal_weights(state: State, modes: Sequence[int]) -> WeightResult:
    """K-mode generalization: top eigenvector of the number covariance.

    The two-mode zeta solution is the special case
    weights = (cos(zeta*), sin(zeta*)).
    """
    modes = list(modes)
    if len(modes) < 2:
        raise ValueError("optimal_weights needs at least 2 modes")
    cov = number_covariance(state, modes)
    eigvals, eigvecs = np.linalg.eigh(cov)
    weights = eigvecs[:, -1]
    lead = np.flatnonzero(np.abs(weights) > 1e-12)
    if lead.size and weights[lead[0]] < 0:
        weights = -weights
    degenerate = bool(eigvals[-1] - eigvals[0] <= _DEGENERACY_TOL * max(1.0, abs(eigvals[-1])))
    return WeightResult(
        weights=weights,
        var_max=float(eigvals[-1]),
        var_min=float(max(eigvals[0], 0.0)),
        cov=cov,
        degenerate=degenerate,
    )


def lossy_probe(state: PureState, probe_mode: int, kappa: float) -> MixedState:
    """Couple one probe mode to the environment mode and trace it out.

    The input must be a four-mode pure state (modes 0-2 probes, mode 3
    environment).  The coupling is the rotation exp(i kappa J_x) on the
    (probe_mode, 3) pair; kappa = pi transfers the probe mode's photons
    entirely into the environment.  This is the dense path, through the
    full four-mode gate.  On a vacuum environment, as
    :func:`metrolab.states.general_probe` builds, it is
    :func:`loss_channel`, and serves as its test reference.
    """
    if state.basis.num_modes != 4:
        raise ValueError("lossy_probe expects a four-mode state")
    probe_mode = _arg("probe_mode", probe_mode, 0, 2, kind=int)
    pair = PairAxis(probe_mode, 3, beta=math.pi / 2)
    coupled = rotation_unitary(state.basis, pair, _arg("kappa", kappa)).apply(state)
    return partial_trace(coupled, keep=(0, 1, 2))


def loss_channel(state: PureState, mode: int, kappa: float) -> MixedState:
    """Loss on one mode: :func:`lossy_probe`'s x-axis coupling to a vacuum environment.

    Works on any number of modes; the environment is implicit.  The beam
    splitter exp(i kappa J_x) sends |n, 0> to
    sum_l sqrt(C(n, l)) cos^(n-l)(kappa/2) (i sin(kappa/2))^l |n-l, l>, so
    tracing out the environment applies the binomial Kraus operators
    K_l = sum_n sqrt(C(n, l)) cos^(n-l)(kappa/2) sin^l(kappa/2) |n-l><n|
    on `mode`, for l = 0..max n.  The phase i^l is global to each K_l and
    drops out of rho = sum_l K_l |psi><psi| K_l†.  Distinct occupied
    configurations stay distinct after losing l photons, so each K_l|psi>
    is one column of rho's factor, on the indices it reaches: at most
    N + 1 columns, and no dense matrix.  A fixed-N input puts each
    column in its own sector.  The channel is trace preserving by
    construction, so the result is not re-checked.
    """
    if not isinstance(state, PureState):
        raise TypeError("loss_channel expects a PureState")
    basis = state.basis
    mode = _arg("mode", mode, 0, basis.num_modes - 1, kind=int)
    half = _arg("kappa", kappa) / 2
    cos, sin = math.cos(half), math.sin(half)
    occupied = np.flatnonzero(state.amplitudes)
    occ = basis.occupations()[occupied]
    amp = state.amplitudes[occupied]
    n = occ[:, mode]
    targets, values = [], []
    for lost in range(int(n.max()) + 1):
        hit = n >= lost
        target = occ[hit]
        target[:, mode] -= lost
        kraus = [math.sqrt(math.comb(k, lost)) * cos ** (k - lost) * sin**lost for k in n[hit]]
        targets.append(target)
        values.append(amp[hit] * kraus)
    # one rank for every branch, split back by branch
    idx = np.split(basis.rank(np.concatenate(targets)), np.cumsum([len(v) for v in values[:-1]]))
    return _from_columns(basis, list(zip(idx, values)))


def sweep_qfi_vs_zeta(state: State, zetas: Sequence[float]) -> np.ndarray:
    """Rows (zeta, 4 * Var(n_zeta)) for each grid point.

    Uses the operator route on purpose, so the sweep is an independent
    check of the closed-form :func:`optimal_zeta`.
    """
    zetas = [float(z) for z in zetas]
    if not zetas:
        raise ValueError("zeta grid must be non-empty")
    rows = np.empty((len(zetas), 2))
    for k, zeta in enumerate(zetas):
        rows[k] = (zeta, 4.0 * variance(state, weighted_number(state.basis, zeta)))
    return rows
