"""Probe-state factories on truncated Fock bases.

Two-mode states with a definite total photon number N are written as
sum_n c_n |n, N-n>: mode 0 carries the payload, mode 1 the phase
reference.  Single-mode factories (coherent, cat) use a one-mode basis
whose cutoff must make the discarded Poisson tail negligible.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .fock import PureState, _arg, _checked_profile, build_basis
from .operators import PairAxis, rotation_unitary

COHERENT_TAIL_TOL = 1e-12


def two_mode_fixed_n(coeffs: Sequence[complex], n_total: int) -> PureState:
    """sum_n c_n |n, N-n> on a two-mode basis with cutoff N.

    `coeffs` must have length N+1 and unit norm; the output occupies only
    the fixed-N sector.
    """
    n_total = _arg("n_total", n_total, 0, kind=int)
    c = _checked_profile(coeffs, n_total + 1)
    basis = build_basis(2, n_total)
    amp = np.zeros(basis.dim, dtype=complex)
    amp[basis.sector_slice(n_total)] = c
    return PureState(basis, amp, normalize=True)


def noon(n_total: int) -> PureState:
    """(|N,0> + |0,N>) / sqrt(2)."""
    n_total = _arg("n_total", n_total, 1, kind=int)
    c = np.zeros(n_total + 1, dtype=complex)
    c[0] = c[n_total] = 1 / math.sqrt(2)
    return two_mode_fixed_n(c, n_total)


def rotated_fock(n_total: int, theta: float, phi: float = 0.0) -> PureState:
    """All N photons in the rotated mode cos(t/2) a1† + e^{i phi} sin(t/2) a0†.

    Amplitude on |k, N-k> is sqrt(C(N,k)) cos^{N-k}(theta/2)
    (e^{i phi} sin(theta/2))^k.  This expansion *defines* the rotation
    sign convention: it equals exp(i theta J_n) |0, N> for the axis
    (beta=pi/2, phi_axis=pi/2 - phi).
    """
    n_total = _arg("n_total", n_total, 0, kind=int)
    half = _arg("theta", theta) / 2.0
    c = math.cos(half)
    s = math.sin(half) * np.exp(1j * _arg("phi", phi))
    k = np.arange(n_total + 1)
    coeffs = np.array(
        [math.sqrt(math.comb(n_total, int(kk))) for kk in k], dtype=complex
    )
    coeffs *= c ** (n_total - k) * s**k
    return two_mode_fixed_n(coeffs, n_total)


def coherent_cutoff(alpha: complex, tail: float = COHERENT_TAIL_TOL) -> int:
    """Smallest cutoff whose Poisson tail P(n > cutoff) is below `tail`."""
    from scipy.special import pdtrc  # here, so importing metrolab does not load scipy
    mean = _arg("|alpha|", abs(alpha)) ** 2
    tail = _arg("tail", tail, math.ulp(0.0))  # the least positive float: tail > 0
    cutoff = max(int(mean), 0)
    while pdtrc(cutoff, mean) >= tail:
        cutoff += 1
    return cutoff


def coherent_truncated(alpha: complex, cutoff: int) -> PureState:
    """Coherent state |alpha> truncated at `cutoff` photons and renormalized.

    Raises if the discarded Poisson tail is not below 1e-12.
    """
    from scipy.special import pdtrc
    cutoff = _arg("cutoff", cutoff, 0, kind=int)
    if pdtrc(cutoff, _arg("|alpha|", abs(alpha)) ** 2) >= COHERENT_TAIL_TOL:
        raise ValueError(
            f"cutoff {cutoff} keeps a Poisson tail >= {COHERENT_TAIL_TOL} "
            f"for |alpha|^2 = {abs(alpha) ** 2:.6g}"
        )
    amp = np.zeros(cutoff + 1, dtype=complex)
    amp[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, cutoff + 1):
        amp[n] = amp[n - 1] * alpha / math.sqrt(n)
    return PureState(build_basis(1, cutoff), amp, normalize=True)


def cv_cat(alpha: complex, cutoff: int) -> PureState:
    """Normalized |0> + |alpha> on a single mode.

    The squared norm before normalization is 2 + 2 Re<0|alpha>
    = 2 + 2 exp(-|alpha|^2 / 2); truncation follows the coherent rule.
    """
    branch = coherent_truncated(alpha, cutoff)
    amp = branch.amplitudes.copy()
    amp[0] += 1.0
    return PureState(branch.basis, amp, normalize=True)


def correlated_three_mode(coeffs: Sequence[complex], n_total: int) -> PureState:
    """Maximally number-correlated sum_n c_n |n, n, N-2n> on three modes.

    `coeffs` runs over n = 0..floor(N/2); mode 2 is the phase reference.
    """
    n_total = _arg("n_total", n_total, 0, kind=int)
    c = _checked_profile(coeffs, n_total // 2 + 1)
    basis = build_basis(3, n_total)
    n = np.arange(c.size)
    amp = np.zeros(basis.dim, dtype=complex)
    amp[basis.rank(np.column_stack([n, n, n_total - 2 * n]))] = c
    return PureState(basis, amp, normalize=True)


def general_probe(
    coeffs, n_total: int, gates: Sequence[tuple[PairAxis, float]] = ()
) -> PureState:
    """Four-mode probe: gates applied to sum c_{n1,n2} |n1, n2, N-n1-n2, 0>.

    `coeffs` is an (N+1, N+1) array read over the triangle n1+n2 <= N
    (entries outside it must be zero).  Modes 0-2 are probes, mode 3 is
    the environment, initially in vacuum.  Gates are (PairAxis, angle)
    pairs applied in list order: the first gate acts first on the ket.
    """
    n_total = _arg("n_total", n_total, 0, kind=int)
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (n_total + 1, n_total + 1):
        raise ValueError(
            f"coefficient array must be ({n_total + 1}, {n_total + 1}), got {c.shape}"
        )
    n1g, n2g = np.meshgrid(np.arange(n_total + 1), np.arange(n_total + 1), indexing="ij")
    outside = (n1g + n2g > n_total) & (c != 0)
    if np.any(outside):
        raise ValueError("coefficients outside the n1 + n2 <= n_total region")
    _checked_profile(c, c.size)

    basis = build_basis(4, n_total)
    n1, n2 = np.nonzero(c)
    occ = np.column_stack([n1, n2, n_total - n1 - n2, np.zeros_like(n1)])
    amp = np.zeros(basis.dim, dtype=complex)
    amp[basis.rank(occ)] = c[n1, n2]
    state = PureState(basis, amp, normalize=True)
    for pair, angle in gates:
        state = rotation_unitary(basis, pair, angle).apply(state)
    return state


def with_reference(state: PureState, n_total: int) -> PureState:
    """Embed a single-mode state as sum_k d_k |k, N-k> (reference mode added).

    Coefficients beyond the fixed-N sector (k > N) are truncated and the
    result renormalized, mirroring the large-N correspondence between
    single-mode and fixed-total-number descriptions.
    """
    if state.basis.num_modes != 1:
        raise ValueError("with_reference expects a single-mode state")
    basis = build_basis(2, n_total)
    k_max = min(state.basis.n_total, n_total)
    amp = np.zeros(basis.dim, dtype=complex)
    block = basis.sector_slice(n_total)
    amp[block.start : block.start + k_max + 1] = state.amplitudes[: k_max + 1]
    return PureState(basis, amp, normalize=True)


def drop_reference(state: PureState, support_atol: float = 1e-10) -> PureState:
    """Inverse of :func:`with_reference`: extract the mode-0 profile.

    Requires the two-mode state to live in its fixed-N sector up to
    `support_atol`; returns the pure single-mode state with the same
    coefficients (coherences intact) on a cutoff-N basis.
    """
    if state.basis.num_modes != 2:
        raise ValueError("drop_reference expects a two-mode state")
    support_atol = _arg("support_atol", support_atol, 0.0)
    n_total = state.basis.n_total
    block = state.amplitudes[state.basis.sector_slice(n_total)]
    if 1.0 - float(np.sum(np.abs(block) ** 2)) > support_atol:
        raise ValueError("state has support outside the fixed-N sector")
    return PureState(build_basis(1, n_total), block, normalize=True)

