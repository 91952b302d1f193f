"""Truncated multimode Fock space: combinatorial indexing and state containers.

Modes are 0-indexed throughout.  A basis over ``num_modes`` modes with
cutoff ``n_total`` holds every occupation vector whose entries sum to at
most ``n_total``, ordered by total photon number first, then
lexicographically within each fixed-total sector.  The fixed-``n_total``
sector is therefore the contiguous tail block of the index range, and
number-conserving operators are block diagonal in this ordering.

Everything is dense and immutable after construction.  Matrix
eigendecompositions stay practical up to dimension ~4096.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

NORM_ATOL = 1e-12
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10


def _compositions(total: int, parts: int):
    """Yield tuples of `parts` non-negative ints summing to `total`, in lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


class FockBasis:
    """Occupation-number basis with a total-photon cutoff.

    ``dim == C(n_total + num_modes, num_modes)``.  ``rank`` maps one
    occupation vector, or a ``(k, num_modes)`` array of them, to indices in
    closed form; ``unrank`` is its inverse and reads the cached
    :meth:`occupations` table.
    """

    __slots__ = ("num_modes", "n_total", "dim", "_offsets", "_occ_table", "_pascal_table")

    def __init__(self, num_modes: int, n_total: int):
        num_modes = int(num_modes)
        n_total = int(n_total)
        if num_modes < 1:
            raise ValueError(f"num_modes must be >= 1, got {num_modes}")
        if n_total < 0:
            raise ValueError(f"n_total must be >= 0, got {n_total}")
        self.num_modes = num_modes
        self.n_total = n_total
        # _offsets[s] = number of states with total photon number < s
        self._offsets = [
            math.comb(s + num_modes - 1, num_modes) for s in range(n_total + 2)
        ]
        self.dim = self._offsets[-1]
        self._occ_table = None
        self._pascal_table = None

    def __repr__(self) -> str:
        return f"FockBasis(num_modes={self.num_modes}, n_total={self.n_total})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockBasis):
            return NotImplemented
        return self.num_modes == other.num_modes and self.n_total == other.n_total

    def __hash__(self) -> int:
        return hash((FockBasis, self.num_modes, self.n_total))

    def sector_dim(self, s: int) -> int:
        """Number of basis states with total photon number exactly `s`."""
        return math.comb(s + self.num_modes - 1, self.num_modes - 1)

    def sector_slice(self, s: int) -> slice:
        """Contiguous index range of the total-photon-number-`s` sector.

        Within a two-mode sector, states are ordered by ascending
        occupation of mode 0, so index ``sector_slice(s).start + n``
        is the state ``|n, s - n>``.
        """
        if not 0 <= s <= self.n_total:
            raise ValueError(f"sector {s} outside 0..{self.n_total}")
        return slice(self._offsets[s], self._offsets[s + 1])

    def _pascal(self) -> np.ndarray:
        """Cached int64 table ``T[r, l] = C(r + l, l)``, r <= n_total, l <= num_modes.

        ``T`` grows along both axes, so no entry exceeds ``T[-1, -1] == dim``.
        """
        if self._pascal_table is None:
            if self.dim > np.iinfo(np.int64).max:
                raise ValueError(f"basis dimension {self.dim} does not fit in int64")
            self._pascal_table = np.array(
                [[math.comb(r + l, l) for l in range(self.num_modes + 1)]
                 for r in range(self.n_total + 1)],
                dtype=np.int64,
            )
        return self._pascal_table

    def rank(self, occ):
        """Index of an occupation vector in the graded-lex ordering.

        One vector gives an ``int``; a ``(k, num_modes)`` array gives ``k``
        int64 indices.  With ``rem`` photons in modes ``j..`` and ``left``
        modes after ``j``, mode ``j`` adds the hockey-stick sum
        ``C(rem + left, left) - C(rem - occ[j] + left, left)`` to the
        offset of its sector.
        """
        rows = np.asarray(occ, dtype=np.int64)
        single = rows.ndim == 1
        rows = rows.reshape(1, -1) if single else rows
        width = rows.shape[-1] if rows.ndim else 0
        if rows.ndim != 2 or width != self.num_modes:
            raise ValueError(f"occupation has {width} modes, basis has {self.num_modes}")
        negative = np.any(rows < 0, axis=1)
        if np.any(negative):
            raise ValueError(f"negative occupation in {rows[negative][0].tolist()}")
        rem = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]  # rem[:, j] = sum(occ[j:])
        total = rem[:, 0]
        # entries above the cutoff are caught on their own: they could wrap the sums
        over = (total > self.n_total) | np.any(rows > self.n_total, axis=1)
        if np.any(over):
            raise ValueError(
                f"total photons in {rows[over][0].tolist()} exceed cutoff {self.n_total}"
            )
        table = self._pascal()
        m = self.num_modes
        left = np.arange(m - 1, 0, -1)
        # sector offset C(s + m - 1, m) = T[s, m] - T[s, m - 1] by Pascal's rule
        index = table[total, m] - table[total, m - 1]
        index += (table[rem[:, :-1], left] - table[rem[:, 1:], left]).sum(axis=1)
        return int(index[0]) if single else index

    def unrank(self, index: int) -> tuple:
        """Occupation vector at a given index; inverse of :meth:`rank`."""
        index = int(index)
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} outside 0..{self.dim - 1}")
        return tuple(self.occupations()[index].tolist())

    def occupations(self) -> np.ndarray:
        """All occupation vectors as a read-only (dim, num_modes) int array."""
        if self._occ_table is None:
            rows = []
            for s in range(self.n_total + 1):
                rows.extend(_compositions(s, self.num_modes))
            table = np.array(rows, dtype=np.int64)
            table.setflags(write=False)
            self._occ_table = table
        return self._occ_table

    def basis_state(self, occ: Sequence[int]) -> "PureState":
        """Unit vector for a single occupation configuration."""
        amp = np.zeros(self.dim, dtype=complex)
        amp[self.rank(occ)] = 1.0
        return PureState(self, amp)


@lru_cache(maxsize=None)
def build_basis(num_modes: int, n_total: int) -> FockBasis:
    """Shared, cached :class:`FockBasis` instances (they are immutable)."""
    return FockBasis(num_modes, n_total)


class PureState:
    """Normalized complex amplitude vector over a :class:`FockBasis`."""

    __slots__ = ("basis", "amplitudes")

    def __init__(self, basis: FockBasis, amplitudes, normalize: bool = False):
        amp = np.array(amplitudes, dtype=complex)
        if amp.shape != (basis.dim,):
            raise ValueError(
                f"amplitude vector has shape {amp.shape}, basis dim is {basis.dim}"
            )
        with np.errstate(over="ignore"):
            nrm = float(np.linalg.norm(amp))
        if normalize:
            if not 1e-300 <= nrm < math.inf:
                raise ValueError(f"cannot normalize a state of norm {nrm}")
            amp /= nrm
        elif not abs(nrm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state norm {nrm} is not 1 within {NORM_ATOL}")
        amp.setflags(write=False)
        self.basis = basis
        self.amplitudes = amp

    def __repr__(self) -> str:
        return f"PureState(basis={self.basis!r})"

    def amplitude(self, occ: Sequence[int]) -> complex:
        return complex(self.amplitudes[self.basis.rank(occ)])

    def overlap(self, other: "PureState") -> complex:
        _check_same_basis(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def to_mixed(self) -> "MixedState":
        return MixedState(self.basis, self.density_matrix(), check_psd=False)

    def sector_masses(self) -> np.ndarray:
        """Probability in each total-photon-number sector, indexed by sector."""
        probs = np.abs(self.amplitudes) ** 2
        return np.array(
            [probs[self.basis.sector_slice(s)].sum() for s in range(self.basis.n_total + 1)]
        )

    def expand_cutoff(self, n_total: int) -> "PureState":
        """Same state re-indexed on a basis with a larger cutoff."""
        if n_total < self.basis.n_total:
            raise ValueError("expand_cutoff cannot shrink the cutoff")
        target = build_basis(self.basis.num_modes, n_total)
        amp = np.zeros(target.dim, dtype=complex)
        amp[target.rank(self.basis.occupations())] = self.amplitudes
        return PureState(target, amp)


class MixedState:
    """Hermitian, unit-trace density matrix over a :class:`FockBasis`.

    The constructor always checks hermiticity and trace.  Positive
    semidefiniteness costs an eigendecomposition, so it is checked only
    when ``check_psd`` is true (the default); internal producers that are
    PSD by construction skip it.
    """

    __slots__ = ("basis", "matrix")

    def __init__(self, basis: FockBasis, matrix, check_psd: bool = True):
        mat = np.array(matrix, dtype=complex)
        if mat.shape != (basis.dim, basis.dim):
            raise ValueError(
                f"matrix has shape {mat.shape}, basis dim is {basis.dim}"
            )
        if not _hermiticity_residual(mat) <= HERMITICITY_ATOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr} is not 1 within {TRACE_ATOL}")
        if check_psd and float(np.linalg.eigvalsh(mat)[0]) < PSD_EIGENVALUE_FLOOR:
            raise ValueError("density matrix has an eigenvalue below -1e-10")
        mat.setflags(write=False)
        self.basis = basis
        self.matrix = mat

    def __repr__(self) -> str:
        return f"MixedState(basis={self.basis!r})"

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def sector_masses(self) -> np.ndarray:
        probs = np.real(np.diag(self.matrix))
        return np.array(
            [probs[self.basis.sector_slice(s)].sum() for s in range(self.basis.n_total + 1)]
        )


State = PureState | MixedState


def _check_same_basis(a, b) -> None:
    if a.basis != b.basis:
        raise ValueError(f"basis mismatch: {a.basis!r} vs {b.basis!r}")


def _hermiticity_residual(mat: np.ndarray) -> float:
    """max |M - M^dagger|; NaN or inf, without a warning, on non-finite input."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(mat - mat.conj().T)))


def _as_density(state: State) -> np.ndarray:
    return state.density_matrix() if isinstance(state, PureState) else state.matrix


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    # Eigenvalues that are zero up to roundoff are zeroed exactly: taking
    # sqrt(1e-16)-sized noise would otherwise pollute the kernel block.
    w, v = np.linalg.eigh(matrix)
    floor = 1e-13 * max(float(w[-1]), 0.0)
    w = np.where(w > floor, w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a: State, b: State) -> float:
    """Fidelity between two states on the same basis.

    ``|<a|b>|^2`` for pure pairs, ``<psi|rho|psi>`` for a pure/mixed pair,
    and the Uhlmann fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``
    for mixed pairs.  Always within [0, 1].
    """
    _check_same_basis(a, b)
    if isinstance(a, PureState) and isinstance(b, PureState):
        value = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    elif isinstance(a, PureState):
        value = float(np.real(np.vdot(a.amplitudes, b.matrix @ a.amplitudes)))
    elif isinstance(b, PureState):
        value = float(np.real(np.vdot(b.amplitudes, a.matrix @ b.amplitudes)))
    else:
        # tr sqrt(sqrt(rho) sigma sqrt(rho)) equals the trace norm of
        # sqrt(rho) sqrt(sigma); singular values avoid square-rooting
        # eigenvalue noise, which matters for rank-deficient inputs.
        product = _psd_sqrt(a.matrix) @ _psd_sqrt(b.matrix)
        singular = np.linalg.svd(product, compute_uv=False)
        value = float(np.sum(singular) ** 2)
    return min(max(float(value), 0.0), 1.0)


def partial_trace(state: State, keep: Iterable[int]) -> MixedState:
    """Reduced state on the modes listed in `keep` (ascending original order).

    The reduced basis keeps the original cutoff, so the output lives on
    ``FockBasis(len(keep), n_total)``.  Trace and hermiticity are
    preserved exactly up to roundoff.
    """
    basis = state.basis
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must contain at least one mode")
    if keep[0] < 0 or keep[-1] >= basis.num_modes:
        raise ValueError(f"keep modes {keep} outside 0..{basis.num_modes - 1}")
    traced = [m for m in range(basis.num_modes) if m not in keep]

    if not traced:
        return MixedState(basis, _as_density(state), check_psd=False)

    reduced = build_basis(len(keep), basis.n_total)
    occ = basis.occupations()
    kept_rank = reduced.rank(occ[:, keep])
    traced_key = build_basis(len(traced), basis.n_total).rank(occ[:, traced])

    out = np.zeros((reduced.dim, reduced.dim), dtype=complex)
    if isinstance(state, PureState):
        amp = state.amplitudes
        for key in np.unique(traced_key[np.abs(amp) > 0]):
            idx = np.nonzero(traced_key == key)[0]
            v = np.zeros(reduced.dim, dtype=complex)
            v[kept_rank[idx]] = amp[idx]
            out += np.outer(v, v.conj())
    else:
        rho = state.matrix
        for key in np.unique(traced_key):
            idx = np.nonzero(traced_key == key)[0]
            out[np.ix_(kept_rank[idx], kept_rank[idx])] += rho[np.ix_(idx, idx)]
    out = (out + out.conj().T) / 2
    return MixedState(reduced, out, check_psd=False)


def tensor_product(a: PureState, b: PureState, n_total: int | None = None) -> PureState:
    """Product state of `a` and `b` with `a`'s modes first.

    The default cutoff ``a.n_total + b.n_total`` loses no amplitude; a
    smaller explicit cutoff truncates and renormalizes.
    """
    if n_total is None:
        n_total = a.basis.n_total + b.basis.n_total
    combined = build_basis(a.basis.num_modes + b.basis.num_modes, n_total)
    amp = np.zeros(combined.dim, dtype=complex)
    a_nz = np.nonzero(a.amplitudes)[0]
    b_nz = np.nonzero(b.amplitudes)[0]
    for ka in a_nz:
        occ_a = a.basis.unrank(int(ka))
        for kb in b_nz:
            occ_b = b.basis.unrank(int(kb))
            if sum(occ_a) + sum(occ_b) <= n_total:
                amp[combined.rank(occ_a + occ_b)] = a.amplitudes[ka] * b.amplitudes[kb]
    return PureState(combined, amp, normalize=True)
