"""Truncated multimode Fock space: combinatorial indexing and state containers.

Modes are 0-indexed throughout.  A basis over ``num_modes`` modes with
cutoff ``n_total`` holds every occupation vector whose entries sum to at
most ``n_total``, ordered by total photon number first, then
lexicographically within each fixed-total sector.  The fixed-``n_total``
sector is therefore the contiguous tail block of the index range, and
number-conserving operators are block diagonal in this ordering.

Everything is immutable after construction, but a mixed state keeps its
eigenpairs once found.  A mixed state is a dense matrix, or the factor of
a sum of pure branches, which never builds a dense matrix unless read.
Matrix eigendecompositions stay practical up to dimension ~4096.
"""

from __future__ import annotations

import math
import reprlib
from functools import lru_cache
from typing import Iterable

import numpy as np

NORM_ATOL = 1e-12
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10


def _arg(name: str, value, lo=-math.inf, hi=math.inf, kind=float):
    """`kind(value)` for a finite real `value` in [lo, hi]; otherwise a ValueError naming `name`.

    With kind=int the value must also be integral (numpy integers pass).
    The bounds are compared before any float(), so an integer too large
    for a float is out of range, not an overflow.  The error echoes the
    value through reprlib, so it stays short however large the value is.
    """
    try:
        ok = lo <= value <= hi and math.isfinite(value) and value == kind(value)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        whole = "integral and " if kind is int else ""
        raise ValueError(
            f"{name} must be finite, {whole}in [{lo}, {hi}], got {reprlib.repr(value)}"
        )
    return kind(value)


def _checked_profile(coeffs, expected_len: int) -> np.ndarray:
    """`coeffs` as a flat complex vector, checked to hold `expected_len` entries of unit norm."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.shape != (expected_len,):
        raise ValueError(f"expected {expected_len} coefficients, got {c.shape}")
    nrm = float(np.linalg.norm(c))
    if not abs(nrm - 1.0) <= NORM_ATOL:
        raise ValueError(f"coefficient norm {nrm} is not 1 within {NORM_ATOL}")
    return c


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
    closed form; the cached :meth:`occupations` table is its inverse.
    """

    __slots__ = ("num_modes", "n_total", "dim", "_occ_table", "_pascal_table", "_sectors")

    def __init__(self, num_modes: int, n_total: int):
        num_modes = _arg("num_modes", num_modes, 1, kind=int)
        n_total = _arg("n_total", n_total, 0, kind=int)
        self.num_modes = num_modes
        self.n_total = n_total
        # offsets[s] = number of states with total photon number < s
        offsets = [math.comb(s + num_modes - 1, num_modes) for s in range(n_total + 2)]
        self.dim = offsets[-1]
        self._sectors = tuple(slice(offsets[s], offsets[s + 1]) for s in range(n_total + 1))
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

    def sector_slice(self, s: int) -> slice:
        """Contiguous index range of the total-photon-number-`s` sector.

        Within a two-mode sector, states are ordered by ascending
        occupation of mode 0, so index ``sector_slice(s).start + n``
        is the state ``|n, s - n>``.
        """
        return self._sectors[_arg("sector", s, 0, self.n_total, kind=int)]

    def sectors(self) -> tuple[slice, ...]:
        """Every sector's index range, by total photon number; built once per basis."""
        return self._sectors

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
        rows = np.asarray(occ)
        if rows.dtype.kind != "i":  # a float must be integral; 0.5, NaN or "1" is refused
            with np.errstate(invalid="ignore"):
                try:
                    whole = rows.astype(np.int64)
                except (TypeError, ValueError, OverflowError):
                    whole = None
            if whole is None or not np.array_equal(whole, rows):
                raise ValueError(f"occupation {reprlib.repr(occ)} is not integral")
            rows = whole
        rows = rows.astype(np.int64, copy=False)
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

    def _factors(self, blocks=None) -> tuple:
        """(block, psi there) per block of the coarser of `blocks` and rho's (rho = psi psi†).

        With no `blocks`, or with psi on several sectors (rho keeps their
        coherences), it is one whole block, and psi stays 1-D.
        """
        if blocks is None or sum(np.any(self.amplitudes[b]) for b in self.basis.sectors()) > 1:
            return ((slice(None), self.amplitudes),)
        return tuple((block, self.amplitudes[block]) for block in blocks)

    def _eigenpairs(self, blocks) -> tuple:
        """(block, p, vecs) per block of the coarser of `blocks` and rho's, one eigh each."""
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return _spectrum(rho, min(_blocks(self.basis, rho), blocks, key=len))

    def expand_cutoff(self, n_total: int) -> "PureState":
        """Same state re-indexed on a basis with a larger cutoff."""
        n_total = _arg("n_total", n_total, self.basis.n_total, kind=int)
        target = build_basis(self.basis.num_modes, n_total)
        amp = np.zeros(target.dim, dtype=complex)
        amp[target.rank(self.basis.occupations())] = self.amplitudes
        return PureState(target, amp)


class MixedState:
    """Hermitian, unit-trace, PSD density matrix over a :class:`FockBasis`, in one of two storages.

    The constructor takes a dense matrix, checks it and keeps it.  A sum
    of pure branches, as :func:`metrolab.loss_channel` gives, is kept as
    its factor instead: per block, the support rows and V with rho = V V†
    there, one column per branch (see :func:`_from_columns`).  Consumers
    call :meth:`_factors` and :meth:`_eigenpairs`; ``matrix``, the dense
    view, is built once on first use, cached and read-only.
    """

    __slots__ = ("basis", "_matrix", "_factor", "_eig")

    def __init__(self, basis: FockBasis, matrix):
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
        if float(np.linalg.eigvalsh(mat)[0]) < PSD_EIGENVALUE_FLOOR:
            raise ValueError("density matrix has an eigenvalue below -1e-10")
        mat.setflags(write=False)
        self.basis = basis
        self._matrix = mat
        self._factor = None
        self._eig = {}

    def __repr__(self) -> str:
        return f"MixedState(basis={self.basis!r})"

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:  # each block's V V† on its support rows
            mat = np.zeros((self.basis.dim, self.basis.dim), dtype=complex)
            for _, rows, v in self._factor:
                mat[np.ix_(rows, rows)] = _gram(v)
            mat.setflags(write=False)
            self._matrix = mat
        return self._matrix

    def _stored(self, blocks) -> tuple:
        """(block, rows, V) per block of the coarser of `blocks` and the factor's.

        Sector blocks merge into one whole block by stacking their
        disjoint rows and their columns, V block diagonal.
        """
        if len(blocks) >= len(self._factor):
            return self._factor
        rows = np.concatenate([r for _, r, _ in self._factor])
        merged = np.zeros((len(rows), sum(v.shape[1] for _, _, v in self._factor)), dtype=complex)
        i = j = 0
        for _, r, v in self._factor:
            merged[i : i + len(r), j : j + v.shape[1]] = v
            i, j = i + len(r), j + v.shape[1]
        return ((slice(None), rows, merged),)

    def _eigenpairs(self, blocks) -> tuple:
        """(block, p, vecs) per block of the coarser of `blocks` and rho's; each kind is kept.

        A dense rho finds its own blocks (:func:`_blocks`) and runs one eigh
        per block.  A factor runs one eigh of the r x r Gram matrix V†V per
        block, (p, u), and keeps the p above its roundoff, r eps max(p), so
        that each vecs = V u / sqrt(p), on the block's rows, is a unit vector
        orthogonal to the others: a thin frame of rho's support.
        """
        whole = len(blocks) < len(self.basis.sectors())  # for an operator that mixes sectors
        if whole not in self._eig:
            if self._factor is None:
                on = blocks if whole else _blocks(self.basis, self.matrix)
                self._eig[whole] = _spectrum(self.matrix, on)
            else:
                pairs = []
                for block, rows, v in self._stored(blocks):
                    p, u = np.linalg.eigh(v.conj().T @ v) if v.size else (np.zeros(0), v)
                    live = p > len(p) * np.finfo(float).eps * p.max(initial=0.0)
                    p, vu = p[live], v @ u[:, live]
                    # each part divided on its own: a complex division would round twice
                    vecs = vu.real / np.sqrt(p) + 1j * (vu.imag / np.sqrt(p))
                    pairs.append((block, p, _on_block(self.basis, block, rows, vecs)))
                self._eig[whole] = tuple(pairs)
        return self._eig[whole]

    def _factors(self, blocks=None) -> tuple:
        """(block, V) per block, rho = V V† there: the stored factor, or vecs sqrt(p > 0).

        A factor gives its own blocks, merged into one whole block for
        coarser `blocks`; a dense rho gives its :meth:`_eigenpairs` blocks.
        """
        blocks = blocks or self.basis.sectors()
        if self._factor is None:
            pairs = self._eigenpairs(blocks)
            return tuple((block, vecs[:, p > 0] * np.sqrt(p[p > 0])) for block, p, vecs in pairs)
        return tuple((block, _on_block(self.basis, block, rows, v))
                     for block, rows, v in self._stored(blocks))


State = PureState | MixedState


def _check_same_basis(a, b) -> None:
    if a.basis != b.basis:
        raise ValueError(f"basis mismatch: {a.basis!r} vs {b.basis!r}")


def _exact(cls, **fields):
    """An unchecked `cls` for a product exact by construction; its arrays are made read-only."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        setattr(obj, name, value)
    return obj


def _from_columns(basis: FockBasis, columns) -> MixedState:
    """rho = sum_c v_c v_c† from sparse columns (indices, values), kept as its factor; unchecked.

    The blocks are the sectors when every column lies in one sector, and
    otherwise one whole block, as for :meth:`PureState._factors`.  Each
    block keeps its sorted support rows and V there, one column per input
    column in the block.  Every column must have at least one index.
    """
    sectors = basis.sectors()
    starts = [block.start for block in sectors]
    # sectors are contiguous, so a column's first and last index bound the sectors it meets
    ends = [np.searchsorted(starts, [idx.min(), idx.max()], side="right") - 1 for idx, _ in columns]
    if all(first == last for first, last in ends):
        groups = [[] for _ in sectors]
        for column, (home, _) in zip(columns, ends):
            groups[home].append(column)
        blocks = list(zip(sectors, groups))
    else:
        blocks = [(slice(None), list(columns))]
    factor = []
    for block, cols in blocks:
        rows = np.unique(np.concatenate([idx for idx, _ in cols] or [np.zeros(0, np.int64)]))
        v = np.zeros((len(rows), len(cols)), dtype=complex)
        for c, (idx, values) in enumerate(cols):
            v[np.searchsorted(rows, idx), c] = values
        rows.setflags(write=False)
        v.setflags(write=False)
        factor.append((block, rows, v))
    return _exact(MixedState, basis=basis, _matrix=None, _factor=tuple(factor), _eig={})


def _on_block(basis: FockBasis, block: slice, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`v`, given on the support `rows`, on every row of `block`: zero elsewhere."""
    start, stop, _ = block.indices(basis.dim)
    out = np.zeros((stop - start, v.shape[1]), dtype=complex)
    out[rows - start] = v
    return out


def _blocks(basis: FockBasis, mat: np.ndarray) -> tuple[slice, ...]:
    """The basis's sectors if `mat` is block diagonal over them, else one whole block."""
    sectors = basis.sectors()
    if np.count_nonzero(mat) != sum(np.count_nonzero(mat[b, b]) for b in sectors):
        return (slice(None),)
    return sectors


def _spectrum(h: np.ndarray, blocks) -> tuple:
    """(block, w, v) per block of a Hermitian H, block diagonal over `blocks`, one eigh each."""
    return tuple((block, *np.linalg.eigh(h[block, block])) for block in blocks)


def _gram(v: np.ndarray) -> np.ndarray:
    """V V† of a factor; a 1-D one gives the bits of one outer product."""
    return np.outer(v, v.conj()) if v.ndim == 1 else v @ v.conj().T


def _hermiticity_residual(mat: np.ndarray) -> float:
    """max |M - M^dagger|; NaN or inf, without a warning, on non-finite input."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(mat - mat.conj().T)))


def fidelity(a: PureState, b: PureState) -> float:
    """``|<a|b>|^2`` between two pure states on the same basis, within [0, 1]."""
    for state in (a, b):
        if not isinstance(state, PureState):
            raise TypeError(f"fidelity expects two PureStates, got {type(state).__name__}")
    _check_same_basis(a, b)
    return min(float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2), 1.0)


def partial_trace(state: State, keep: Iterable[int]) -> MixedState:
    """Reduced state on the modes listed in `keep` (ascending original order).

    The reduced basis keeps the original cutoff, so the output lives on
    ``FockBasis(len(keep), n_total)``.  Each factor V of rho = sum V V†
    adds V V† over the rows that share one configuration of the traced modes.
    Trace and hermiticity are preserved exactly up to roundoff.
    """
    basis = state.basis
    keep = sorted(set(_arg("keep mode", k, 0, basis.num_modes - 1, kind=int) for k in keep))
    if not keep:
        raise ValueError("keep must contain at least one mode")
    traced = [m for m in range(basis.num_modes) if m not in keep]

    reduced = build_basis(len(keep), basis.n_total)
    occ = basis.occupations()
    kept_rank = reduced.rank(occ[:, keep])
    # with no mode traced out, every row shares the one empty configuration
    traced_key = (build_basis(len(traced), basis.n_total).rank(occ[:, traced]) if traced
                  else np.zeros(basis.dim, dtype=np.int64))

    out = np.zeros((reduced.dim, reduced.dim), dtype=complex)
    for block, v in state._factors():
        rows = np.arange(basis.dim)[block]
        live = np.any(v.reshape(len(rows), -1) != 0, axis=1)  # zero rows add nothing
        for key in np.unique(traced_key[rows[live]]):
            hit = live & (traced_key[rows] == key)
            out[np.ix_(kept_rank[rows[hit]], kept_rank[rows[hit]])] += _gram(v[hit])
    out = (out + out.conj().T) / 2
    return _exact(MixedState, basis=reduced, _matrix=out, _factor=None, _eig={})
