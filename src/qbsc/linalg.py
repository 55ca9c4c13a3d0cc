"""Dense linear algebra for small Hilbert spaces.

State vectors, Hermitian operators and density matrices are thin immutable
wrappers around numpy arrays, validated at construction.  State vectors are
complex; operators keep real input real (float64) and store complex input
as complex128, so real symmetric matrices never pay for a complex copy.
Construction tolerances are 1e-10 and spectral tolerances 1e-8, sized so
that double-precision eigensolves up to dimension 4096 pass comfortably.

All values are immutable after construction and every operation is a pure
function, so callers may freely share objects between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

NORM_TOL = 1e-10
SPECTRAL_TOL = 1e-8
_STRIP = 128  # rows per strip of the Hermiticity check
_PAIR_STRIP = 32  # swapped pairs per strip of the involution blocks
_COUPLING_TOL = 1e-12
_ROOT_HALF = math.sqrt(0.5)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Ket:
    """Unit-norm complex amplitude vector over a finite-dimensional space."""

    amps: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amps, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise InputError("Ket amplitudes must form a non-empty 1-D vector")
        norm_sq = float(np.vdot(arr, arr).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # also rejects NaN and inf
            raise InputError(
                f"Ket is not normalized: sum |amps|^2 = {norm_sq!r} "
                f"(tolerance {NORM_TOL})"
            )
        object.__setattr__(self, "amps", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.amps.size


def _max_asymmetry(arr: np.ndarray) -> float:
    """``max |arr - arr^H|`` over all entries of a square matrix.

    Each mirrored pair of entries is compared once, in row strips of the
    upper triangle, so the temporaries are strip-sized rather than the
    size of the matrix.  Any NaN or inf entry gives NaN or inf.
    """
    maxima = [
        np.abs(arr[i : i + _STRIP, i:] - arr[i:, i : i + _STRIP].conj().T).max()
        for i in range(0, arr.shape[0], _STRIP)
    ]
    # np.max keeps a NaN wherever it is; the builtin max may drop it
    return float(maxima[0] if len(maxima) == 1 else np.max(maxima))


@dataclass(frozen=True)
class HermitianOp:
    """Hermitian matrix on a finite-dimensional space.

    Real input is stored as float64 and anything else as complex128.
    """

    mat: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.mat)
        arr = arr.astype(float if arr.dtype.kind in "biuf" else complex, copy=False)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InputError("operator must be a square matrix")
        # any NaN or inf entry makes the asymmetry NaN or inf and fails
        if not _max_asymmetry(arr) <= NORM_TOL:
            raise InputError("matrix is not Hermitian within 1e-10")
        object.__setattr__(self, "mat", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class DensityMatrix(HermitianOp):
    """Hermitian operator with unit trace and nonnegative spectrum.

    The spectrum is computed once during validation and cached, so entropy
    evaluations do not repeat the eigensolve.

    ``involution`` optionally declares an index array ``p`` with
    ``p[p] = range(dim)`` whose permutation commutes with the matrix; the
    spectrum is then solved on the permutation's two eigenspaces, once the
    block coupling them is checked to vanish (:func:`_involution_spectrum`).
    """

    involution: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        trace = float(np.trace(self.mat).real)
        if abs(trace - 1.0) > NORM_TOL:
            raise InputError(f"density matrix trace is {trace!r}, expected 1")
        if self.involution is None:
            w = _eigvalsh(self.mat)
        else:
            perm = _checked_involution(self.involution, self.dim)
            object.__setattr__(self, "involution", perm)
            w = _involution_spectrum(self.mat, perm)
        if w[0] < -NORM_TOL:
            raise InputError(
                f"density matrix has negative eigenvalue {w[0]!r}"
            )
        object.__setattr__(self, "_spectrum", _freeze(w))

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order, cached at construction."""
        return self._spectrum


def _checked_involution(perm, dim: int) -> np.ndarray:
    arr = np.asarray(perm)
    if arr.shape != (dim,) or arr.dtype.kind not in "iu":
        raise InputError(f"involution must be a 1-D array of {dim} integer indices")
    if arr.min() < 0 or arr.max() >= dim or np.any(arr[arr] != np.arange(dim)):
        raise InputError(f"involution is not an involutive permutation of range({dim})")
    return _freeze(arr.astype(np.intp))


def _involution_spectrum(mat: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian ``M`` that commutes with the
    permutation of the involution ``perm``.

    The even eigenspace of the permutation is spanned by ``e_x`` for each
    fixed ``x`` and by ``(e_a + e_b) / sqrt 2`` for each swapped pair
    ``a < b = perm[a]``; the odd one by ``(e_a - e_b) / sqrt 2``.  The rows
    of ``M`` are gathered a strip of pairs at a time, their sums and
    differences give the rows of the even and odd blocks, and each block is
    solved by itself.  The block coupling even rows to odd columns, summed
    on the way, bounds how far the spectrum of the two blocks is from that
    of ``M`` (Weyl); a Frobenius norm above 1e-12 raises
    :class:`NumericalError`.
    """
    index = np.arange(perm.size)
    fixed = np.flatnonzero(perm == index)
    a = np.flatnonzero(perm > index)
    b = perm[a]
    nf = fixed.size
    even = np.empty((nf + a.size,) * 2, dtype=mat.dtype)
    odd = np.empty((a.size,) * 2, dtype=mat.dtype)

    def pair_columns(rows):
        # sums and differences of the two columns of each swapped pair
        ca, cb = rows.take(a, axis=1), rows.take(b, axis=1)
        return ca + cb, ca - cb

    rows = mat.take(fixed, axis=0)
    even[:nf, :nf] = rows.take(fixed, axis=1)
    sums, diffs = pair_columns(rows)
    even[:nf, nf:] = sums * _ROOT_HALF
    coupling_sq = float(np.vdot(diffs, diffs).real) / 2.0
    for i in range(0, a.size, _PAIR_STRIP):
        top = mat.take(a[i : i + _PAIR_STRIP], axis=0)
        bottom = mat.take(b[i : i + _PAIR_STRIP], axis=0)
        plus, minus = top + bottom, top - bottom
        block_rows = slice(nf + i, nf + i + plus.shape[0])
        even[block_rows, :nf] = plus.take(fixed, axis=1) * _ROOT_HALF
        sums, diffs = pair_columns(plus)
        even[block_rows, nf:] = sums * 0.5
        coupling_sq += float(np.vdot(diffs, diffs).real) / 4.0
        odd[i : i + _PAIR_STRIP] = pair_columns(minus)[1] * 0.5
    coupling = math.sqrt(coupling_sq)
    if not coupling <= _COUPLING_TOL:
        raise NumericalError(
            f"matrix does not commute with the involution: coupling block "
            f"norm {coupling!r} exceeds {_COUPLING_TOL}"
        )
    return np.sort(np.concatenate([_eigvalsh(even), _eigvalsh(odd)]))


def _as_real_if_possible(mat: np.ndarray) -> np.ndarray:
    # Real symmetric solves are several times faster than complex Hermitian
    # ones; the states in both protocols have real amplitudes.
    if np.iscomplexobj(mat) and not np.any(mat.imag):
        return np.ascontiguousarray(mat.real)
    return mat


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(_as_real_if_possible(mat))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigenvalue solver failed on a {mat.shape[0]}-dim operator: {exc}"
        ) from exc


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        w, v = np.linalg.eigh(_as_real_if_possible(mat))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigenvalue solver failed on a {mat.shape[0]}-dim operator: {exc}"
        ) from exc
    return w, v.astype(complex, copy=False)


def _fix_phase(vector: np.ndarray) -> np.ndarray:
    """Rotate a complex vector so its first non-negligible entry is positive
    real."""
    pivot = vector[int(np.argmax(np.abs(vector) > 1e-8))]
    return vector * (pivot.conjugate() / abs(pivot))


def projector(v: Ket) -> HermitianOp:
    """Rank-1 projector onto a normalized state."""
    return HermitianOp(np.outer(v.amps, v.amps.conj()))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Spectral entropy -sum(p log2 p) in bits, with 0*log(0) = 0."""
    w = np.asarray(rho.spectrum, dtype=float)
    if w[0] < -SPECTRAL_TOL:
        raise InputError(f"state has eigenvalue {w[0]!r} below -1e-8")
    w = np.clip(w, 0.0, None)
    positive = w[w > 0.0]
    return float(-(positive * np.log2(positive)).sum())


def binary_entropy(p: float) -> float:
    """Binary entropy in bits; endpoints return exactly 0."""
    if p < -1e-12 or p > 1.0 + 1e-12:
        raise InputError(f"probability {p!r} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
