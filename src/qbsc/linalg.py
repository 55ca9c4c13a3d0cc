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
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

NORM_TOL = 1e-10
SPECTRAL_TOL = 1e-8
_STRIP = 128  # rows per strip of the Hermiticity check


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

    @classmethod
    def normalize(cls, raw) -> "Ket":
        """Build a Ket from an arbitrary nonzero vector by rescaling."""
        arr = np.asarray(raw, dtype=complex)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise InputError("cannot normalize the zero vector")
        return cls(arr / norm)


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
    """

    def __post_init__(self):
        super().__post_init__()
        trace = float(np.trace(self.mat).real)
        if abs(trace - 1.0) > NORM_TOL:
            raise InputError(f"density matrix trace is {trace!r}, expected 1")
        w = _eigvalsh(self.mat)
        if w[0] < -NORM_TOL:
            raise InputError(
                f"density matrix has negative eigenvalue {w[0]!r}"
            )
        object.__setattr__(self, "_spectrum", _freeze(w))

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order, cached at construction."""
        return self._spectrum


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


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first non-negligible entry is positive real."""
    out = np.array(vectors, dtype=complex)
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col) > 1e-8))
        pivot = col[idx]
        out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


def projector(v: Ket) -> HermitianOp:
    """Rank-1 projector onto a normalized state."""
    return HermitianOp(np.outer(v.amps, v.amps.conj()))


def eig_hermitian(h: HermitianOp) -> tuple[np.ndarray, tuple[Ket, ...]]:
    """Full eigendecomposition with deterministic ordering and phases.

    Eigenvalues come back ascending; each eigenvector is rotated so its
    first non-negligible component is positive real, which makes repeated
    runs byte-for-byte reproducible.
    """
    w, v = _eigh(h.mat)
    v = _fix_phases(v)
    return w, tuple(Ket(v[:, j]) for j in range(v.shape[1]))


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
