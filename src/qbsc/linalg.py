"""Dense linear algebra for small Hilbert spaces.

State vectors, Hermitian operators and density matrices are thin immutable
wrappers around numpy arrays, validated at construction.  State vectors are
complex.  An operator decides its storage once, when it is built: input
whose imaginary parts are all zero is stored as float64 and anything else
as complex128, so the real states of both protocols are solved as real
symmetric matrices, several times faster than complex Hermitian ones.  The
eigensolvers solve whatever they are given, and every eigensolve of the
package goes through them, so a solver failure is a NumericalError.
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
_STRIP = 128  # rows per strip of the Hermiticity check
_COUPLING_TOL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Read-only ``arr`` if it owns its data, else a read-only copy of it."""
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
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

    Input whose imaginary parts are all zero is stored as float64 and
    anything else as complex128.
    """

    mat: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.mat)
        arr = arr.astype(float if arr.dtype.kind in "biuf" else complex, copy=False)
        if arr.dtype.kind == "c" and not arr.imag.any():
            arr = arr.real  # a view, which _freeze copies
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InputError("operator must be a square matrix")
        # any NaN or inf entry makes the asymmetry NaN or inf and fails
        if getattr(self, "labels", None) is None and not _max_asymmetry(arr) <= NORM_TOL:
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

    ``labels`` optionally gives each basis index an integer label and
    declares the matrix block diagonal over them.  One pass over the rows of
    each label then checks its block's Hermiticity and that the entries
    coupling it to other labels vanish, and solves each distinct block once
    (:func:`_labelled_spectrum`), in place of the whole-matrix check.
    """

    labels: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        trace = float(np.trace(self.mat).real)
        if abs(trace - 1.0) > NORM_TOL:
            raise InputError(f"density matrix trace is {trace!r}, expected 1")
        if self.labels is None:
            w = _eigvalsh(self.mat)
        else:
            labels = np.asarray(self.labels)
            if labels.shape != (self.dim,) or labels.dtype.kind not in "iu":
                raise InputError(f"labels must be a 1-D array of {self.dim} integers")
            object.__setattr__(self, "labels", _freeze(labels))
            w = _labelled_spectrum(self.mat, labels)
        if w[0] < -NORM_TOL:
            raise InputError(
                f"density matrix has negative eigenvalue {w[0]!r}"
            )
        object.__setattr__(self, "_spectrum", _freeze(w))

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order, cached at construction."""
        return self._spectrum


def _labelled_spectrum(mat: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian ``M`` that is block diagonal
    over the index labels ``labels``.

    Each label's rows are gathered once; its block must be Hermitian within
    1e-10 (else InputError), and the squares of the other entries are summed.
    A block within 1e-12 (Frobenius) of a solved one of its size, kept while
    one can follow, reuses its eigenvalues and adds the squared difference
    to the sum.  The root of the sum bounds the error of the spectrum
    (Weyl); above 1e-12 it raises NumericalError, NaN or inf InputError.
    It also bounds each entry coupling two labels, so |M_ij - conj(M_ji)|
    <= 2e-12 there: ``M`` is Hermitian with no pass over the whole matrix.
    """
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    indices = np.split(order, starts)
    last = {index.size: k for k, index in enumerate(indices)}
    solved = {}  # size -> the last block of that size solved, its eigenvalues
    spectra = []
    error_sq = 0.0
    for k, index in enumerate(indices):
        rows = mat.take(index, axis=0)
        block = rows.take(index, axis=1)
        if not _max_asymmetry(block) <= NORM_TOL:
            raise InputError("matrix is not Hermitian within 1e-10")
        rows[:, index] = 0.0
        error_sq += float(np.vdot(rows, rows).real)
        diff = block - solved[index.size][0] if index.size in solved else math.inf
        diff_sq = float(np.vdot(diff, diff).real)
        if diff_sq <= _COUPLING_TOL**2:
            error_sq += diff_sq
        else:
            solved[index.size] = block, _eigvalsh(block)
        spectra.append(solved[index.size][1])
        if last[index.size] == k:
            del solved[index.size]
        del rows, block  # freed before the next label's rows are gathered
    if not math.isfinite(error_sq):
        raise InputError("matrix has a NaN or inf entry coupling two labels")
    if not error_sq <= _COUPLING_TOL**2:
        raise NumericalError(
            f"matrix is not block diagonal over its labels: coupling and "
            f"reuse norm {math.sqrt(error_sq)!r} exceeds {_COUPLING_TOL}"
        )
    return np.sort(np.concatenate(spectra))


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a matrix, or of each in a stack of them."""
    try:
        return np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigenvalue solver failed on a {mat.shape[-1]}-dim operator: {exc}"
        ) from exc


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs as the solver gives them: a real basis for a real matrix."""
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigenvalue solver failed on a {mat.shape[0]}-dim operator: {exc}"
        ) from exc


def _fix_phase(vector: np.ndarray) -> np.ndarray:
    """Rotate a complex vector so its first non-negligible entry is positive
    real."""
    pivot = vector[int(np.argmax(np.abs(vector) > 1e-8))]
    return vector * (pivot.conjugate() / abs(pivot))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Spectral entropy -sum(p log2 p) in bits, with 0*log(0) = 0."""
    positive = rho.spectrum[rho.spectrum > 0.0]
    return float(-(positive * np.log2(positive)).sum())


def binary_entropy(p: float) -> float:
    """Binary entropy in bits; endpoints return exactly 0."""
    if p < -1e-12 or p > 1.0 + 1e-12:
        raise InputError(f"probability {p!r} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
