"""Oracles and random inputs used only by the tests.

Tensor products, Haar-random states, the two-state Helstrom value and the
overlap sums behind the reveal-set cap are independent ways of computing
what the library computes in closed form or from smaller objects; the
tests compare the two.  The recursive ``isinstance`` JSON writer is the
slow path that the type-dispatch canonical JSON writer replaced.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from qbsc.errors import InputError, NumericalError
from qbsc.linalg import DensityMatrix, HermitianOp, Ket, projector
from qbsc.transcript import format_float

MAX_TENSOR_DIM = 2**22
_BOUND_TOL = 1e-9


def inner(u: Ket, v: Ket) -> complex:
    """Sesquilinear inner product, conjugate-linear in the first argument."""
    if u.dim != v.dim:
        raise InputError(f"dimension mismatch: {u.dim} vs {v.dim}")
    return complex(np.vdot(u.amps, v.amps))


def tensor(a: Ket, b: Ket) -> Ket:
    """Tensor product of two states; the first factor is the slow index."""
    if a.dim * b.dim > MAX_TENSOR_DIM:
        raise InputError(
            f"tensor product dimension {a.dim * b.dim} exceeds {MAX_TENSOR_DIM}"
        )
    return Ket(np.kron(a.amps, b.amps))


def tensor_op(a: HermitianOp, b: HermitianOp) -> HermitianOp:
    """Tensor product of two operators, preserving the density-matrix type."""
    if a.dim * b.dim > MAX_TENSOR_DIM:
        raise InputError(
            f"tensor product dimension {a.dim * b.dim} exceeds {MAX_TENSOR_DIM}"
        )
    product = np.kron(a.mat, b.mat)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(product)
    return HermitianOp(product)


def random_ket(dim: int, rng: np.random.Generator) -> Ket:
    """Haar-distributed random state."""
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Ket.normalize(raw)


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank density matrix from a normalized Ginibre product."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(rho)


def helstrom_two_state(psi0: Ket, psi1: Ket, prior: float = 0.5) -> float:
    """Optimal success probability for discriminating two pure states.

    Computed spectrally as (1 + trace-norm of the weighted difference)/2;
    for equal priors this equals (1 + sqrt(1 - |overlap|^2)) / 2.
    """
    if psi0.dim != psi1.dim:
        raise InputError(f"dimension mismatch: {psi0.dim} vs {psi1.dim}")
    if not 0.0 <= prior <= 1.0:
        raise InputError(f"prior {prior!r} outside [0, 1]")
    gamma = prior * projector(psi0).mat - (1.0 - prior) * projector(psi1).mat
    trace_norm = float(np.abs(np.linalg.eigvalsh(gamma)).sum())
    return 0.5 * (1.0 + trace_norm)


class RayleighTerms(NamedTuple):
    cross: float
    chain: float
    rayleigh: float


def rayleigh_quotient_terms(weights, gram) -> RayleighTerms:
    """Overlap sums behind the reveal-set cap.

    For coefficients ``w`` (unit square-sum) over states with Gram matrix
    ``G``, returns the first-order cross sum ``sum_{i != j} conj(w_i) w_j
    G_ij``, the second-order chain sum over paths ``i -> j -> k`` with
    ``i != j, j != k``, and the Rayleigh quotient
    ``(1 + 2*cross + chain) / (1 + cross)`` of the reveal-set operator on
    the span.  The quotient is re-derived directly from the Gram matrix and
    both overlap sums are checked against their worst-case caps
    ``eps*(r-1)`` and ``eps^2*(r-1)^2``.
    """
    w = np.asarray(weights, dtype=complex)
    g = np.asarray(gram, dtype=complex)
    if w.ndim != 1 or g.ndim != 2 or g.shape != (w.size, w.size):
        raise InputError(
            f"need weights (r,) and gram (r, r); got {w.shape} and {g.shape}"
        )
    if np.max(np.abs(g - g.conj().T)) > 1e-10:
        raise InputError("gram matrix is not Hermitian")
    if np.max(np.abs(np.diag(g) - 1.0)) > 1e-10:
        raise InputError("gram matrix diagonal must be 1 (unit vectors)")
    norm_sq = float(np.vdot(w, w).real)
    if abs(norm_sq - 1.0) > 1e-8:
        raise InputError(f"weights must have unit square-sum, got {norm_sq!r}")

    off = g - np.eye(w.size)
    cross_c = complex(np.vdot(w, off @ w))
    chain_c = complex(np.vdot(w, off @ (off @ w)))
    if abs(cross_c.imag) > _BOUND_TOL or abs(chain_c.imag) > _BOUND_TOL:
        raise NumericalError("overlap sums acquired an imaginary part")
    cross = cross_c.real
    chain = chain_c.real

    r = w.size
    eps = float(np.max(np.abs(off))) if r > 1 else 0.0
    if cross > eps * (r - 1) + _BOUND_TOL:
        raise NumericalError(
            f"cross sum {cross!r} exceeds its cap {eps * (r - 1)!r}"
        )
    if chain > eps**2 * (r - 1) ** 2 + _BOUND_TOL:
        raise NumericalError(
            f"chain sum {chain!r} exceeds its cap {eps**2 * (r - 1) ** 2!r}"
        )

    rayleigh = (1.0 + 2.0 * cross + chain) / (1.0 + cross)
    numerator = float(np.vdot(w, (g @ (g @ w))).real)
    denominator = float(np.vdot(w, g @ w).real)
    direct = numerator / denominator
    if abs(rayleigh - direct) > _BOUND_TOL:
        raise NumericalError(
            f"Rayleigh quotient mismatch: {rayleigh!r} vs direct {direct!r}"
        )
    return RayleighTerms(cross=cross, chain=chain, rayleigh=rayleigh)


def recursive_canonical_json(obj) -> str:
    """Canonical JSON by an ``isinstance`` chain on every node."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise InputError("canonical JSON requires string keys")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")
