"""Oracles and random inputs used only by the tests.

Tensor products, Haar-random states, the two-state Helstrom value and the
overlap sums behind the reveal-set cap are independent ways of computing
what the library computes in closed form or from smaller objects; the
tests compare the two.  The recursive ``isinstance`` JSON writer is the
slow path that the type-dispatch canonical JSON writer replaced.  The full
phase-fixed eigendecomposition is what the single top-eigenvector path of
``top_eigenvector_strategy`` must agree with.  Per-column Gaussian elimination is
the slow rank that the packed-row XOR basis replaced, and the overlap
expression over every codeword weight is the slow form of the certificate
that reads only the two extreme weights.  The protocol-1 mixture as the
``np.kron`` power of the single-qubit mixture in the computational basis,
solved by one ``eigvalsh``, is what its pair-basis build and block solve
replaced, and ``np.unique`` over the generator's columns the count of equal
columns that a histogram of their integer values replaced.  The complex
reveal-set operator stacked from the code states' ``Ket`` amplitudes is
what the real one built from a batch of codewords replaced.  The explicit
per-qubit Helstrom measurement, summed over every bit string, is what the
closed form of ``guess_all_oracle`` must agree with.
"""

from __future__ import annotations

import itertools
import json
from typing import NamedTuple

import numpy as np

from qbsc.errors import InputError, NumericalError
from qbsc.linalg import DensityMatrix, HermitianOp, Ket, _eigh, projector
from qbsc.protocol1 import _BOUND_TOL, encode_bit
from qbsc.transcript import format_float

MAX_TENSOR_DIM = 2**22


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


def eig_hermitian(h: HermitianOp) -> tuple[np.ndarray, tuple[Ket, ...]]:
    """Full eigendecomposition with deterministic ordering and phases.

    Eigenvalues come back ascending; each eigenvector is rotated so its
    first non-negligible component is positive real.
    """
    w, v = _eigh(h.mat)
    v = np.array(v, dtype=complex)
    for j in range(v.shape[1]):
        col = v[:, j]
        pivot = col[int(np.argmax(np.abs(col) > 1e-8))]
        v[:, j] = col * (pivot.conjugate() / abs(pivot))
    return w, tuple(Ket(v[:, j]) for j in range(v.shape[1]))


def random_ket(dim: int, rng: np.random.Generator) -> Ket:
    """Haar-distributed random state."""
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Ket(raw / np.linalg.norm(raw))


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


def elimination_rank_gf2(mat: np.ndarray) -> int:
    """Rank of a 0/1 matrix over GF(2) by Gaussian elimination."""
    m = np.array(mat, dtype=np.uint8) % 2
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        pivots = np.nonzero(m[rank:, c])[0]
        if pivots.size == 0:
            continue
        piv = rank + int(pivots[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        hit = np.nonzero(m[:, c])[0]
        hit = hit[hit != rank]
        m[hit] ^= m[rank]
        rank += 1
    return rank


def all_weights_epsilon(code) -> float:
    """Maximum overlap ``|1 - 2 w / m|`` over every nonzero codeword weight."""
    weights = code.nonzero_codeword_weights()
    if weights.size == 0:
        return 0.0
    return float(np.abs(1.0 - 2.0 * weights / code.m).max())


def computational_mixture(n: int, theta: float) -> DensityMatrix:
    """The uniform protocol-1 mixture over n qubits as the ``np.kron`` power
    of rho_1 in the computational basis, solved by one ``eigvalsh``; a
    stand-in for ``protocol1.uniform_commitment_state``."""
    e0, e1 = encode_bit(0, theta).amps.real, encode_bit(1, theta).amps.real
    single = (np.outer(e0, e0) + np.outer(e1, e1)) / 2.0
    power = single
    for _ in range(n - 1):
        power = np.kron(power, single)
    return DensityMatrix(power)


def unique_column_counts(generator: np.ndarray) -> np.ndarray:
    """Multiplicity of each distinct generator column, in lexicographic
    order of the columns read top to bottom."""
    return np.unique(np.asarray(generator).T, axis=0, return_counts=True)[1]


def complex_q_operator(cb, s) -> np.ndarray:
    """The reveal-set operator of a cheat set as a complex128 matrix:
    ``rows.T @ rows.conj()`` over the stacked ``Ket`` amplitudes of its
    code states."""
    rows = np.stack([cb.state(i).amps for i in s.indices])
    return rows.T @ rows.conj()


def helstrom_qubit_conditionals(theta: float) -> tuple[float, float]:
    """Per-bit success probabilities of the optimal measurement, by value:
    the projector onto the positive part of (|e0><e0| - |e1><e1|) / 2
    guesses 0, its complement guesses 1."""
    psi0 = encode_bit(0, theta)
    psi1 = encode_bit(1, theta)
    gamma = HermitianOp(0.5 * (projector(psi0).mat - projector(psi1).mat))
    # projectors onto eigenvectors do not depend on their phases
    eigenvalues, eigenvectors = _eigh(gamma.mat)
    guess0 = np.zeros((2, 2), dtype=complex)
    for lam, vec in zip(eigenvalues, eigenvectors.T):
        if lam > 0.0:
            guess0 += projector(Ket(vec)).mat
    guess1 = np.eye(2) - guess0
    c0 = float(np.vdot(psi0.amps, guess0 @ psi0.amps).real)
    c1 = float(np.vdot(psi1.amps, guess1 @ psi1.amps).real)
    return c0, c1


def enumerated_guess_all(n: int, theta: float) -> float:
    """All-bits success probability of the per-qubit measurement, summed
    over all 2^n equiprobable strings."""
    c0, c1 = helstrom_qubit_conditionals(theta)
    total = 0.0
    for string in itertools.product((0, 1), repeat=n):
        joint = 1.0
        for bit in string:
            joint *= c0 if bit == 0 else c1
        total += joint
    return total / 2**n
