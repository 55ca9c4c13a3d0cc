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
replaced, and ``np.unique`` over the generator's columns as bit vectors
the count of equal columns that the code's cached column classes must
match.  The explicit square-root measurement of the code states, with the
Yuen-Kennedy-Lax conditions that certify it optimal, is what the closed
form of ``guess_string_exact`` must agree with.  The complex
reveal-set operator stacked from the code states' ``Ket`` amplitudes is
what the real one built from a batch of codewords replaced.  The explicit
per-qubit Helstrom measurement, summed over every bit string, is what the
closed form of ``guess_all_oracle`` must agree with.  The rank-1
projector of a state builds those measurements and the two-projector sum
that the one-build ``reveal_operator`` must match bit for bit.  The int64
butterflies with interleaved writes are the weight enumeration that the
contiguous int16 one replaced, and the Python-integer popcounts the
reveal-set Gram matrix that the packed-byte one replaced.  The pair
check's overlaps in one ``einsum`` over the whole batch are what its
block-at-a-time overlaps must match bit for bit, and packed codewords built
message by message what the batched byte-table lookups must match byte for
byte.  The cheat-set row taken one sample at a time, each draw checked as
a ``CheatSet`` and its Gram matrix solved alone, is what the row solved
once per cheat-set size must match bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import NamedTuple

import numpy as np

from qbsc.codebook import _amplitudes, make_rng, verify_epsilon
from qbsc.errors import InputError, NumericalError
from qbsc.linalg import DensityMatrix, HermitianOp, Ket, _eigh
from qbsc.protocol1 import _BOUND_TOL, encode_bit
from qbsc.protocol2 import binding_bound2, cheat_set_for
from qbsc.transcript import format_float

MAX_TENSOR_DIM = 2**22


def inner(u: Ket, v: Ket) -> complex:
    """Sesquilinear inner product, conjugate-linear in the first argument."""
    if u.dim != v.dim:
        raise InputError(f"dimension mismatch: {u.dim} vs {v.dim}")
    return complex(np.vdot(u.amps, v.amps))


def projector(v: Ket) -> HermitianOp:
    """Rank-1 projector onto a normalized state."""
    return HermitianOp(np.outer(v.amps, v.amps.conj()))


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


def int64_butterfly_weights(code) -> np.ndarray:
    """Nonzero codeword weights from int64 Walsh-Hadamard butterflies that
    each act on the leading index bit and write their sums and differences
    interleaved, moving that bit to the end."""
    k = code.k
    columns = np.dot(1 << np.arange(k - 1, -1, -1), code.generator)
    spectrum = np.bincount(columns, minlength=2**k)
    for _ in range(k):
        top, bottom = spectrum.reshape(2, -1)
        spectrum = np.empty((top.size, 2), dtype=np.int64)
        np.add(top, bottom, out=spectrum[:, 0])
        np.subtract(top, bottom, out=spectrum[:, 1])
    return (code.m - spectrum.ravel()[1:]) // 2


def one_batch_overlaps(words_i: np.ndarray, words_j: np.ndarray) -> np.ndarray:
    """Inner products of the sign-pattern states of paired codeword rows,
    all amplitudes built at once and summed by one ``einsum``."""
    return np.einsum("pa,pa->p", _amplitudes(words_i), _amplitudes(words_j))


def looped_packed_words(code, messages) -> np.ndarray:
    """Packed codewords of big-endian message indices, one message at a
    time: each XORs the generator rows its set bits select (row 0 for the
    most significant of k bits) and packs the result."""
    k, m = code.k, code.m
    out = np.zeros((len(messages), (m + 7) // 8), dtype=np.uint8)
    for n, message in enumerate(messages):
        word = np.zeros(m, dtype=np.uint8)
        for i in range(k):
            if message >> (k - 1 - i) & 1:
                word ^= code.generator[i]
        out[n] = np.packbits(word)
    return out


def python_int_cheat_set_gram(cb, s) -> np.ndarray:
    """Gram matrix ``1 - 2 d_ij / m`` of a cheat set with each codeword an
    ``m``-bit Python integer, the XOR of the generator rows its message
    selects, and each distance the ``bit_count`` of an XOR of two of them."""
    k = cb.code.k
    rows = [int("".join(map(str, row)), 2) for row in cb.code.generator.tolist()]
    words = []
    for x in s.indices:
        word = 0
        for i, row in enumerate(rows):
            if (x >> (k - 1 - i)) & 1:
                word ^= row
        words.append(word)
    distances = np.array([[(a ^ b).bit_count() for b in words] for a in words])
    return 1.0 - 2.0 * distances / cb.code.m


def per_sample_cheat_set_row(cb, samples: int, seed: int) -> dict:
    """``gap``, ``violations`` and ``pass`` of a feasible cheat-set row, one
    sample at a time: each draw of the row's stream is made a checked
    ``CheatSet``, its Gram matrix is :func:`python_int_cheat_set_gram`,
    solved alone, and its excess over the cap is folded in as it comes."""
    eps = cb.epsilon_certified
    r_max = cb.size
    if eps > 0.0:
        r_max = min(r_max, int(math.ceil(1.0 / eps)))
    rng = make_rng(seed)
    worst = -math.inf
    violations = 0
    for _ in range(samples):
        r = int(rng.integers(2, r_max + 1))
        indices = rng.choice(cb.size, size=r, replace=False)
        s = cheat_set_for(cb, (int(i) for i in indices))
        lam = float(np.linalg.eigvalsh(python_int_cheat_set_gram(cb, s))[-1])
        excess = lam - binding_bound2(r, eps)
        worst = max(worst, excess)
        violations += excess > _BOUND_TOL
    certified = verify_epsilon(cb) == eps
    return {
        "gap": worst,
        "violations": violations,
        "pass": certified and max(0.0, worst) <= _BOUND_TOL,
    }


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


class SquareRootMeasurement(NamedTuple):
    success: float  # whole-string guessing probability, equal priors
    completeness: float  # max |sum_x M_x - projector onto the states' span|
    asymmetry: float  # max |Gamma - Gamma^T|
    slack: float  # smallest eigenvalue of any Gamma - p psi_x psi_x^T


def square_root_measurement(cb) -> SquareRootMeasurement:
    """The square-root measurement ``M_x = p rho^(-1/2) psi_x psi_x^T
    rho^(-1/2)`` of the ``2^k`` equiprobable code states (``p = 2^-k``, the
    inverse root taken on the span of the states), its success ``sum_x p
    <psi_x|M_x|psi_x>``, and the Yuen-Kennedy-Lax certificate of its
    optimality: ``Gamma = sum_x p psi_x psi_x^T M_x`` is symmetric and
    every ``Gamma - p psi_x psi_x^T`` is positive semidefinite.  Kept to
    ``k <= 8`` and ``m <= 64``: ``2^k`` eigensolves of ``m x m``."""
    if cb.code.k > 8 or cb.dim > 64:
        raise ValueError(f"k = {cb.code.k}, m = {cb.dim} beyond the oracle's size")
    p = 1.0 / cb.size
    states = np.stack([cb.state(x).amps.real for x in range(cb.size)])
    lam, vec = np.linalg.eigh(p * states.T @ states)
    span = vec[:, lam > 1e-9]
    inverse_root = (span / np.sqrt(lam[lam > 1e-9])) @ span.T
    roots = math.sqrt(p) * states @ inverse_root  # M_x = outer(roots[x], roots[x])
    amplitudes = np.einsum("xa,xa->x", states, roots)
    gamma = p * np.einsum("x,xa,xb->ab", amplitudes, states, roots)
    slack = np.linalg.eigvalsh(gamma - p * states[:, :, None] * states[:, None, :])
    return SquareRootMeasurement(
        success=float(p * np.sum(amplitudes**2)),
        completeness=float(np.abs(roots.T @ roots - span @ span.T).max()),
        asymmetry=float(np.abs(gamma - gamma.T).max()),
        slack=float(slack.min()),
    )


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
