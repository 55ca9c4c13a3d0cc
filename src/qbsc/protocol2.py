"""Codebook string commitment: sessions, the reveal-set operator, and bounds.

The committer sends the single codebook state indexed by the whole bit
string (big-endian).  A dishonest committer who wants to keep ``r`` strings
open faces the operator ``Q`` summing the projectors onto those code states;
the top eigenvalue of ``Q`` caps the total reveal probability at
``1 + (r - 1) * epsilon`` whenever pairwise overlaps stay below ``epsilon``
and ``(r - 1) * epsilon < 1``.  :func:`verify_unveil2` returns the
projection probability of the claimed state and, given a generator, a
verdict drawn from it.

Spectra are taken from the code's own small objects.  ``Q`` shares its
nonzero spectrum with the ``r x r`` Gram matrix of the cheat set, whose
entries ``1 - 2 d_ij / m`` follow from codeword distances, so the reveal-set
top eigenvalue is an ``r x r`` solve.  The uniform code ensemble has density
entries ``[column j of G == column l of G] / m``, so its entropy follows in
closed form from the multiplicities of the generator's columns.  The dense
``Q`` remains for the top-eigenvector cheat strategy of ``qbsc cheat``: a
real float64 ``dim x dim`` matrix from one batch of codewords, since the
states' amplitudes are real.  The explicit mixture remains only as the
tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, _amplitudes, _column_values, capacity
from .errors import InputError, NumericalError
from .linalg import DensityMatrix, HermitianOp, Ket
from .protocol1 import _BOUND_TOL, projection_probability


@dataclass(frozen=True)
class Commitment2:
    """One codebook state (or an adversarial density matrix) in dim n."""

    state: object
    codebook: Codebook

    def __post_init__(self):
        if not isinstance(self.state, (Ket, DensityMatrix)):
            raise InputError("state must be a Ket or DensityMatrix")
        if self.state.dim != self.codebook.dim:
            raise InputError(
                f"state dimension {self.state.dim} differs from codebook "
                f"dimension {self.codebook.dim}"
            )


@dataclass(frozen=True)
class CheatSet:
    """Distinct codebook indices a dishonest committer keeps open."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise InputError("cheat set cannot be empty")
        if len(set(idx)) != len(idx):
            raise InputError(f"cheat set has duplicated indices: {idx}")
        object.__setattr__(self, "indices", idx)

    @property
    def r(self) -> int:
        return len(self.indices)


def cheat_set_for(cb: Codebook, indices) -> CheatSet:
    """Validated cheat set for a codebook, including the overlap assumption
    (r - 1) * epsilon < 1."""
    s = CheatSet(tuple(indices))
    for i in s.indices:
        if not 0 <= i < cb.size:
            raise InputError(f"index {i} outside codebook of size {cb.size}")
    if (s.r - 1) * cb.epsilon_certified >= 1.0:
        raise InputError(
            f"(r-1)*epsilon = {(s.r - 1) * cb.epsilon_certified!r} >= 1 for "
            f"r={s.r}, epsilon={cb.epsilon_certified!r}"
        )
    return s


def string_index(bits: str, n_bits: int) -> int:
    """Big-endian bit string to codebook index."""
    if len(bits) != n_bits or any(c not in "01" for c in bits):
        raise InputError(f"expected a {n_bits}-bit string over {{0,1}}, got {bits!r}")
    return int(bits, 2)


def index_string(index: int, n_bits: int) -> str:
    return format(index, f"0{n_bits}b")


def commit2(bits: str, cb: Codebook) -> Commitment2:
    """Honest commitment: the codebook state whose index is the string."""
    n_bits = capacity(cb)
    return Commitment2(state=cb.state(string_index(bits, n_bits)), codebook=cb)


def verify_unveil2(
    commitment: Commitment2,
    claimed: str,
    rng: np.random.Generator | None = None,
) -> tuple[float, bool | None]:
    """Measure the projector onto the claimed code state.

    Returns the outcome-1 probability and, when ``rng`` is given, the
    verdict drawn from it.
    """
    cb = commitment.codebook
    template = cb.state(string_index(claimed, capacity(cb)))
    p = projection_probability(template, commitment.state)
    return p, None if rng is None else bool(rng.random() < p)


def q_operator(cb: Codebook, s: CheatSet) -> HermitianOp:
    """Sum of the projectors onto the cheat set's code states, as a real
    float64 ``dim x dim`` matrix built from one batch of codewords."""
    rows = _amplitudes(cb.code.codewords(s.indices))
    mat = rows.T @ rows
    mat.setflags(write=False)  # fresh, so the operator keeps it uncopied
    return HermitianOp(mat)


def cheat_set_gram(cb: Codebook, s: CheatSet) -> np.ndarray:
    """Real ``r x r`` Gram matrix ``1 - 2 d_ij / m`` of the cheat set's states.

    ``d_ij`` is the Hamming distance between the codewords, the popcount of
    the XOR of their packed integers; the matrix has the nonzero spectrum of
    :func:`q_operator`.
    """
    words = cb.code._packed_words(s.indices)
    distances = np.array([[(a ^ b).bit_count() for b in words] for a in words])
    return 1.0 - 2.0 * distances / cb.code.m


def binding_bound2(r: int, epsilon: float) -> float:
    """Total reveal-probability cap 1 + (r - 1) * epsilon."""
    if r < 1:
        raise InputError("r must be positive")
    if epsilon < 0.0:
        raise InputError("epsilon must be nonnegative")
    if (r - 1) * epsilon >= 1.0:
        raise InputError(
            f"(r-1)*epsilon = {(r - 1) * epsilon!r} >= 1; the cap is only "
            "claimed below 1"
        )
    return 1.0 + (r - 1) * epsilon


def equality_feasible(r: int, epsilon: float) -> bool:
    """Whether :func:`equality_configuration` exists with the cap claimed:
    an overlap of unit states lies in [0, 1], and (r - 1) * epsilon < 1."""
    return 0.0 <= epsilon <= 1.0 and (r - 1) * epsilon < 1.0


def equality_configuration(r: int, epsilon: float) -> tuple[Ket, ...]:
    """r unit vectors in dim r with every pairwise overlap exactly epsilon.

    Rows of the Cholesky factor of the Gram matrix (1-eps)I + eps J.  Their
    reveal-set operator attains the cap 1 + (r - 1) * epsilon exactly.
    """
    if r < 1:
        raise InputError("r must be positive")
    if not equality_feasible(r, epsilon):
        raise InputError(
            f"epsilon {epsilon!r} infeasible for r={r}: need 0 <= eps <= 1 and "
            "(r-1)*eps < 1"
        )
    gram = (1.0 - epsilon) * np.eye(r) + epsilon * np.ones((r, r))
    factor = np.linalg.cholesky(gram)
    kets = tuple(Ket(factor[i]) for i in range(r))
    q = factor @ factor.T
    lam = float(np.linalg.eigvalsh(q)[-1])
    expected = 1.0 + (r - 1) * epsilon
    if abs(lam - expected) > _BOUND_TOL:
        raise NumericalError(
            f"equality configuration misses the cap: {lam!r} vs {expected!r}"
        )
    return kets


def code_ensemble_entropy(cb: Codebook) -> float:
    """Spectral entropy in bits of the uniform mixture over all code states.

    The mixture is block diagonal over classes of equal generator columns,
    and a class of ``t`` columns contributes the single eigenvalue ``t / m``.
    The classes are counted in the order of their columns read as k-bit
    integers.
    """
    counts = np.bincount(_column_values(cb.code.generator))
    counts = counts[counts > 0]
    return float(np.dot(counts / cb.dim, np.log2(cb.dim / counts)))


def hiding_bound2(cb: Codebook) -> float:
    """Receiver information cap in bits: log2 of the carrier dimension,
    checked against the spectral entropy of the uniform code ensemble."""
    bound = math.log2(cb.dim)
    exact = code_ensemble_entropy(cb)
    if exact > bound + _BOUND_TOL:
        raise NumericalError(
            f"ensemble entropy {exact!r} exceeds log2(dim) = {bound!r}"
        )
    return bound
