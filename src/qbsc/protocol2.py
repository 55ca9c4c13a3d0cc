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
top eigenvalue is an ``r x r`` solve; the Gram matrices of many cheat sets
of one size come as one stack, for one stacked solve.  The uniform code
ensemble has density entries ``[column j of G == column l of G] / m``, so
its entropy, like the receiver's exact chance of guessing the whole
string, follows in closed form from the multiplicities of the generator's
columns: the code's cached ``column_classes``, their one source.  The
dense ``Q`` serves the top-eigenvector cheat strategy of ``qbsc cheat``: a
real float64 ``dim x dim`` matrix from one batch of codewords, since the
states' amplitudes are real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, _amplitudes, capacity
from .errors import InputError, NumericalError
from .linalg import DensityMatrix, HermitianOp, Ket
from .protocol1 import _BOUND_TOL, projection_probability

# XORed bytes held at once by cheat_set_grams, and the bytes of one chunk
# of a cheat-set row's draws: their index arrays, codewords and Grams
_GRAM_BLOCK_BYTES = 1 << 20


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
    (r - 1) * epsilon < 1 that :func:`binding_bound2` checks."""
    s = CheatSet(tuple(indices))
    for i in s.indices:
        if not 0 <= i < cb.size:
            raise InputError(f"index {i} outside codebook of size {cb.size}")
    binding_bound2(s.r, cb.epsilon_certified)
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


def cheat_set_grams(cb: Codebook, cheat_sets) -> dict[int, np.ndarray]:
    """Real Gram matrices ``1 - 2 d_ij / m`` of cheat sets, stacked by size.

    ``cheat_sets`` is a sequence of index sequences (the rows of an ``(S,
    r)`` array, say), each non-empty and of distinct indices; the code's
    codewords refuse an index out of range.  Returns, for each size ``r``
    in order of first appearance, the ``(S_r, r, r)`` stack of that size's
    matrices in the order of their sets.  All the codewords come from one
    packed lookup, and ``d_ij`` is the popcount of the XOR of two of them,
    read in the widest words their packed length divides.  Each size's XOR
    is taken for blocks of whole sets, or of one set's rows against all its
    codewords, at most ``_GRAM_BLOCK_BYTES`` at once (one row at least).
    Each matrix has the nonzero spectrum of :func:`q_operator`.
    """
    by_size: dict[int, list] = {}
    for indices in cheat_sets:
        indices = np.asarray(indices)
        if indices.ndim != 1 or indices.size < 1 or indices.dtype.kind not in "iu":
            raise InputError(f"cheat set {indices.tolist()!r} is not a non-empty index sequence")
        by_size.setdefault(indices.size, []).append(indices)
    stacks = {r: np.array(sets) for r, sets in by_size.items()}
    for stack in stacks.values():
        ordered = np.sort(stack, axis=1)
        repeats = ordered[:, 1:] == ordered[:, :-1]
        if repeats.any():
            bad = stack[repeats.any(axis=1).argmax()].tolist()
            raise InputError(f"cheat set has duplicated indices: {bad}")
    flat = [np.empty(0, dtype=np.int64), *(stack.ravel() for stack in stacks.values())]
    packed = cb.code._packed_words(np.concatenate(flat, dtype=np.int64))
    width = packed.shape[1]
    itemsize = min(8, width & -width)
    words = packed.view(f"u{itemsize}")
    grams, offset = {}, 0
    for r, stack in stacks.items():
        sets = len(stack)
        size_words = words[offset : offset + sets * r].reshape(sets, r, -1)
        offset += sets * r
        rows = min(r, max(1, _GRAM_BLOCK_BYTES // (r * width)))
        step = max(1, _GRAM_BLOCK_BYTES // (rows * r * width))
        grams[r] = np.empty((sets, r, r))
        for first in range(0, sets, step):
            block = size_words[first : first + step]
            for top in range(0, r, rows):
                xor = block[:, top : top + rows, None] ^ block[:, None]
                distances = np.bitwise_count(xor).sum(axis=3)
                gram = 1.0 - 2.0 * distances / cb.code.m
                grams[r][first : first + step, top : top + rows] = gram
    return grams


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
    reveal-set operator attains the cap 1 + (r - 1) * epsilon exactly, as
    the sweep's equality row, which reports it, and the tests check.
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
    return tuple(Ket(factor[i]) for i in range(r))


def code_ensemble_entropy(cb: Codebook) -> float:
    """Spectral entropy in bits of the uniform mixture over all code states.

    The mixture is block diagonal over classes of equal generator columns,
    and a class of ``t`` columns contributes the single eigenvalue ``t / m``.
    The counts are the code's cached ``column_classes``.
    """
    counts = cb.code.column_classes[1]
    return float(np.dot(counts / cb.dim, np.log2(cb.dim / counts)))


def guess_string_exact(cb: Codebook) -> float:
    """The receiver's best chance of guessing the whole committed string,
    ``(sum_a sqrt(t_a))^2 / (2^k m)`` over the counts ``t_a`` of the code's
    ``column_classes``: at most ``m / 2^k``, with equality exactly when no
    two columns are equal.

    The states are one orbit of ``Z_2^k`` acting by sign flips, so the
    square-root measurement is optimal (Eldar & Forney, IEEE TIT 47, 858,
    2001), and the characters of the group diagonalise the Gram matrix,
    with eigenvalue ``2^k t_a / m`` on class ``a``.
    """
    roots = np.sqrt(cb.code.column_classes[1]).sum()
    return float(roots * roots / (cb.size * cb.dim))


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
