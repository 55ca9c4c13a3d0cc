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
top eigenvalue is an ``r x r`` solve.  :func:`cheat_set_grams` reads a
stream of cheat sets, alone decides what a batch holds, and gives each
batch's Gram matrices of one size as one stack, for one stacked solve.
Every cheat set, named (:class:`CheatSet`, :func:`cheat_set_for`) or
sampled (:func:`cheat_set_grams`), is read by one private reader,
``_cheat_sets``: a 1-D, non-empty sequence of distinct integers.  An
integer array is read as it is, any other sequence one index at a time by
the codebook's integer rule, so a float (even 3.0), a numeric string and a
boolean are refused; each kind of failure has one ``InputError``.  The
codeword lookup alone keeps every codebook index in ``[0, 2^k)``, and
protocol 1's ``_parse_bits`` alone reads a bit string.  The uniform code
ensemble has density entries ``[column j of G == column l of G] / m``, so
its entropy, like the receiver's exact chance of guessing the whole string,
follows in closed form from the multiplicities of the generator's columns:
the code's cached ``column_classes``, their one source.  The dense ``Q``
serves the top-eigenvector cheat strategy of ``qbsc cheat``: a real float64
``dim x dim`` matrix from one batch of codewords, since the states'
amplitudes are real.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Set
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, _amplitudes, _index, capacity
from .errors import InputError, NumericalError
from .linalg import DensityMatrix, HermitianOp, Ket
from .protocol1 import _BOUND_TOL, _parse_bits, projection_probability

# bytes of one batch of cheat_set_grams: its int64 indices, packed codewords,
# XOR words and float64 Grams, all the arrays it holds while the Grams are built
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
    """Distinct codebook indices a dishonest committer keeps open, read by
    :func:`_cheat_sets`; their range is left to a codebook's lookup."""

    indices: tuple[int, ...]

    def __post_init__(self):
        (stack,) = _cheat_sets([self.indices]).values()
        object.__setattr__(self, "indices", tuple(stack[0].tolist()))

    @property
    def r(self) -> int:
        return len(self.indices)


def cheat_set_for(cb: Codebook, indices) -> CheatSet:
    """Cheat set for a codebook, read once as a :class:`CheatSet`, its range
    checked by the codeword lookup, and the overlap assumption
    (r - 1) * epsilon < 1 that :func:`binding_bound2` checks."""
    s = CheatSet(indices)
    cb.code._packed_words(s.indices)
    binding_bound2(s.r, cb.epsilon_certified)
    return s


def _cheat_sets(sets) -> dict[int, np.ndarray]:
    """The one reader of cheat sets (see the module docstring): int64
    ``(S_r, r)`` stacks by size, in order of first appearance, each set
    checked for duplicates once per stack, and for no range: the codeword
    lookup owns it."""
    by_size: dict = {}
    for indices in sets:
        if not (isinstance(indices, np.ndarray) and indices.dtype.kind in "iu"
                and indices.dtype != np.uint64):  # int64 holds every other integer dtype
            try:
                indices = np.fromiter(map(_index, indices), np.int64)
            except (InputError, TypeError, OverflowError):
                indices = np.empty(0)
        if indices.ndim != 1 or indices.size < 1:
            raise InputError("cheat set must be a non-empty 1-D sequence of int64 integers")
        by_size.setdefault(indices.size, []).append(indices)
    for r, same in by_size.items():
        stack = by_size[r] = np.array(same, dtype=np.int64)
        ordered = np.sort(stack, axis=1)
        if (repeats := ordered[:, 1:] == ordered[:, :-1]).any():
            raise InputError(f"cheat set has duplicated indices: {stack[repeats.any(axis=1).argmax()].tolist()}")
    return by_size


def string_index(bits: str, n_bits: int) -> int:
    """Big-endian bit string to codebook index, read by :func:`_parse_bits`."""
    _parse_bits(bits, n_bits)
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


def cheat_set_grams(cb: Codebook, cheat_sets):
    """Real Gram matrices ``1 - 2 d_ij / m`` of cheat sets, in batches.

    ``cheat_sets`` is any iterable of index sequences (rows of an ``(S, r)``
    array, or a generator of draws), each batch of them read by
    :func:`_cheat_sets`, its range left to its lookup.  It is read once, in
    order, and this function alone decides what a batch holds: whole sets
    while their int64 indices, packed codewords, XOR words and float64
    Grams fit in ``_GRAM_BLOCK_BYTES``, one set at least.  Per batch it
    yields ``(r, stack)`` per size in order of first appearance, the ``(S_r,
    r, r)`` Grams of that size in set order.  A batch's codewords come from
    one packed lookup, once its sets are stacked and dropped; ``d_ij`` is
    the popcount of the XOR of two, in the widest words their packed length
    divides, counted in the XOR's own words and summed straight into the
    Grams, whose arithmetic is done in place.  A set whose XOR alone exceeds
    the budget is XORed in blocks of its rows, one at least, so it holds
    its other arrays and one block.  numpy's ufunc buffers and Python
    objects add about 130 KiB, however large the budget.  Each matrix has
    the nonzero spectrum of :func:`q_operator`.
    """
    width = (cb.code.m + 7) // 8
    batch, held = [], 0
    for indices in cheat_sets:
        if isinstance(indices, (Iterator, Set)):
            indices = tuple(indices)  # np.size would count a one-shot or a Python set as one
        r = np.size(indices)
        size = r * (8 + width) + r * r * (width + 8)
        if batch and held + size > _GRAM_BLOCK_BYTES:
            yield from _batch_grams(cb, batch)
            batch, held = [], 0
        batch.append(indices)
        held += size
    if batch:
        yield from _batch_grams(cb, batch)


def _batch_grams(cb: Codebook, batch: list):
    """``(r, stack)`` per size of one batch of :func:`cheat_set_grams`."""
    stacks = _cheat_sets(batch)  # the lookup below checks the range
    batch.clear()  # the stacks hold the indices now
    packed = cb.code._packed_words(np.concatenate([stack.ravel() for stack in stacks.values()]))
    width = packed.shape[1]
    words = packed.view(f"u{min(8, width & -width)}")
    offset = 0
    for r, stack in stacks.items():
        sets = len(stack)
        size_words = words[offset : offset + sets * r].reshape(sets, r, -1)
        offset += sets * r
        rows = min(r, max(1, _GRAM_BLOCK_BYTES // (sets * r * width)))
        grams = np.empty((sets, r, r))
        for top in range(0, r, rows):
            xor = size_words[:, top : top + rows, None] ^ size_words[:, None]
            np.bitwise_count(xor, out=xor)  # in place, then summed as integers
            np.add.reduce(xor, axis=3, dtype=np.uint64, out=grams[:, top : top + rows])
            del xor
        # 1 - 2 d / m, in the order and so to the bytes of that expression
        grams *= 2.0
        grams /= cb.code.m
        np.subtract(1.0, grams, out=grams)
        yield r, grams
        del grams


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
    with eigenvalue ``2^k t_a / m`` on class ``a``.  The square is summed as
    ``m`` plus the cross terms ``sqrt(t_a t_b)``, ``a != b``, so one class
    (``sqrt(m)`` squared would round off ``m``) and distinct columns give
    their values exactly; rounding elsewhere is capped at 1.
    """
    roots = np.sqrt(cb.code.column_classes[1])
    cross = (roots * (roots.sum() - roots)).sum()
    return min(1.0, float((cb.dim + cross) / (cb.size * cb.dim)))


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
