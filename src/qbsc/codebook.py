"""Near-orthogonal state families built from seeded random binary codes.

Each message ``x`` maps through a full-rank generator matrix to a codeword
``c`` of length ``m``, and then to the sign-pattern state with amplitudes
``(-1)^{c_i} / sqrt(m)``.  Two such states overlap at ``1 - 2 d / m`` where
``d`` is the Hamming distance between the codewords, so the maximum pairwise
overlap of the whole family equals ``max |1 - 2 w / m|`` over the nonzero
codeword weights ``w``.  Certification is exhaustive over that weight
enumeration: codeword ``x G`` has weight ``(m - W[x]) / 2``, where ``W`` is
the Walsh-Hadamard transform of the histogram of the generator's columns
read as ``k``-bit integers, so all ``2^k`` weights cost ``O(m + k 2^k)``
whatever the length.  The cached column classes give the histogram, in the
transform's dtype, int16 (exact while ``m <= 32,767``, int64 above); the
butterflies alternate between two buffers over contiguous half-blocks, with
one transpose into message order so that every pass has long blocks, and
the weights are formed in that dtype and widened to int64 in one copy.
The certificate reads only the smallest and the largest weight: ``|1 - 2 w
/ m|`` falls on ``w <= m/2`` and rises on ``w >= m/2``, float rounding
included, so the two extremes give the maximum to the bit.
It is cached on the immutable code, so each code is enumerated once
however many times it is certified.  The :class:`Codebook` constructor
cross-checks the code against directly computed inner products of 100
seeded pairs, so every codebook (generated, fingerprinted or loaded) is
cross-checked once, as it is built; verifying a loaded codebook reads the
cached certificate.  The pairs are drawn in one
call, each side's codewords come from one batched call, each amplitude is
written as the sign bit of ``1/sqrt(m)``, and all pairs are judged by array
comparisons that name the first failing pair.  The amplitudes and their
overlaps are built for one block of pairs at a time, at most
``_PAIR_BLOCK_BYTES`` of amplitudes per side, so the check reuses the same
small buffers instead of touching fresh pages.  Codewords are looked up
rather than summed: once per code, when its first codeword is asked for,
one table per byte of a message is built, holding packed eight bits to a
byte the XOR of the generator rows each value of that byte selects.  A batch
of messages is read into one array, its codewords are one lookup per
message byte, and one ``unpackbits`` turns them into a bit matrix (the
reveal-set Gram matrix reads the packed bytes themselves, its
distances being popcounts of their XOR).  The rank over GF(2) is the size
of an XOR basis of the rows as integers.  Stored generator rows are hex
strings of exactly ``ceil(m/4)`` lowercase digits, each row formatted from
its integer and the whole matrix read in one ``unpackbits``, and a stored
length above ``MAX_GENERATE_M`` is refused before any array is built.

Randomness is drawn from Philox (a counter-based generator) keyed through
``numpy.random.SeedSequence``; :func:`make_rng` builds every generator of the
package, sessions and reports included.  Attempt ``i`` of a certification
run uses the root seed itself for ``i = 0`` and ``SeedSequence(root,
spawn_key=(i,))`` folded to a 64-bit integer for ``i > 0``.  Every codebook
records the scheme identifier, the root seed and the attempt count, so
certificates are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, GenerationError, InputError, NumericalError
from .linalg import Ket
from .transcript import REAL, field, read_document

PRNG_ID = "philox4x64:numpy-seedsequence"
MAX_EXHAUSTIVE_K = 16  # largest k whose 2^k codewords are enumerated
MAX_GENERATE_M = 4096
DEFAULT_ATTEMPT_CAP = 500
OVERLAP_IDENTITY_TOL = 1e-12
_CROSSCHECK_PAIRS = 100
# amplitude bytes per side held at once by the pair check: small enough
# that each block's buffers reuse heap memory rather than fresh pages
_PAIR_BLOCK_BYTES = 1 << 16
_HEX_DIGITS = frozenset("0123456789abcdef")
# spawn tags reserved on top of attempt indices
_TAG_CROSSCHECK = 0x636B  # "ck"


def make_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """Philox generator keyed by ``SeedSequence(seed, spawn_key=spawn_key)``.

    Every random stream of the package comes from here: a seed names a
    stream and a spawn tag names one of its independent children.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key))
    )


def derive_seed(root: int, attempt: int) -> int:
    """Seed for one attempt of a certification run (attempt 0 is the root)."""
    if attempt == 0:
        return int(root)
    ss = np.random.SeedSequence(root, spawn_key=(attempt,))
    return int(ss.generate_state(1, np.uint64)[0])


def _index(value) -> int:
    """An index: a Python or numpy integer, never a boolean, float or string."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"index {value!r} is not an integer")
    return operator.index(value)


def rank_gf2(mat: np.ndarray) -> int:
    """Rank of a 0/1 matrix over GF(2).

    Each row, packed into an integer, is reduced against an XOR basis whose
    members have distinct leading bits and are kept largest first; a row
    that does not reduce to zero joins the basis.
    """
    basis: list[int] = []
    for value in _row_ints(np.array(mat, dtype=np.uint8) % 2):
        for member in basis:
            value = min(value, value ^ member)
        if value:
            basis.append(value)
            basis.sort(reverse=True)
    return len(basis)


def _row_ints(mat: np.ndarray) -> list[int]:
    """Rows of a bit matrix as integers whose most significant bit is bit 0."""
    packed = np.packbits(mat, axis=1)
    shift = -mat.shape[1] % 8
    return [int.from_bytes(row.tobytes(), "big") >> shift for row in packed]


def _rows_to_hex(gen: np.ndarray) -> list[str]:
    """Rows of a ``(k, m)`` bit matrix as ``ceil(m/4)`` lowercase hex digits
    each, formatted from the rows as integers (:func:`_row_ints`)."""
    digits = (gen.shape[1] + 3) // 4
    return [format(value, f"0{digits}x") for value in _row_ints(gen)]


def _hex_to_rows(texts: list, m: int) -> np.ndarray:
    """``(len(texts), m)`` bits of stored rows, each exactly ``ceil(m/4)``
    lowercase hex digits with a value below ``2^m``; inverse of
    :func:`_rows_to_hex`, unpacked in one ``unpackbits``."""
    digits = (m + 3) // 4
    top = m - 4 * (digits - 1)  # bits the leading digit may use
    for text in texts:
        canonical = isinstance(text, str) and len(text) == digits
        if not (canonical and _HEX_DIGITS.issuperset(text)):
            raise InputError(
                f"generator row {text!r} is not {digits} lowercase hex digits"
            )
        if int(text[0], 16) >> top:
            raise InputError(f"generator row {text!r} exceeds {m} bits")
    width = (m + 7) // 8
    pad = "0" * (2 * width - digits)
    raw = bytes.fromhex("".join([pad + text for text in texts]))
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(texts), width)
    return np.unpackbits(packed, axis=1)[:, 8 * width - m :]


def _butterflies(src: np.ndarray, dst: np.ndarray, passes: int, block: int):
    """Walsh-Hadamard butterflies on ``passes`` index bits of ``src``, from
    the bit of weight ``block`` upwards, alternating between the two buffers.

    Each pass adds and subtracts contiguous half-blocks of ``block`` or more
    entries.  Returns the buffer holding the result and the spare one.
    """
    for _ in range(passes):
        halves, out = src.reshape(-1, 2, block), dst.reshape(-1, 2, block)
        np.add(halves[:, 0], halves[:, 1], out=out[:, 0])
        np.subtract(halves[:, 0], halves[:, 1], out=out[:, 1])
        src, dst, block = dst, src, 2 * block
    return src, dst


@dataclass(frozen=True)
class BinaryCode:
    """Binary linear code given by a full-rank generator matrix.

    ``k = 0`` (a ``(0, m)`` generator) is allowed and yields the
    single-codeword code of length ``m``; it backs the one-state codebook
    convention.
    """

    generator: np.ndarray

    def __post_init__(self):
        gen = np.asarray(self.generator, dtype=np.uint8)
        if gen.ndim != 2:
            raise InputError("generator must be a 2-D bit matrix")
        if gen.size and gen.max() > 1:
            raise InputError("generator entries must be 0 or 1")
        if gen.shape[1] < 1:
            raise InputError("generator needs at least one column")
        if rank_gf2(gen) != gen.shape[0]:
            raise InputError("generator does not have full row rank over GF(2)")
        gen = np.ascontiguousarray(gen)
        gen.setflags(write=False)
        object.__setattr__(self, "generator", gen)

    @property
    def k(self) -> int:
        return self.generator.shape[0]

    @property
    def m(self) -> int:
        return self.generator.shape[1]

    def codewords(self, messages) -> np.ndarray:
        """``(len(messages), m)`` uint8 codewords of big-endian message indices.

        The packed codewords of :meth:`_packed_words`, unpacked to bits at
        once.
        """
        return np.unpackbits(self._packed_words(messages), axis=1, count=self.m)

    def _packed_words(self, messages) -> np.ndarray:
        """``(len(messages), ceil(m/8))`` codewords of big-endian message
        indices, packed like the generator rows.

        Each is the XOR of the packed rows its message selects.  The
        messages are read at once (an integer array by its dtype, others
        each by :func:`_index`), kept in ``[0, 2^k)`` by the one range rule
        of codebook indices, as int64 (Python integers for ``k`` above 63),
        and each of their bytes looks up the batch's partial words in one
        table of :attr:`_byte_tables`.
        """
        k = self.k
        integral = isinstance(messages, np.ndarray) and messages.dtype.kind in "iu"
        values = messages.tolist() if integral and messages.ndim == 1 else list(map(_index, messages))
        if values and (min(values) < 0 or max(values) >> k):
            bad = next(x for x in values if x < 0 or x >> k)
            raise InputError(f"message {bad} out of range for k={k}")
        # int64 holds every message of fewer than 64 bits
        indices = np.array(values, dtype=np.int64 if k < 64 else object)
        first, *rest = self._byte_tables
        words = first[np.asarray(indices & 255, dtype=np.intp)]
        for table in rest:
            indices >>= 8
            words ^= table[np.asarray(indices & 255, dtype=np.intp)]
        return words

    @functools.cached_property
    def _byte_tables(self) -> list[np.ndarray]:
        """For each byte of a message, least significant first, the packed
        XOR of the rows each of its values selects: bit i of a message
        selects row ``k - 1 - i``, each row packed eight bits to a byte
        with zero bits after its last (a ``k = 0`` code has one table,
        holding the zero word).  Built by doubling, once per code; together
        about ``4 k m`` bytes, four times the unpacked generator."""
        packed = np.packbits(self.generator[::-1], axis=1)
        tables = []
        for low in range(0, max(self.k, 1), 8):
            rows = packed[low : low + 8]
            table = np.zeros((1 << len(rows), packed.shape[1]), dtype=np.uint8)
            for bit, row in enumerate(rows):
                np.bitwise_xor(table[: 1 << bit], row, out=table[1 << bit : 2 << bit])
            tables.append(table)
        return tables

    def codeword(self, message: int) -> np.ndarray:
        return self.codewords((message,))[0]

    @functools.cached_property
    def column_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct generator columns as k-bit integers (row 0 most
        significant), ascending, and their counts, from one ``np.unique``."""
        values = np.dot(1 << np.arange(self.k - 1, -1, -1), self.generator)
        values, counts = np.unique(values, return_counts=True)
        values.flags.writeable = counts.flags.writeable = False
        return values, counts

    def nonzero_codeword_weights(self) -> np.ndarray:
        """Hamming weights of all 2^k - 1 nonzero codewords in message order.

        Codeword ``x G`` has weight ``(m - W[x]) / 2``, where ``W`` is the
        Walsh-Hadamard transform of the histogram of the generator columns
        read as k-bit integers, the counts of :attr:`column_classes`.  Every
        partial sum of the transform is a signed sum of disjoint column
        counts, so its magnitude is at most ``m`` and int16 holds it exactly
        for ``m`` up to 32,767 (int64 above).  The counts are scattered into
        a histogram of that dtype laid out as a ``(2^lo, 2^hi)`` array, ``lo
        = k // 2`` low column bits first, which takes its ``lo`` row-bit
        passes, is transposed once into message order, and takes its ``hi``
        passes there, so every pass adds and subtracts blocks of at least
        ``2^lo`` contiguous entries.  As ``W = m (mod 2)``, the weight ``(m
        >> 1) - (W >> 1)`` is formed in place and widened to int64 at once.
        """
        k, m = self.k, self.m
        lo = k // 2
        rows, cols = 1 << (k - lo), 1 << lo
        dtype = np.int16 if m <= np.iinfo(np.int16).max else np.int64
        values, counts = self.column_classes
        src = np.zeros(rows * cols, dtype=dtype)
        # each class's low lo bits lead its index in the (2^lo, 2^hi) layout
        src[(values & (cols - 1)) << (k - lo) | values >> lo] = counts
        src, dst = _butterflies(src, np.empty_like(src), lo, rows)
        np.copyto(dst.reshape(rows, cols), src.reshape(cols, rows).T)
        spectrum, _ = _butterflies(dst, src, k - lo, cols)
        spectrum >>= 1
        np.subtract(m >> 1, spectrum, out=spectrum)
        return spectrum[1:].astype(np.int64)

    @functools.cached_property
    def _epsilon(self) -> float:
        """Maximum overlap ``|1 - 2 w / m|`` over the nonzero codeword weights.

        The expression falls on ``w <= m/2`` and rises on ``w >= m/2``, and
        so does its float rounding, so the smallest and the largest weight
        give the maximum over all of them, to the bit.  Enumerated once per
        code; ``k`` above ``MAX_EXHAUSTIVE_K`` is refused before any weight
        is enumerated.
        """
        if self.k > MAX_EXHAUSTIVE_K:
            raise InputError(
                f"k = {self.k} gives 2^{self.k} states, beyond the "
                f"2^{MAX_EXHAUSTIVE_K} that can be certified exhaustively"
            )
        weights = self.nonzero_codeword_weights()
        if weights.size == 0:
            return 0.0
        extremes = (int(weights.min()), int(weights.max()))
        return max(abs(1.0 - 2.0 * w / self.m) for w in extremes)


def generate_code(k: int, m: int, seed: int) -> BinaryCode:
    """Draw a seeded random full-rank generator; identical seeds reproduce it.

    Redraws from the same stream on rank deficiency, up to 1000 times.  The
    rank is the one ``BinaryCode`` checks, so each draw is ranked once.
    """
    if not 1 <= k <= MAX_EXHAUSTIVE_K:
        raise InputError(f"k = {k} outside [1, {MAX_EXHAUSTIVE_K}]")
    if not k <= m <= MAX_GENERATE_M:
        raise InputError(f"m = {m} outside [k, {MAX_GENERATE_M}]")
    rng = make_rng(seed)
    for _ in range(1000):
        gen = rng.integers(0, 2, size=(k, m), dtype=np.uint8)
        try:
            return BinaryCode(generator=gen)
        except InputError:  # the one check a k x m 0/1 draw can fail: rank
            continue
    raise GenerationError(
        f"no full-rank {k}x{m} generator after 1000 draws (seed {seed})"
    )


@dataclass(frozen=True)
class Codebook:
    """Certified family of sign-pattern states with recorded provenance.

    ``seed`` is the root seed of the certification run and ``attempts`` the
    number of attempts it consumed; the accepted code was drawn with
    ``derive_seed(seed, attempts - 1)``, which also keys the cross-check.
    Construction needs ``seed >= 0`` and ``attempts >= 1``, enumerates the
    code's certificate (which refuses ``k`` beyond the limit) and
    cross-checks its seeded pairs (:class:`NumericalError`); it does not
    compare ``epsilon_certified`` with the certificate.
    """

    code: BinaryCode
    epsilon_certified: float
    seed: int
    attempts: int

    def __post_init__(self):
        if self.seed < 0 or self.attempts < 1:
            raise InputError(
                f"codebook needs seed >= 0 and attempts >= 1, "
                f"got {self.seed}, {self.attempts}"
            )
        self.code._epsilon  # enumerated once; refuses k beyond the limit
        _crosscheck_pairs(self)

    @property
    def dim(self) -> int:
        return self.code.m

    @property
    def size(self) -> int:
        return 2**self.code.k

    def state(self, index: int) -> Ket:
        """State for one message index (amplitudes +-1/sqrt(m))."""
        return Ket(_amplitudes(self.code.codeword(index)))

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "dim": self.dim,
            "k": self.code.k,
            "m": self.code.m,
            "seed": self.seed,
            "prng_id": PRNG_ID,
            "generator": _rows_to_hex(self.code.generator),
            "epsilon_certified": self.epsilon_certified,
            "attempts": self.attempts,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Codebook":
        """Parse and revalidate a stored codebook.

        The text is read by :func:`qbsc.transcript.read_document` and every
        field strictly (see :func:`qbsc.transcript.field`): ``dim``, ``k``,
        ``m``, ``seed`` and ``attempts`` must be JSON integers, ``epsilon_certified`` a number and ``prng_id`` the one
        scheme this package draws with; ``m`` above ``MAX_GENERATE_M`` is
        refused before any array is built.  States are re-derived from the
        generator; the maximum overlap is recomputed from the codeword
        weights and must match the stored certificate exactly
        (:class:`CertificationError`) before the constructor cross-checks
        the seeded pairs.
        """
        payload = read_document(text, "codebook")

        def read(key, kind):
            return field(payload, key, kind, "codebook")

        prng_id = read("prng_id", str)
        if prng_id != PRNG_ID:
            raise InputError(f"unknown codebook prng_id {prng_id!r}")
        k, m, dim = read("k", int), read("m", int), read("dim", int)
        if dim != m:
            raise InputError(f"codebook.dim {dim} differs from codebook.m {m}")
        if not 1 <= m <= MAX_GENERATE_M:
            raise InputError(f"codebook.m {m} outside [1, {MAX_GENERATE_M}]")
        rows = read("generator", list)
        if len(rows) != k:
            raise InputError(
                f"codebook has {len(rows)} generator rows for k = {k}, m = {m}"
            )
        seed, attempts = read("seed", int), read("attempts", int)
        code = BinaryCode(_hex_to_rows(rows, m))
        epsilon = float(read("epsilon_certified", REAL))
        recomputed = code._epsilon
        if recomputed != epsilon:
            raise CertificationError(
                f"stored certificate {epsilon!r} does not match "
                f"recomputed overlap {recomputed!r}",
                best_epsilon=recomputed,
            )
        return cls(code=code, epsilon_certified=epsilon, seed=seed, attempts=attempts)

    def content_id(self) -> str:
        """SHA-256 of the JSON document, computed once per codebook."""
        return self._content_id

    @functools.cached_property
    def _content_id(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def _amplitudes(words: np.ndarray) -> np.ndarray:
    """Sign-pattern amplitudes ``(-1)^c / sqrt(m)`` of codeword bits ``c``
    (last axis): each bit is written as the sign bit of ``1/sqrt(m)``."""
    magnitude = np.float64(1.0 / math.sqrt(words.shape[-1])).view(np.uint64)
    amplitudes = words.astype(np.uint64)
    amplitudes <<= 63
    amplitudes |= magnitude
    return amplitudes.view(np.float64)


def _pair_overlaps(words_i: np.ndarray, words_j: np.ndarray) -> np.ndarray:
    """Inner products of the sign-pattern states of paired codeword rows,
    their amplitudes built for one block of at most ``_PAIR_BLOCK_BYTES``
    per side at a time; each row's sum is the one-batch ``einsum``'s."""
    pairs, m = words_i.shape
    step = max(1, _PAIR_BLOCK_BYTES // (8 * m))
    overlaps = np.empty(pairs)
    for start in range(0, pairs, step):
        block = slice(start, start + step)
        amps_i, amps_j = _amplitudes(words_i[block]), _amplitudes(words_j[block])
        np.einsum("pa,pa->p", amps_i, amps_j, out=overlaps[block])
    return overlaps


def fingerprint_states(code: BinaryCode, seed: int) -> Codebook:
    """Codebook of sign-pattern states for a code, certified and
    cross-checked by the constructor; ``seed`` is recorded as the root of a
    one-attempt run."""
    return Codebook(code=code, epsilon_certified=code._epsilon, seed=seed, attempts=1)


def verify_epsilon(cb: Codebook) -> float:
    """Exhaustively certified maximum pairwise overlap.

    The weight enumeration cached on the code (the pairwise overlap of a
    linear-code family is determined by nonzero codeword weights); the
    seeded pairs were cross-checked when the codebook was built or loaded.
    """
    return cb.code._epsilon


def _crosscheck_pairs(cb: Codebook) -> None:
    """Check seeded random pairs' direct inner products against the overlap
    identity and against the code's enumerated overlap.

    The pairs are drawn in one call, keyed by the seed of the accepted
    attempt, both sides' codewords come from one batched call each, and
    their overlaps are built a block of pairs at a time.  All pairs are
    judged at once; the error names the first failing pair, and a pair
    failing both checks fails the identity.
    """
    if cb.size < 2:
        return
    epsilon = cb.code._epsilon
    rng = make_rng(derive_seed(cb.seed, cb.attempts - 1), _TAG_CROSSCHECK)
    draws = rng.integers(0, np.tile([cb.size, cb.size - 1], _CROSSCHECK_PAIRS))
    firsts, seconds = draws[0::2], draws[1::2]
    seconds += seconds >= firsts
    firsts, seconds = firsts.tolist(), seconds.tolist()
    words_i = cb.code.codewords(firsts)
    words_j = cb.code.codewords(seconds)
    overlaps = _pair_overlaps(words_i, words_j)
    distances = np.count_nonzero(words_i != words_j, axis=1)
    predicted = 1.0 - 2.0 * distances / cb.code.m
    broken = np.abs(overlaps - predicted) > OVERLAP_IDENTITY_TOL
    failing = broken | (np.abs(overlaps) > epsilon + OVERLAP_IDENTITY_TOL)
    if not failing.any():
        return
    p = int(failing.argmax())
    i, j, direct = firsts[p], seconds[p], float(overlaps[p])
    if broken[p]:
        raise NumericalError(
            f"overlap identity violated for pair ({i}, {j}): "
            f"direct {direct!r} vs predicted {float(predicted[p])!r}"
        )
    raise NumericalError(
        f"pair ({i}, {j}) overlap {direct!r} exceeds certified {epsilon!r}"
    )


def generate_certified_codebook(
    n: int,
    epsilon_target: float,
    k: int,
    seed: int,
) -> Codebook:
    """Rejection-sample seeded codes until certification meets the target.

    The accepted code's pairs are cross-checked by the :class:`Codebook`
    constructor.  Raises :class:`CertificationError` carrying the best
    overlap found when ``DEFAULT_ATTEMPT_CAP`` attempts are exhausted, which
    signals that ``k`` is too large for the requested ``(n,
    epsilon_target)``.
    """
    if not 0.0 <= epsilon_target <= 1.0:
        raise InputError(f"epsilon_target {epsilon_target!r} outside [0, 1]")
    best = math.inf
    for attempt in range(DEFAULT_ATTEMPT_CAP):
        code = generate_code(k, n, derive_seed(seed, attempt))
        epsilon = code._epsilon
        if epsilon <= epsilon_target:
            return Codebook(
                code=code,
                epsilon_certified=epsilon,
                seed=int(seed),
                attempts=attempt + 1,
            )
        best = min(best, epsilon)
    raise CertificationError(
        f"no code with overlap <= {epsilon_target} in {DEFAULT_ATTEMPT_CAP} "
        f"attempts (n={n}, k={k}, seed={seed}); best overlap found: {best}",
        best_epsilon=best,
        attempts=DEFAULT_ATTEMPT_CAP,
    )


def capacity(cb: Codebook) -> int:
    """Number of bits one codebook state commits (log2 of the family size)."""
    return cb.code.k
