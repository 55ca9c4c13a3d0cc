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
whatever the length.  The certificate reads only the smallest and the
largest weight: ``|1 - 2 w / m|`` falls on ``w <= m/2`` and rises on
``w >= m/2``, float rounding included, so the two extremes give the maximum
to the bit.  It is cached on the immutable code, so each code is enumerated
once however many times it is certified.  Every codebook the package builds
(generated, fingerprinted or loaded) is cross-checked once, as it is built,
against directly computed inner products of 100 seeded pairs; verifying a
loaded codebook reads the cached certificate.  The pairs are drawn in one
call, each side's codewords come from one batched call, and each amplitude
is written as the sign bit of ``1/sqrt(m)``.  A batch of codewords comes
from the generator rows held as ``m``-bit integers: each message XORs the
rows it selects, and one ``unpackbits`` turns the batch into a bit matrix
(the reveal-set Gram matrix reads the packed integers themselves, its
distances being popcounts of their XOR).
The same packed rows give the rank over GF(2) as the size of an XOR basis.
Stored generator rows are hex strings of exactly ``ceil(m/4)`` lowercase
digits, written and read through ``packbits``/``unpackbits``, and a stored
length above ``MAX_GENERATE_M`` is refused before any array is built.  The
dense per-message product ``bits @ G mod 2`` remains only as the tests'
oracle.

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
from .transcript import REAL, field

PRNG_ID = "philox4x64:numpy-seedsequence"
MAX_EXHAUSTIVE_K = 16  # largest k whose 2^k codewords are enumerated
MAX_GENERATE_M = 4096
DEFAULT_ATTEMPT_CAP = 500
OVERLAP_IDENTITY_TOL = 1e-12
_CROSSCHECK_PAIRS = 100
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


def _column_values(gen: np.ndarray) -> np.ndarray:
    """Columns of a ``(k, m)`` bit matrix as k-bit integers, row 0 most
    significant (all zeros when ``k = 0``)."""
    return np.dot(1 << np.arange(gen.shape[0] - 1, -1, -1), gen)


def _value_rows(values, m: int) -> np.ndarray:
    """``(len(values), m)`` uint8 bit rows of ``m``-bit integers, inverse of
    :func:`_row_ints`."""
    width = (m + 7) // 8
    raw = b"".join([value.to_bytes(width, "big") for value in values])
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    return bits.reshape(len(values), 8 * width)[:, 8 * width - m :]


def _row_to_hex(row: np.ndarray) -> str:
    return format(_row_ints(row[None])[0], f"0{max(1, (row.size + 3) // 4)}x")


def _hex_to_row(text: str, m: int) -> np.ndarray:
    """Bits of a stored row: exactly ``ceil(m/4)`` lowercase hex digits with
    a value below ``2^m``."""
    digits = (m + 3) // 4
    canonical = isinstance(text, str) and len(text) == digits
    if not (canonical and _HEX_DIGITS.issuperset(text)):
        raise InputError(f"generator row {text!r} is not {digits} lowercase hex digits")
    value = int(text, 16)
    if value >> m:
        raise InputError(f"generator row {text!r} exceeds {m} bits")
    return _value_rows([value], m)[0]


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
        # rows as m-bit integers, last row first, so that bit i of a message
        # (least significant first) selects entry i
        object.__setattr__(self, "_row_values", tuple(_row_ints(gen[::-1])))

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
        return _value_rows(self._packed_words(messages), self.m)

    def _packed_words(self, messages) -> list[int]:
        """Codewords of big-endian message indices as ``m``-bit integers.

        Each is the XOR of the packed generator rows its message selects.
        """
        size = 2**self.k
        words = []
        for message in messages:
            x = operator.index(message)
            if not 0 <= x < size:
                raise InputError(f"message {message} out of range for k={self.k}")
            word = 0
            for row in self._row_values:
                if x & 1:
                    word ^= row
                x >>= 1
            words.append(word)
        return words

    def codeword(self, message: int) -> np.ndarray:
        return self.codewords((message,))[0]

    def nonzero_codeword_weights(self) -> np.ndarray:
        """Hamming weights of all 2^k - 1 nonzero codewords in message order.

        Codeword ``x G`` has weight ``(m - W[x]) / 2``, where ``W`` is the
        Walsh-Hadamard transform of the histogram of the generator columns
        read as k-bit integers (row 0 most significant).  The transform is k
        integer butterfly passes; each acts on the leading index bit and
        moves it to the end, so after k passes the order is restored.
        """
        k = self.k
        spectrum = np.bincount(_column_values(self.generator), minlength=2**k)
        for _ in range(k):
            top, bottom = spectrum.reshape(2, -1)
            spectrum = np.empty((top.size, 2), dtype=np.int64)
            np.add(top, bottom, out=spectrum[:, 0])
            np.subtract(top, bottom, out=spectrum[:, 1])
        return (self.m - spectrum.ravel()[1:]) // 2

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
    """

    code: BinaryCode
    epsilon_certified: float
    seed: int
    attempts: int

    def __post_init__(self):
        self.code._epsilon  # the certificate refuses k beyond the limit
        if self.attempts < 1:
            raise InputError("attempts must be at least 1")

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
            "generator": [_row_to_hex(row) for row in self.code.generator],
            "epsilon_certified": self.epsilon_certified,
            "attempts": self.attempts,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Codebook":
        """Parse and revalidate a stored codebook.

        Every field is read strictly (see :func:`qbsc.transcript.field`):
        ``version``, ``dim``, ``k``, ``m``, ``seed`` and ``attempts`` must be
        JSON integers, ``epsilon_certified`` a number and ``prng_id`` the one
        scheme this package draws with; ``m`` above ``MAX_GENERATE_M`` is
        refused before any array is built.  States are re-derived from the
        generator; the maximum overlap is recomputed from the codeword
        weights and must match the stored certificate exactly
        (:class:`CertificationError`), and then the seeded pairs are
        cross-checked (:class:`NumericalError`).
        """
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise InputError(f"malformed codebook document: {exc}") from exc
        if not isinstance(payload, dict):
            raise InputError("malformed codebook document: expected an object")

        def read(key, kind):
            return field(payload, key, kind, "codebook")

        version = read("version", int)
        if version != 1:
            raise InputError(f"unknown codebook version {version}")
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
        if seed < 0 or attempts < 1:
            raise InputError(
                f"codebook needs seed >= 0 and attempts >= 1, got {seed}, {attempts}"
            )
        gen = np.array([_hex_to_row(row, m) for row in rows], dtype=np.uint8)
        code = BinaryCode(gen.reshape(k, m))
        epsilon = float(read("epsilon_certified", REAL))
        cb = cls(code=code, epsilon_certified=epsilon, seed=seed, attempts=attempts)
        recomputed = code._epsilon
        if recomputed != cb.epsilon_certified:
            raise CertificationError(
                f"stored certificate {cb.epsilon_certified!r} does not match "
                f"recomputed overlap {recomputed!r}",
                best_epsilon=recomputed,
            )
        _crosscheck_pairs(cb)
        return cb

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


def fingerprint_states(code: BinaryCode, seed: int) -> Codebook:
    """Codebook of sign-pattern states for a code, certified at construction;
    ``seed`` is recorded as the root of a one-attempt run."""
    cb = Codebook(code=code, epsilon_certified=code._epsilon, seed=seed, attempts=1)
    _crosscheck_pairs(cb)
    return cb


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
    attempt, and both sides' codewords come from one batched call each.
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
    overlaps = np.einsum("pa,pa->p", _amplitudes(words_i), _amplitudes(words_j))
    distances = np.count_nonzero(words_i != words_j, axis=1)
    checks = zip(firsts, seconds, overlaps.tolist(), distances.tolist())
    for i, j, direct, d in checks:
        predicted = 1.0 - 2.0 * d / cb.code.m
        if abs(direct - predicted) > OVERLAP_IDENTITY_TOL:
            raise NumericalError(
                f"overlap identity violated for pair ({i}, {j}): "
                f"direct {direct!r} vs predicted {predicted!r}"
            )
        if abs(direct) > epsilon + OVERLAP_IDENTITY_TOL:
            raise NumericalError(
                f"pair ({i}, {j}) overlap {direct!r} exceeds certified "
                f"{epsilon!r}"
            )


def generate_certified_codebook(
    n: int,
    epsilon_target: float,
    k: int,
    seed: int,
) -> Codebook:
    """Rejection-sample seeded codes until certification meets the target.

    Raises :class:`CertificationError` carrying the best overlap found when
    ``DEFAULT_ATTEMPT_CAP`` attempts are exhausted, which signals that ``k``
    is too large for the requested ``(n, epsilon_target)``.
    """
    if not 0.0 <= epsilon_target <= 1.0:
        raise InputError(f"epsilon_target {epsilon_target!r} outside [0, 1]")
    best = math.inf
    for attempt in range(DEFAULT_ATTEMPT_CAP):
        code = generate_code(k, n, derive_seed(seed, attempt))
        epsilon = code._epsilon
        if epsilon <= epsilon_target:
            cb = Codebook(
                code=code,
                epsilon_certified=epsilon,
                seed=int(seed),
                attempts=attempt + 1,
            )
            _crosscheck_pairs(cb)
            return cb
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
