"""Qubit-per-bit string commitment: sessions and security bounds.

Bit ``0`` is encoded as (1, 0) and bit ``1`` as (sin t, cos t) for a small
angle ``t``, so distinct encodings overlap at sin t.  The committer sends one
such qubit per bit; the verifier later measures the projector onto each
claimed encoding and accepts only if every outcome is 1.

Verification probabilities are evaluated on explicitly normalized projectors,
which makes honest sessions accept with probability exactly 1.0 in floating
point.  :func:`verify_unveil` computes them once and returns their product,
together with a verdict sampled from the same probabilities when it is given
a generator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .linalg import DensityMatrix, HermitianOp, Ket, _eigvalsh, binary_entropy

_BOUND_TOL = 1e-9  # slack of every binding-cap comparison in the package
BRUTE_FORCE_MAX_N = 12
IDENTIFY_ALL_MAX_R = sys.float_info.max_exp - 1  # largest r with 2.0**r finite
_HIDING_SCAN_MAX_N = 10**7  # smallest_hiding_n gives up beyond this n
_ROOT_HALF = math.sqrt(0.5)
# rows: |00>, (|01> + |10>)/sqrt 2, |11>, (|01> - |10>)/sqrt 2
_PAIR_BASIS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, _ROOT_HALF, _ROOT_HALF, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, _ROOT_HALF, -_ROOT_HALF, 0.0],
    ]
)


@dataclass(frozen=True)
class SecurityParams:
    """Protocol knobs: angle, string length, and withheld-bits target."""

    theta: float
    n: int
    r: int = 1

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi / 2:
            raise InputError(f"theta {self.theta!r} outside (0, pi/2)")
        if self.n < 1:
            raise InputError("n must be positive")
        if not 1 <= self.r <= self.n:
            raise InputError(f"r = {self.r} outside [1, n]")

    @property
    def epsilon(self) -> float:
        return math.sin(self.theta)


@dataclass(frozen=True)
class Commitment1:
    """One transmitted qubit per committed bit.

    Entries are pure states for honest senders and may be single-qubit
    density matrices for adversarial ones.
    """

    qubits: tuple
    params: SecurityParams

    def __post_init__(self):
        if len(self.qubits) != self.params.n:
            raise InputError(
                f"{len(self.qubits)} qubits for a length-{self.params.n} string"
            )
        for q in self.qubits:
            if not isinstance(q, (Ket, DensityMatrix)):
                raise InputError("qubits must be Ket or DensityMatrix values")
            if q.dim != 2:
                raise InputError("commitment qubits must be 2-dimensional")
        object.__setattr__(self, "qubits", tuple(self.qubits))


def encode_bit(bit: int, theta: float) -> Ket:
    """Encoding states: bit 0 -> (1, 0), bit 1 -> (sin t, cos t)."""
    if bit not in (0, 1):
        raise InputError(f"bit must be 0 or 1, got {bit!r}")
    if not 0.0 <= theta <= math.pi / 2:
        raise InputError(f"theta {theta!r} outside [0, pi/2]")
    if bit == 0:
        return Ket(np.array([1.0, 0.0]))
    return Ket(np.array([math.sin(theta), math.cos(theta)]))


def _encodings(theta: float) -> tuple[Ket, Ket]:
    """Both encodings, indexed by bit: a string needs only these two."""
    return encode_bit(0, theta), encode_bit(1, theta)


def _parse_bits(bits: str, n: int) -> list[int]:
    """The one reader of every bit string: ``n`` characters over {0,1}."""
    if len(bits) != n or any(c not in "01" for c in bits):
        raise InputError(f"expected a {n}-bit string over {{0,1}}, got {bits!r}")
    return [int(c) for c in bits]


def commit(bits: str, params: SecurityParams) -> Commitment1:
    """Honest commitment: the sequence of encoded qubits for the string."""
    values = _parse_bits(bits, params.n)
    encodings = _encodings(params.theta)
    return Commitment1(qubits=tuple(encodings[b] for b in values), params=params)


def projection_probability(template: Ket, state) -> float:
    """Outcome-1 probability of measuring the normalized projector onto
    ``template`` on ``state`` (a Ket or a DensityMatrix)."""
    if state.dim != template.dim:
        raise InputError("state and template dimensions differ")
    t = template.amps
    t_norm = float(np.vdot(t, t).real)
    if isinstance(state, DensityMatrix):
        value = float(np.vdot(t, state.mat @ t).real) / t_norm
    else:
        s = state.amps
        overlap = np.vdot(t, s)
        value = (overlap.real**2 + overlap.imag**2) / (
            t_norm * float(np.vdot(s, s).real)
        )
    return min(max(value, 0.0), 1.0)


def verify_unveil(
    commitment: Commitment1,
    claimed: str,
    rng: np.random.Generator | None = None,
) -> tuple[float, bool | None]:
    """Check a claimed string against a commitment.

    Returns the acceptance probability (the product of the per-qubit
    projection probabilities) and, when ``rng`` is given, a sampled verdict:
    each projective outcome is drawn in qubit order, stopping at the first
    0, and the claim is accepted only if every outcome is 1.
    """
    values = _parse_bits(claimed, commitment.params.n)
    encodings = _encodings(commitment.params.theta)
    probs = [
        projection_probability(encodings[b], q)
        for b, q in zip(values, commitment.qubits)
    ]
    verdict = None if rng is None else all(rng.random() < p for p in probs)
    return float(np.prod(probs)), verdict


def binding_bound1(theta: float) -> float:
    """Cap on the committer's two-way reveal probability for one bit, in the
    paper's form cos^2((pi - 2t)/4) + sin^2((pi + 2t)/4).

    This is the closed form 1 + sin t and the top eigenvalue of
    :func:`reveal_operator`; the bound sweep's rows compare all three.
    """
    if not 0.0 <= theta <= math.pi / 2:
        raise InputError(f"theta {theta!r} outside [0, pi/2]")
    return (
        math.cos((math.pi - 2.0 * theta) / 4.0) ** 2
        + math.sin((math.pi + 2.0 * theta) / 4.0) ** 2
    )


def reveal_operator(theta: float) -> HermitianOp:
    """Sum of the projectors onto both encodings of one bit, built as one
    operator from their outer products."""
    e0, e1 = (ket.amps for ket in _encodings(theta))
    return HermitianOp(np.outer(e0, e0.conj()) + np.outer(e1, e1.conj()))


def top_reveal_eigenvalue(theta: float) -> float:
    return float(_eigvalsh(reveal_operator(theta).mat)[-1])


def uniform_commitment_state(n: int, theta: float) -> DensityMatrix:
    """The 2^n-dimensional equal mixture of all committed product states.

    The uniform mixture over all bit strings is the n-fold Kronecker power
    of the real single-qubit mixture rho_1 = (|e0><e0| + |e1><e1|) / 2 of
    the two encodings.  It is built as a dense real 2^n x 2^n matrix in the
    pair basis: the qubits are grouped as adjacent pairs (2i, 2i + 1), each
    pair is rotated onto |00>, (|01> + |10>)/sqrt 2, |11>, (|01> - |10>)/sqrt 2,
    and a last unpaired qubit keeps the computational basis.  The rotation
    is orthogonal, so the spectrum is unchanged.  Both factors of a pair are
    the same, so each pair's swap commutes with the mixture, and in the
    pair basis the matrix is block diagonal over which pairs are in their
    antisymmetric state: with p = n // 2 pairs, s of them antisymmetric,
    a block has 3^(p - s) * 2^(n % 2) indices.  The spectrum is solved on
    those blocks.  The validation checks that the entries coupling them
    vanish rather than trusting the symmetry, so the dense spectrum stays an
    independent check on the closed-form entropy.
    """
    if not 1 <= n <= BRUTE_FORCE_MAX_N:
        raise InputError(f"n = {n} outside [1, {BRUTE_FORCE_MAX_N}]")
    mat, labels = _pair_basis_mixture(n, theta)
    return DensityMatrix(mat, labels=labels)


def _pair_basis_mixture(n: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The dense mixture in the pair basis and the label of each index: the
    bitmask of the pairs whose digit is 3, the antisymmetric state."""
    e0 = encode_bit(0, theta).amps.real
    e1 = encode_bit(1, theta).amps.real
    single = (np.outer(e0, e0) + np.outer(e1, e1)) / 2.0
    pair = _PAIR_BASIS @ np.kron(single, single) @ _PAIR_BASIS.T
    labels = np.zeros(1, dtype=np.intp)
    for _ in range(n // 2):
        labels = (2 * labels[:, None] + (np.arange(4) == 3)).ravel()
    mat = _kron_product([pair] * (n // 2) + [single] * (n % 2))
    mat.setflags(write=False)  # fresh, so the density matrix keeps it uncopied
    return mat, np.repeat(labels, 2 ** (n % 2))


def _kron_product(factors: list[np.ndarray]) -> np.ndarray:
    """The Kronecker product of real square factors as a dense array.

    Built from the right, each step writes ``np.kron(factor, product)``
    into a fresh array with one broadcast product: the same to the bit, and
    the result owns its data, where ``np.kron`` returns a view.
    """
    product = factors[-1]
    for factor in factors[-2::-1]:
        size, d = product.shape[0], factor.shape[0]
        grown = np.empty((d * size, d * size))
        np.multiply(
            factor[:, None, :, None],
            product[None, :, None, :],
            out=grown.reshape(d, size, d, size),
        )
        product = grown
    return product


def holevo_bound1(n: int, theta: float) -> float:
    """Receiver information cap in bits: n * h2((1 + sin t) / 2)."""
    if n < 1:
        raise InputError("n must be positive")
    return n * binary_entropy((1.0 + math.sin(theta)) / 2.0)


def holevo_power_form(n: int, theta: float) -> float:
    """The same per-bit entropy raised to the n-th power, kept for reports."""
    return holevo_bound1(1, theta) ** n


def hiding_gap(n: int, theta: float) -> float:
    """Bits guaranteed to stay inaccessible on average: n minus the cap."""
    return n - holevo_bound1(n, theta)


def smallest_hiding_n(theta: float, r: int) -> int:
    """Smallest n whose hiding gap strictly exceeds r."""
    if r < 1:
        raise InputError("r must be positive")
    per_bit = 1.0 - holevo_bound1(1, theta)
    if per_bit <= 0.0:
        raise InputError(f"no hiding gap accrues at theta={theta!r}")
    # warm start just below the scalar crossing; the scan stays authoritative
    n = max(1, math.ceil(r / per_bit) - 3)
    while n <= _HIDING_SCAN_MAX_N:
        if hiding_gap(n, theta) > r:
            return n
        n += 1
    raise NumericalError(
        f"no n <= {_HIDING_SCAN_MAX_N} reaches a hiding gap above {r}"
    )


def _list_form(n: int, per_bit: float, r: int) -> float:
    """2^r * per_bit^n, the shape of both all-bits caps, unclamped."""
    if n < 1 or not 0 <= r <= IDENTIFY_ALL_MAX_R:
        raise InputError(f"need n >= 1 and 0 <= r <= {IDENTIFY_ALL_MAX_R}")
    return 2.0**r * per_bit**n


def identify_all_bound_raw(n: int, theta: float, r: int) -> float:
    """Unclamped all-bits identification bound 2^r * h2((1+sin t)/2)^n."""
    return _list_form(n, holevo_bound1(1, theta), r)


def identify_all_bound(n: int, theta: float, r: int) -> float:
    """The all-bits bound clamped to [0, 1]; values >= 1 are vacuous."""
    return min(1.0, identify_all_bound_raw(n, theta, r))


def list_guess_bound(n: int, theta: float, r: int) -> float:
    """Sound cap on naming all n bits in a list of 2^r guesses:
    min(1, 2^r * ((1 + cos t) / 2)^n).

    A list of L strings holds the committed one with probability at most
    L times the best single guess (pick one name from the list at random),
    and min-entropy is additive over the independent qubits (Koenig, Renner
    & Schaffner 2009), so the best single guess is the per-qubit Helstrom
    value to the n-th power.  Unlike :func:`identify_all_bound` it never
    falls below the exact value ``guess_all_oracle(n, theta)``.
    """
    return min(1.0, _list_form(n, _helstrom_per_bit(theta), r))


def _helstrom_per_bit(theta: float) -> float:
    """Helstrom's (1976) optimal probability of telling the two encodings
    apart, (1 + cos t) / 2 on either bit value."""
    return (1.0 + math.cos(theta)) / 2.0
