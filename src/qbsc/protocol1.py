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
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .linalg import (
    DensityMatrix,
    HermitianOp,
    Ket,
    binary_entropy,
    projector,
    von_neumann_entropy,
)

_IDENTITY_TOL = 1e-12
_SPECTRAL_TOL = 1e-9
BRUTE_FORCE_MAX_N = 12


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


def _parse_bits(bits: str) -> list[int]:
    if not bits or any(c not in "01" for c in bits):
        raise InputError(f"bit string must be over {{0,1}}, got {bits!r}")
    return [int(c) for c in bits]


def commit(bits: str, params: SecurityParams) -> Commitment1:
    """Honest commitment: the sequence of encoded qubits for the string."""
    values = _parse_bits(bits)
    if len(values) != params.n:
        raise InputError(f"expected {params.n} bits, got {len(values)}")
    encodings = _encodings(params.theta)
    return Commitment1(qubits=tuple(encodings[b] for b in values), params=params)


def projection_probability(template: Ket, state) -> float:
    """Outcome-1 probability of measuring the normalized projector onto
    ``template`` on ``state`` (a Ket or a DensityMatrix)."""
    t = template.amps
    t_norm = float(np.vdot(t, t).real)
    if isinstance(state, DensityMatrix):
        if state.dim != template.dim:
            raise InputError("state and template dimensions differ")
        value = float(np.vdot(t, state.mat @ t).real) / t_norm
    else:
        if state.dim != template.dim:
            raise InputError("state and template dimensions differ")
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
    values = _parse_bits(claimed)
    if len(values) != commitment.params.n:
        raise InputError(
            f"claimed string has {len(values)} bits, expected {commitment.params.n}"
        )
    encodings = _encodings(commitment.params.theta)
    probs = [
        projection_probability(encodings[b], q)
        for b, q in zip(values, commitment.qubits)
    ]
    verdict = None if rng is None else all(rng.random() < p for p in probs)
    return float(np.prod(probs)), verdict


def binding_bound1(theta: float) -> float:
    """Cap on the committer's two-way reveal probability for one bit.

    Returns cos^2((pi - 2t)/4) + sin^2((pi + 2t)/4) and checks it against
    both its closed form 1 + sin t and the top eigenvalue of the sum of the
    two encoding projectors.
    """
    if not 0.0 <= theta <= math.pi / 2:
        raise InputError(f"theta {theta!r} outside [0, pi/2]")
    value = (
        math.cos((math.pi - 2.0 * theta) / 4.0) ** 2
        + math.sin((math.pi + 2.0 * theta) / 4.0) ** 2
    )
    closed = 1.0 + math.sin(theta)
    if abs(value - closed) > _IDENTITY_TOL:
        raise NumericalError(
            f"trig identity violated at theta={theta!r}: {value!r} vs {closed!r}"
        )
    lam = top_reveal_eigenvalue(theta)
    if abs(value - lam) > _SPECTRAL_TOL:
        raise NumericalError(
            f"spectral cross-check failed at theta={theta!r}: "
            f"{value!r} vs lambda_max {lam!r}"
        )
    return value


def reveal_operator(theta: float) -> HermitianOp:
    """Sum of the projectors onto both encodings of one bit."""
    p0 = projector(encode_bit(0, theta))
    p1 = projector(encode_bit(1, theta))
    return HermitianOp(p0.mat + p1.mat)


def top_reveal_eigenvalue(theta: float) -> float:
    return float(np.linalg.eigvalsh(reveal_operator(theta).mat)[-1])


def uniform_commitment_state(n: int, theta: float) -> DensityMatrix:
    """The 2^n-dimensional equal mixture of all committed product states.

    The uniform mixture over all bit strings is the n-fold Kronecker power
    of the real single-qubit mixture rho_1 = (|e0><e0| + |e1><e1|) / 2 of
    the two encodings, built here as a dense real 2^n x 2^n matrix.  Its
    spectrum is left to the dense eigensolve that validates it, so it stays
    an independent check on the closed-form entropy.
    """
    if not 1 <= n <= BRUTE_FORCE_MAX_N:
        raise InputError(f"n = {n} outside [1, {BRUTE_FORCE_MAX_N}]")
    e0 = encode_bit(0, theta).amps.real
    e1 = encode_bit(1, theta).amps.real
    single = (np.outer(e0, e0) + np.outer(e1, e1)) / 2.0
    mixture = single
    for _ in range(n - 1):
        mixture = np.kron(mixture, single)
    return DensityMatrix(mixture)


def holevo_bound1(n: int, theta: float, cross_check: bool = False) -> float:
    """Receiver information cap in bits: n * h2((1 + sin t) / 2).

    With ``cross_check`` (n <= 12) the value is verified against the
    spectral entropy of the explicitly constructed uniform mixture.
    """
    if n < 1:
        raise InputError("n must be positive")
    value = n * binary_entropy((1.0 + math.sin(theta)) / 2.0)
    if cross_check:
        brute = von_neumann_entropy(uniform_commitment_state(n, theta))
        if abs(brute - value) > 1e-8:
            raise NumericalError(
                f"entropy cross-check failed at n={n}, theta={theta!r}: "
                f"{brute!r} vs {value!r}"
            )
    return value


def holevo_power_form(n: int, theta: float) -> float:
    """The same per-bit entropy raised to the n-th power, kept for reports."""
    return binary_entropy((1.0 + math.sin(theta)) / 2.0) ** n


def hiding_gap(n: int, theta: float) -> float:
    """Bits guaranteed to stay inaccessible on average: n minus the cap."""
    return n - holevo_bound1(n, theta)


def smallest_hiding_n(theta: float, r: int, n_max: int = 10**7) -> int:
    """Smallest n whose hiding gap strictly exceeds r."""
    if r < 1:
        raise InputError("r must be positive")
    per_bit = 1.0 - binary_entropy((1.0 + math.sin(theta)) / 2.0)
    if per_bit <= 0.0:
        raise InputError(f"no hiding gap accrues at theta={theta!r}")
    # warm start just below the scalar crossing; the scan stays authoritative
    n = max(1, math.ceil(r / per_bit) - 3)
    while n <= n_max:
        if hiding_gap(n, theta) > r:
            return n
        n += 1
    raise NumericalError(f"no n <= {n_max} reaches a hiding gap above {r}")


def identify_all_bound_raw(n: int, theta: float, r: int) -> float:
    """Unclamped all-bits identification bound 2^r * h2((1+sin t)/2)^n."""
    if n < 1 or r < 0:
        raise InputError("need n >= 1 and r >= 0")
    h = binary_entropy((1.0 + math.sin(theta)) / 2.0)
    return 2.0**r * h**n


def identify_all_bound(n: int, theta: float, r: int) -> float:
    """The all-bits bound clamped to [0, 1]; values >= 1 are vacuous."""
    return min(1.0, identify_all_bound_raw(n, theta, r))
