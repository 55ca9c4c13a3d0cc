"""Constructive cheating strategies, cheat sessions and exact guessing oracles.

These make the bound checks adversarially tight: the top eigenvector of a
reveal operator achieves its cap, and the exact per-bit discrimination value
gives the true all-bits guessing probability that the entropy-based report
columns are compared against.  A cheat session sends the strategy's state
through the same commit, unveil and verify pipeline as an honest session, so
its verdict is measured on the message it serialised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook
from .errors import InputError, NumericalError
from .linalg import (
    DensityMatrix,
    HermitianOp,
    Ket,
    _eigh,
    _fix_phases,
    eig_hermitian,
    projector,
)

# verify_unveil stays importable from here: perfbench's tracer test checks
# that a wrapped function is swapped in every module that holds it
from .protocol1 import SecurityParams, encode_bit, verify_unveil  # noqa: F401
from .transcript import Transcript

_BOUND_TOL = 1e-9
BRUTE_FORCE_GUESS_MAX_N = 4


@dataclass(frozen=True)
class CheatStrategy:
    """A fixed state the dishonest committer sends, as a value object.

    For the qubit protocol the state is sent on every qubit; for the
    codebook protocol it is the single transmitted state.  ``achieved``
    records the reveal value the strategy attains on its target operator.
    """

    kind: str
    state: object
    achieved: float | None = None

    def __post_init__(self):
        if self.kind not in ("top-eigenvector", "custom-state"):
            raise InputError(f"unknown strategy kind {self.kind!r}")
        if not isinstance(self.state, (Ket, DensityMatrix)):
            raise InputError("strategy state must be a Ket or DensityMatrix")


def optimal_cheat_state(op: HermitianOp) -> tuple[Ket, float]:
    """Top eigenvector and eigenvalue of a reveal operator.

    The same pair as the last of :func:`eig_hermitian`, phase-fixed the
    same way, without fixing and wrapping the eigenvectors it discards.
    """
    eigenvalues, eigenvectors = _eigh(op.mat)
    return Ket(_fix_phases(eigenvectors[:, -1:])[:, 0]), float(eigenvalues[-1])


def top_eigenvector_strategy(
    op: HermitianOp, bound: float | None = None
) -> CheatStrategy:
    state, achieved = optimal_cheat_state(op)
    if bound is not None and achieved > bound + _BOUND_TOL:
        raise NumericalError(
            f"achieved value {achieved!r} exceeds the analytic cap {bound!r}"
        )
    return CheatStrategy(kind="top-eigenvector", state=state, achieved=achieved)


def custom_state_strategy(state, achieved: float | None = None) -> CheatStrategy:
    return CheatStrategy(kind="custom-state", state=state, achieved=achieved)


def _helstrom_qubit_conditionals(theta: float) -> tuple[float, float]:
    """Per-bit success probabilities of the optimal measurement, by value."""
    psi0 = encode_bit(0, theta)
    psi1 = encode_bit(1, theta)
    gamma = HermitianOp(0.5 * (projector(psi0).mat - projector(psi1).mat))
    eigenvalues, eigenvectors = eig_hermitian(gamma)
    guess0 = np.zeros((2, 2), dtype=complex)
    for lam, vec in zip(eigenvalues, eigenvectors):
        if lam > 0.0:
            guess0 += projector(vec).mat
    guess1 = np.eye(2) - guess0
    c0 = float(np.vdot(psi0.amps, guess0 @ psi0.amps).real)
    c1 = float(np.vdot(psi1.amps, guess1 @ psi1.amps).real)
    return c0, c1


def brute_force_guess_all(n: int, theta: float) -> float:
    """All-bits success probability by exhaustive enumeration of strings.

    Builds the per-qubit optimal measurement explicitly and sums the joint
    success probability over all 2^n equiprobable strings.
    """
    if not 1 <= n <= BRUTE_FORCE_GUESS_MAX_N:
        raise InputError(f"n = {n} outside [1, {BRUTE_FORCE_GUESS_MAX_N}]")
    c0, c1 = _helstrom_qubit_conditionals(theta)
    total = 0.0
    for string in itertools.product((0, 1), repeat=n):
        joint = 1.0
        for bit in string:
            joint *= c0 if bit == 0 else c1
        total += joint
    return total / 2**n


def guess_all_oracle(n: int, theta: float) -> float:
    """Exact probability of identifying every committed bit.

    Equals ((1 + cos t) / 2)^n for the optimal per-qubit measurement; for
    n <= 4 the closed form is cross-checked against exhaustive enumeration.
    """
    if n < 1:
        raise InputError("n must be positive")
    value = ((1.0 + math.cos(theta)) / 2.0) ** n
    if n <= BRUTE_FORCE_GUESS_MAX_N:
        brute = brute_force_guess_all(n, theta)
        if abs(brute - value) > 1e-12:
            raise NumericalError(
                f"guess-all cross-check failed at n={n}, theta={theta!r}: "
                f"{brute!r} vs {value!r}"
            )
    return value


def run_cheat_session(
    protocol: int,
    strategy: CheatStrategy,
    reveal: str,
    seed: int,
    params: SecurityParams | None = None,
    codebook: Codebook | None = None,
) -> Transcript:
    """Commit with the strategy state, unveil the chosen string, verify.

    The strategy's message goes through the session pipeline of
    :mod:`qbsc.harness`: the transcript is unveiled and verified in sampled
    mode from what it serialised, so it records the exact acceptance
    probability and a verdict drawn from the session's verification stream.
    """
    from . import harness  # harness imports this module for its oracles

    if protocol == 1:
        if params is None:
            raise InputError("protocol 1 cheat sessions need SecurityParams")
        if strategy.state.dim != 2:
            raise InputError("protocol 1 strategies send one qubit per bit")
        sent = (strategy.state,) * params.n
    elif protocol == 2:
        if codebook is None:
            raise InputError("protocol 2 cheat sessions need a codebook")
        sent = strategy.state
    else:
        raise InputError(f"unknown protocol {protocol!r}")
    record = {
        "kind": strategy.kind,
        "achieved": strategy.achieved,
        "state_dim": strategy.state.dim,
    }
    transcript = harness.committed_transcript(
        protocol, seed, sent, params=params, codebook=codebook, strategy=record
    )
    return harness.verify_session(
        transcript.with_unveil(reveal), mode="sampled", codebook=codebook
    )
