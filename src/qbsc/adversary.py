"""Constructive cheating strategies, cheat sessions and exact guessing oracles.

These make the bound checks adversarially tight: the top eigenvector of a
reveal operator achieves its cap, and the closed-form per-bit discrimination
value gives the true all-bits guessing probability that the report's
all-bits caps are compared against.  A cheat session sends the strategy's
state through the same commit, unveil and verify pipeline as an honest
session, so its verdict is measured on the message it serialised.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import harness
from .codebook import Codebook
from .errors import InputError, NumericalError
from .linalg import DensityMatrix, HermitianOp, Ket, _eigh, _fix_phase

# verify_unveil stays importable from here: perfbench's tracer test checks
# that a wrapped function is swapped in every module that holds it
from .protocol1 import _BOUND_TOL, SecurityParams, _helstrom_per_bit, verify_unveil  # noqa: F401
from .transcript import Transcript


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


def top_eigenvector_strategy(
    op: HermitianOp, bound: float | None = None
) -> CheatStrategy:
    """Send the top eigenvector of a reveal operator, phase-fixed so that
    repeated runs are byte-for-byte reproducible; it achieves the top
    eigenvalue, which must not exceed ``bound`` when one is given."""
    eigenvalues, eigenvectors = _eigh(op.mat)
    # complex first: the pinned transcripts hold a complex pivot's conj / abs
    state = Ket(_fix_phase(eigenvectors[:, -1].astype(complex)))
    achieved = float(eigenvalues[-1])
    if bound is not None and achieved > bound + _BOUND_TOL:
        raise NumericalError(
            f"achieved value {achieved!r} exceeds the analytic cap {bound!r}"
        )
    return CheatStrategy(kind="top-eigenvector", state=state, achieved=achieved)


def guess_all_oracle(n: int, theta: float) -> float:
    """Exact probability of identifying every committed bit.

    Helstrom's (1976) optimal measurement of each qubit succeeds with
    probability (1 + cos t) / 2 on either bit value, a value protocol 1
    owns, so the whole string is learned with probability
    ((1 + cos t) / 2)^n; the tests check this against the explicit
    measurement summed over every string.
    """
    if n < 1:
        raise InputError("n must be positive")
    return _helstrom_per_bit(theta) ** n


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
    if protocol == 1:
        if params is None:
            raise InputError("protocol 1 cheat sessions need SecurityParams")
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
