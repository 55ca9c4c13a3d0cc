"""Reproducible experiment driver: sessions and bound-sweep reports.

Sessions move a transcript through commit, unveil and verify.  This module
owns the commit message format: :func:`committed_transcript` serialises what
a committer sends, honest or cheating, and :func:`verify_session` measures
the commitment rebuilt from that serialised message, so every verdict is
taken on what the transcript records.

Reports sweep a parameter grid and put the analytic cap next to an exact
oracle on every row.  One column pair is informational rather than gated:
the exact all-bits guessing probability can exceed the entropy-based
all-bits figure for long strings, so the sweep reports both and counts the
uncovered rows instead of failing on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import adversary, protocol1, protocol2
from .codebook import Codebook, make_rng, verify_epsilon
from .errors import InputError, PhaseOrderError
from .linalg import DensityMatrix, Ket, von_neumann_entropy
from .protocol1 import _BOUND_TOL, Commitment1, SecurityParams
from .protocol2 import Commitment2
from .transcript import (
    REAL,
    TAG_VERIFY,
    Transcript,
    amplitude_pairs,
    canonical_json,
    commitment_hash,
    derive_salt,
    field,
    format_float,
    ket_from_pairs,
    matrix_from_pairs,
    matrix_pairs,
)

SOUND_TOL = 1e-8


def committed_transcript(
    protocol: int,
    seed: int,
    sent,
    params: SecurityParams | None = None,
    codebook: Codebook | None = None,
    bits: str | None = None,
    strategy: dict | None = None,
) -> Transcript:
    """A transcript in phase ``committed`` for the message ``sent``.

    ``sent`` is what the committer transmits: the tuple of qubits for
    protocol 1 (with ``params``), and a codebook index or one state for
    protocol 2 (with ``codebook``).  Honest committers name their ``bits``,
    which are bound by a salted hash; cheat sessions commit to no string and
    carry their ``strategy`` record instead.
    """
    salt = digest = None
    if bits is not None:
        salt = derive_salt(seed)
        digest = commitment_hash(salt, bits)
    if protocol == 1:
        record = {"theta": params.theta, "n": params.n, "r": params.r}
    else:
        record = {
            "epsilon": codebook.epsilon_certified,
            "dim": codebook.dim,
            "capacity": protocol2.capacity(codebook),
            "codebook_id": codebook.content_id(),
        }
    return Transcript(
        protocol=protocol,
        phase="committed",
        params=record,
        seeds={"session": int(seed)},
        commit={
            "message": _encode_message(protocol, sent),
            "string_sha256": digest,
            "salt": salt,
        },
        strategy=strategy,
    )


def commit_session(
    protocol: int,
    bits: str,
    seed: int,
    theta: float | None = None,
    r: int = 1,
    codebook: Codebook | None = None,
) -> Transcript:
    """Honest commit phase; returns a transcript in phase ``committed``."""
    params = None
    if protocol == 1:
        if theta is None:
            raise InputError("protocol 1 commits need theta")
        params = SecurityParams(theta=theta, n=len(bits), r=r)
        sent = protocol1.commit(bits, params).qubits
    elif protocol == 2:
        if codebook is None:
            raise InputError("protocol 2 commits need a codebook")
        sent = protocol2.string_index(bits, protocol2.capacity(codebook))
    else:
        raise InputError(f"unknown protocol {protocol!r}")
    return committed_transcript(
        protocol, seed, sent, params=params, codebook=codebook, bits=bits
    )


def unveil_session(transcript: Transcript, claimed: str) -> Transcript:
    """Unveil phase.  The protocol fields are read as verification reads
    them, so a transcript that verification would refuse for its params is
    refused here."""
    _protocol_params(transcript)
    return transcript.with_unveil(claimed)


def _encode_message(protocol: int, sent) -> dict:
    """The serialised commit message, read back by
    :func:`_reconstruct_commitment`."""
    if protocol == 1:
        if all(isinstance(q, Ket) for q in sent):
            return {
                "kind": "qubit_amplitudes",
                "qubits": [amplitude_pairs(q) for q in sent],
            }
        return {
            "kind": "qubit_density_matrices",
            "qubits": [matrix_pairs(q) for q in sent],
        }
    if isinstance(sent, int):
        return {"kind": "codebook_index", "index": sent}
    if isinstance(sent, DensityMatrix):
        return {"kind": "state_density_matrix", "entries": matrix_pairs(sent)}
    return {"kind": "state_amplitudes", "amplitudes": amplitude_pairs(sent)}


def _protocol_params(transcript: Transcript):
    """The :class:`SecurityParams` of a protocol-1 transcript, or the
    ``codebook_id`` of a protocol-2 one.

    Every field is read strictly: integers must be JSON integers, ``theta`` a
    JSON number, and a missing or mistyped field raises :class:`InputError`.
    """
    if transcript.protocol == 1:
        return SecurityParams(
            theta=float(field(transcript.params, "theta", REAL, "params")),
            n=field(transcript.params, "n", int, "params"),
            r=field(transcript.params, "r", int, "params"),
        )
    return field(transcript.params, "codebook_id", str, "params")


def _reconstruct_commitment(
    transcript: Transcript, codebook: Codebook | None
):
    """The commitment a transcript's message describes, with every field
    read strictly (see :func:`_protocol_params`)."""
    message = transcript.commit.get("message")
    if not isinstance(message, dict):
        raise InputError("commit.message must be an object")
    kind = message.get("kind")
    if transcript.protocol == 1:
        params = _protocol_params(transcript)
        if kind == "qubit_amplitudes":
            parse = ket_from_pairs
        elif kind == "qubit_density_matrices":
            parse = matrix_from_pairs
        else:
            raise InputError(f"unknown protocol 1 message kind {kind!r}")
        qubits = field(message, "qubits", list, "commit.message")
        return Commitment1(qubits=tuple(parse(q) for q in qubits), params=params)
    if codebook is None:
        raise InputError("verifying a protocol 2 transcript needs the codebook")
    if codebook.content_id() != _protocol_params(transcript):
        raise InputError(
            "supplied codebook does not match the transcript's codebook_id"
        )
    if kind == "codebook_index":
        state = codebook.state(field(message, "index", int, "commit.message"))
    elif kind == "state_amplitudes":
        state = ket_from_pairs(field(message, "amplitudes", list, "commit.message"))
    elif kind == "state_density_matrix":
        state = matrix_from_pairs(field(message, "entries", list, "commit.message"))
    else:
        raise InputError(f"unknown protocol 2 message kind {kind!r}")
    return Commitment2(state=state, codebook=codebook)


def verify_session(
    transcript: Transcript,
    mode: str = "exact",
    codebook: Codebook | None = None,
) -> Transcript:
    """Verify phase; finalizes the transcript with verdict and probability.

    Sampled mode draws from the verification stream derived from the
    session seed recorded at commit time, so re-running reproduces the
    verdict bit for bit.
    """
    if mode not in ("exact", "sampled"):
        raise InputError(f"unknown mode {mode!r}")
    if transcript.phase != "unveiled":
        raise PhaseOrderError(
            f"verify requires phase 'unveiled', transcript is '{transcript.phase}'"
        )
    commitment = _reconstruct_commitment(transcript, codebook)
    rng = None
    if mode == "sampled":
        rng = make_rng(field(transcript.seeds, "session", int, "seeds"), TAG_VERIFY)
    if transcript.protocol == 1:
        verify = protocol1.verify_unveil
    else:
        verify = protocol2.verify_unveil2
    exact, verdict = verify(commitment, transcript.unveil["claimed"], rng)
    return transcript.with_verification(
        {"mode": mode, "accept_probability": float(exact), "verdict": verdict}
    )


CSV_COLUMNS = (
    "kind",
    "theta",
    "n",
    "r",
    "epsilon",
    "binding_rhs",
    "binding_identity",
    "binding_lambda_max",
    "binding_identity_gap",
    "binding_spectral_gap",
    "holevo_bits",
    "holevo_power_form",
    "holevo_brute_bits",
    "holevo_gap",
    "hiding_gap",
    "hiding_exceeds_r",
    "delta_raw",
    "delta_bound",
    "delta_vacuous",
    "guess_all_exact",
    "helstrom_per_bit",
    "delta_covers_exact",
    "lambda_max",
    "bound",
    "gap",
    "samples",
    "violations",
    "infeasible",
    "codebook_id",
    "pass",
)


@dataclass(frozen=True)
class BoundReport:
    """Grid of bound-versus-oracle rows with a violation summary."""

    rows: tuple
    summary: dict

    def to_json(self) -> str:
        return canonical_json({"version": 1, "rows": list(self.rows), "summary": self.summary}) + "\n"

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            cells = []
            for col in CSV_COLUMNS:
                value = row.get(col)
                if value is None:
                    cells.append("")
                elif isinstance(value, bool):
                    cells.append("true" if value else "false")
                elif isinstance(value, float):
                    cells.append(format_float(value))
                else:
                    cells.append(str(value))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _protocol1_row(
    theta: float, n: int, r: int, rhs: float, lam: float, brute: float | None
) -> dict:
    """One grid row; ``rhs`` and ``lam`` are solved per theta, ``brute`` per
    (theta, n), and ``brute`` is None above the brute-force limit."""
    identity = 1.0 + math.sin(theta)
    holevo = protocol1.holevo_bound1(n, theta)
    delta_raw = protocol1.identify_all_bound_raw(n, theta, r)
    delta = min(1.0, delta_raw)
    guess_all = adversary.guess_all_oracle(n, theta)
    gap = protocol1.hiding_gap(n, theta)
    row = {
        "kind": "protocol1",
        "theta": theta,
        "n": n,
        "r": r,
        "binding_rhs": rhs,
        "binding_identity": identity,
        "binding_lambda_max": lam,
        "binding_identity_gap": abs(rhs - identity),
        "binding_spectral_gap": abs(rhs - lam),
        "holevo_bits": holevo,
        "holevo_power_form": protocol1.holevo_power_form(n, theta),
        "holevo_brute_bits": brute,
        "holevo_gap": None if brute is None else abs(brute - holevo),
        "hiding_gap": gap,
        "hiding_exceeds_r": gap > r,
        "delta_raw": delta_raw,
        "delta_bound": delta,
        "delta_vacuous": delta_raw >= 1.0,
        "guess_all_exact": guess_all,
        "helstrom_per_bit": (1.0 + math.cos(theta)) / 2.0,
        "delta_covers_exact": guess_all <= delta + SOUND_TOL,
    }
    sound = max(
        row["binding_identity_gap"],
        row["binding_spectral_gap"],
        max(0.0, lam - rhs),
        0.0 if brute is None else row["holevo_gap"],
    )
    row["pass"] = sound <= SOUND_TOL
    row["_sound_violation"] = sound
    return row


def _equality_row(r: int, epsilon: float) -> dict:
    if not protocol2.equality_feasible(r, epsilon):
        return {
            "kind": "equality",
            "r": r,
            "epsilon": epsilon,
            "infeasible": True,
            "pass": True,
            "_sound_violation": 0.0,
        }
    kets = protocol2.equality_configuration(r, epsilon)
    rows = np.stack([k.amps for k in kets])
    lam = float(np.linalg.eigvalsh(rows.T @ rows.conj())[-1])
    bound = protocol2.binding_bound2(r, epsilon)
    gap = abs(lam - bound)
    return {
        "kind": "equality",
        "r": r,
        "epsilon": epsilon,
        "lambda_max": lam,
        "bound": bound,
        "gap": gap,
        "infeasible": False,
        "pass": gap <= _BOUND_TOL,
        "_sound_violation": gap,
    }


def _cheat_set_row(cb: Codebook, samples: int, seed: int) -> dict:
    eps = cb.epsilon_certified
    recertified = verify_epsilon(cb)
    r_max = cb.size
    if eps > 0.0:
        r_max = min(r_max, int(math.ceil(1.0 / eps)))  # (r-1)*eps < 1
    row = {
        "kind": "cheat_sets",
        "epsilon": eps,
        "codebook_id": cb.content_id(),
        "samples": samples,
        "violations": 0,
        "infeasible": False,
    }
    if r_max < 2 or cb.size < 2:
        row.update(
            {"infeasible": True, "pass": recertified == eps, "_sound_violation": 0.0}
        )
        return row
    rng = make_rng(seed)
    worst = -math.inf
    violations = 0
    for _ in range(samples):
        r = int(rng.integers(2, r_max + 1))
        indices = rng.choice(cb.size, size=r, replace=False)
        s = protocol2.cheat_set_for(cb, (int(i) for i in indices))
        lam = float(np.linalg.eigvalsh(protocol2.cheat_set_gram(cb, s))[-1])
        bound = protocol2.binding_bound2(r, eps)
        worst = max(worst, lam - bound)
        if lam > bound + _BOUND_TOL:
            violations += 1
    row.update(
        {
            "lambda_max": None,
            "gap": worst,
            "violations": violations,
            "pass": violations == 0 and recertified == eps,
            "_sound_violation": max(0.0, worst),
        }
    )
    return row


def bound_sweep(
    thetas,
    ns,
    rs,
    equality_configs=(),
    codebook: Codebook | None = None,
    cheat_samples: int = 200,
    seed: int = 0,
) -> BoundReport:
    """One row per grid point, each carrying the cap and its oracle.

    Grid order is deterministic: thetas outermost, then n, then r, then the
    equality configurations and the codebook row.  The binding cap and the
    reveal-set eigenvalue are solved once per theta, and the brute-force
    mixture entropy once per (theta, n), since neither depends on r.
    """
    thetas = list(thetas)
    ns = list(ns)
    rs = list(rs)
    equality_configs = list(equality_configs)
    if not thetas or not ns or not rs:
        raise InputError("sweep grids must be non-empty")
    r_max = protocol1.IDENTIFY_ALL_MAX_R
    if min(ns) < 1 or not 1 <= min(rs) <= max(rs) <= r_max:
        raise InputError(f"sweep needs every n >= 1 and every r in [1, {r_max}]")
    for _, epsilon in equality_configs:
        if not math.isfinite(epsilon):
            raise InputError(f"equality epsilon must be finite, got {epsilon!r}")
    if codebook is not None and cheat_samples < 1:
        raise InputError(f"cheat_samples must be >= 1, got {cheat_samples}")
    rows = []
    for theta in thetas:
        rhs = protocol1.binding_bound1(theta)
        lam = protocol1.top_reveal_eigenvalue(theta)
        for n in ns:
            brute = None
            if n <= protocol1.BRUTE_FORCE_MAX_N:
                brute = von_neumann_entropy(
                    protocol1.uniform_commitment_state(n, theta)
                )
            for r in rs:
                rows.append(_protocol1_row(theta, n, r, rhs, lam, brute))
    for r, epsilon in equality_configs:
        rows.append(_equality_row(r, epsilon))
    if codebook is not None:
        rows.append(_cheat_set_row(codebook, cheat_samples, seed))

    max_violation = max(row.pop("_sound_violation") for row in rows)
    uncovered = sum(
        1 for row in rows if row.get("delta_covers_exact") is False
    )
    summary = {
        "rows": len(rows),
        "max_sound_violation": max_violation,
        "sound_pass": max_violation <= SOUND_TOL,
        "delta_uncovered_rows": uncovered,
    }
    return BoundReport(rows=tuple(rows), summary=summary)
