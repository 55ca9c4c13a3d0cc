"""Reproducible experiment driver: sessions and bound-sweep reports.

Sessions move a transcript through commit, unveil and verify; reports sweep
a parameter grid and put the analytic cap next to an exact oracle on every
row.  One column pair is informational rather than gated: the exact
all-bits guessing probability can exceed the entropy-based all-bits figure
for long strings, so the sweep reports both and counts the uncovered rows
instead of failing on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import adversary, protocol1, protocol2
from .codebook import Codebook, verify_epsilon
from .errors import InputError, PhaseOrderError
from .linalg import von_neumann_entropy
from .protocol1 import Commitment1, SecurityParams
from .protocol2 import Commitment2
from .transcript import (
    Transcript,
    amplitude_pairs,
    canonical_json,
    commitment_hash,
    derive_salt,
    format_float,
    ket_from_pairs,
    matrix_from_pairs,
    verification_rng,
)

SOUND_TOL = 1e-8


def commit_session(
    protocol: int,
    bits: str,
    seed: int,
    theta: float | None = None,
    r: int = 1,
    codebook: Codebook | None = None,
) -> Transcript:
    """Honest commit phase; returns a transcript in phase ``committed``."""
    salt = derive_salt(seed)
    digest = commitment_hash(salt, bits)
    if protocol == 1:
        if theta is None:
            raise InputError("protocol 1 commits need theta")
        params = SecurityParams(theta=theta, n=len(bits), r=r)
        commitment = protocol1.commit(bits, params)
        message = {
            "kind": "qubit_amplitudes",
            "qubits": [amplitude_pairs(q) for q in commitment.qubits],
        }
        return Transcript(
            protocol=1,
            phase="committed",
            params={"theta": params.theta, "n": params.n, "r": params.r},
            seeds={"session": int(seed)},
            commit={"message": message, "string_sha256": digest, "salt": salt},
        )
    if protocol == 2:
        if codebook is None:
            raise InputError("protocol 2 commits need a codebook")
        index = protocol2.string_index(bits, protocol2.capacity(codebook))
        return Transcript(
            protocol=2,
            phase="committed",
            params={
                "epsilon": codebook.epsilon_certified,
                "dim": codebook.dim,
                "capacity": protocol2.capacity(codebook),
                "codebook_id": codebook.content_id(),
            },
            seeds={"session": int(seed)},
            commit={
                "message": {"kind": "codebook_index", "index": index},
                "string_sha256": digest,
                "salt": salt,
            },
        )
    raise InputError(f"unknown protocol {protocol!r}")


def unveil_session(transcript: Transcript, claimed: str) -> Transcript:
    return transcript.with_unveil(claimed)


def _reconstruct_commitment(
    transcript: Transcript, codebook: Codebook | None
):
    message = transcript.commit["message"]
    kind = message["kind"]
    if transcript.protocol == 1:
        params = SecurityParams(
            theta=float(transcript.params["theta"]),
            n=int(transcript.params["n"]),
            r=int(transcript.params["r"]),
        )
        if kind == "qubit_amplitudes":
            qubits = tuple(ket_from_pairs(q) for q in message["qubits"])
        elif kind == "qubit_density_matrices":
            qubits = tuple(matrix_from_pairs(q) for q in message["qubits"])
        else:
            raise InputError(f"unknown protocol 1 message kind {kind!r}")
        return Commitment1(qubits=qubits, params=params)
    if codebook is None:
        raise InputError("verifying a protocol 2 transcript needs the codebook")
    if codebook.content_id() != transcript.params["codebook_id"]:
        raise InputError(
            "supplied codebook does not match the transcript's codebook_id"
        )
    if kind == "codebook_index":
        state = codebook.state(int(message["index"]))
    elif kind == "state_amplitudes":
        state = ket_from_pairs(message["amplitudes"])
    elif kind == "state_density_matrix":
        state = matrix_from_pairs(message["entries"])
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
    claimed = transcript.unveil["claimed"]
    commitment = _reconstruct_commitment(transcript, codebook)
    if transcript.protocol == 1:
        exact = protocol1.verify_unveil(commitment, claimed, mode="exact")
        verdict = None
        if mode == "sampled":
            verdict = protocol1.verify_unveil(
                commitment,
                claimed,
                mode="sampled",
                rng=verification_rng(int(transcript.seeds["session"])),
            )
    else:
        exact = protocol2.verify_unveil2(commitment, claimed, mode="exact")
        verdict = None
        if mode == "sampled":
            verdict = protocol2.verify_unveil2(
                commitment,
                claimed,
                mode="sampled",
                rng=verification_rng(int(transcript.seeds["session"])),
            )
    return transcript.with_verification(
        {
            "mode": mode,
            "accept_probability": float(exact),
            "verdict": None if verdict is None else bool(verdict),
        }
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
    if epsilon < 0.0 or (r - 1) * epsilon >= 1.0:
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
        "pass": gap <= 1e-9,
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
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    worst = -math.inf
    violations = 0
    for _ in range(samples):
        r = int(rng.integers(2, r_max + 1))
        indices = rng.choice(cb.size, size=r, replace=False)
        s = protocol2.cheat_set_for(cb, (int(i) for i in indices))
        lam = float(np.linalg.eigvalsh(protocol2.cheat_set_gram(cb, s))[-1])
        bound = protocol2.binding_bound2(r, eps)
        worst = max(worst, lam - bound)
        if lam > bound + 1e-9:
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
    brute_force_max_n: int = protocol1.BRUTE_FORCE_MAX_N,
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
    if not thetas or not ns or not rs:
        raise InputError("sweep grids must be non-empty")
    if min(ns) < 1 or min(rs) < 1:
        raise InputError("sweep needs every n >= 1 and every r >= 1")
    if codebook is not None and cheat_samples < 1:
        raise InputError(f"cheat_samples must be >= 1, got {cheat_samples}")
    rows = []
    for theta in thetas:
        rhs = protocol1.binding_bound1(theta)
        lam = protocol1.top_reveal_eigenvalue(theta)
        for n in ns:
            brute = None
            if n <= brute_force_max_n:
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
