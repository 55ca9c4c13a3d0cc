"""Reproducible experiment driver: sessions and bound-sweep reports.

Sessions move a transcript through commit, unveil and verify, and each
phase decides the protocol once.  This module owns the commit message
format: :func:`committed_transcript` serialises what a committer sends,
honest or cheating, and :func:`_reconstruct_commitment` reads it back with
the protocol's verifier, so :func:`verify_session` measures the commitment
rebuilt from that serialised message and every verdict is taken on what the
transcript records.

Reports sweep a parameter grid and put the analytic cap next to an exact
oracle on every row.  Each row builder lists its gated gaps with their
tolerances, and :func:`bound_sweep` alone turns them into the row's
``pass`` and the summary's worst violation.  The paper's entropy-based
all-bits cap stays informational: the exact all-bits guessing probability
can exceed it for long strings, so the sweep counts the uncovered rows
instead of failing on them.  The min-entropy list cap beside it is sound,
and every row gates the exact value against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adversary, protocol1, protocol2
from .codebook import Codebook, make_rng, verify_epsilon
from .errors import InputError
from .linalg import DensityMatrix, Ket, _eigvalsh, von_neumann_entropy
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
_IDENTITY_TOL = 1e-12  # the paper's per-bit cap against its closed form


def _codebook_record(codebook: Codebook) -> dict:
    """The params record of a protocol-2 transcript on ``codebook``."""
    return {
        "codebook_id": codebook.content_id(),
        "epsilon": codebook.epsilon_certified,
        "dim": codebook.dim,
        "capacity": protocol2.capacity(codebook),
    }


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
    protocol 1 (with ``params``), sent as amplitudes when every qubit is a
    ``Ket`` and as density matrices otherwise (a ``Ket`` as its projector),
    and a codebook index or one state for protocol 2 (with ``codebook``).  Honest committers name their ``bits``,
    which are bound by a salted hash; cheat sessions commit to no string and
    carry their ``strategy`` record instead.
    """
    salt = digest = None
    if bits is not None:
        salt = derive_salt(seed)
        digest = commitment_hash(salt, bits)
    if protocol == 1:
        record = {"theta": params.theta, "n": params.n, "r": params.r}
        pure = all(isinstance(q, Ket) for q in sent)
        message = {
            "kind": "qubit_amplitudes" if pure else "qubit_density_matrices",
            "qubits": [amplitude_pairs(q) if pure else matrix_pairs(q) for q in sent],
        }
    else:
        record = _codebook_record(codebook)
        if isinstance(sent, int):
            message = {"kind": "codebook_index", "index": sent}
        elif isinstance(sent, DensityMatrix):
            message = {"kind": "state_density_matrix", "entries": matrix_pairs(sent)}
        else:
            message = {"kind": "state_amplitudes", "amplitudes": amplitude_pairs(sent)}
    return Transcript(
        protocol=protocol,
        phase="committed",
        params=record,
        seeds={"session": int(seed)},
        commit={"message": message, "string_sha256": digest, "salt": salt},
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
    """Unveil phase.  The params and the claim are read as verification
    reads them, so what verification would refuse is refused here."""
    protocol1._parse_bits(claimed, _protocol_params(transcript)[1])
    return transcript.with_unveil(claimed)


def _protocol_params(transcript: Transcript):
    """The :class:`SecurityParams` of a protocol-1 transcript, or the
    params record of a protocol-2 one, and the length of its bit strings.

    Every field is read strictly: integers must be JSON integers, ``theta``
    and ``epsilon`` JSON numbers, and a missing or mistyped field raises
    :class:`InputError`.
    """
    if transcript.protocol == 1:
        params = SecurityParams(
            theta=float(field(transcript.params, "theta", REAL, "params")),
            n=field(transcript.params, "n", int, "params"),
            r=field(transcript.params, "r", int, "params"),
        )
        return params, params.n
    kinds = {"codebook_id": str, "epsilon": REAL, "dim": int, "capacity": int}
    record = {key: field(transcript.params, key, kind, "params") for key, kind in kinds.items()}
    return record, record["capacity"]


def _reconstruct_commitment(transcript: Transcript, codebook: Codebook | None):
    """The commitment a transcript's message describes and its protocol's
    verifier, every field read strictly (see :func:`_protocol_params`).  Every
    field of a protocol-2 params record must match ``codebook``."""
    message = transcript.commit.get("message")
    if not isinstance(message, dict):
        raise InputError("commit.message must be an object")
    kind = message.get("kind")
    if transcript.protocol == 1:
        params, _ = _protocol_params(transcript)
        if kind == "qubit_amplitudes":
            parse = ket_from_pairs
        elif kind == "qubit_density_matrices":
            parse = matrix_from_pairs
        else:
            raise InputError(f"unknown protocol 1 message kind {kind!r}")
        qubits = field(message, "qubits", list, "commit.message")
        commitment = Commitment1(qubits=tuple(parse(q) for q in qubits), params=params)
        return commitment, protocol1.verify_unveil
    if codebook is None:
        raise InputError("verifying a protocol 2 transcript needs the codebook")
    recorded, _ = _protocol_params(transcript)
    for key, value in _codebook_record(codebook).items():
        if recorded[key] != value:
            raise InputError(f"supplied codebook does not match the transcript's {key}")
    if kind == "codebook_index":
        state = codebook.state(field(message, "index", int, "commit.message"))
    elif kind == "state_amplitudes":
        state = ket_from_pairs(field(message, "amplitudes", list, "commit.message"))
    elif kind == "state_density_matrix":
        state = matrix_from_pairs(field(message, "entries", list, "commit.message"))
    else:
        raise InputError(f"unknown protocol 2 message kind {kind!r}")
    return Commitment2(state=state, codebook=codebook), protocol2.verify_unveil2


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
    transcript.require_phase("unveiled", "verify")
    commitment, verify = _reconstruct_commitment(transcript, codebook)
    rng = None
    if mode == "sampled":
        rng = make_rng(field(transcript.seeds, "session", int, "seeds"), TAG_VERIFY)
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
    "list_guess_bound",
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

    def write(self, out, formats=("json", "csv")) -> list[Path]:
        """Write the report in each of ``formats`` to ``out`` with the
        format's extension appended, after dropping a trailing ``.json`` or
        ``.csv`` (any other dot stays), and return the paths written."""
        base = Path(out)
        if base.suffix in (".json", ".csv"):
            base = base.with_suffix("")
        text = {"json": self.to_json, "csv": self.to_csv}
        paths = [base.with_name(f"{base.name}.{fmt}") for fmt in formats]
        for fmt, path in zip(formats, paths):
            path.write_text(text[fmt]())
        return paths


def _protocol1_row(
    theta: float, n: int, r: int, rhs: float, lam: float, brute: float | None
) -> tuple[dict, list]:
    """One grid row and its gated gaps; ``rhs`` and ``lam`` are solved per
    theta, ``brute`` per (theta, n), and ``brute`` is None above the
    brute-force limit, where the Holevo gap is not gated.  The gaps and
    their tolerances: 1e-12 identity, 1e-9 spectral, 1e-8 Holevo and 1e-8
    for the exact all-bits value above the min-entropy list cap.  The
    paper's entropy cap is reported in ``delta_covers_exact``, not gated."""
    identity = 1.0 + math.sin(theta)
    holevo = protocol1.holevo_bound1(n, theta)
    delta_raw = protocol1.identify_all_bound_raw(n, theta, r)
    delta = protocol1.identify_all_bound(n, theta, r)
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
        "helstrom_per_bit": adversary.guess_all_oracle(1, theta),
        "delta_covers_exact": guess_all <= delta + SOUND_TOL,
        "list_guess_bound": protocol1.list_guess_bound(n, theta, r),
    }
    gaps = [
        (row["binding_identity_gap"], _IDENTITY_TOL),
        (row["binding_spectral_gap"], _BOUND_TOL),
        (max(0.0, guess_all - row["list_guess_bound"]), SOUND_TOL),
    ]
    if brute is not None:
        gaps.append((row["holevo_gap"], SOUND_TOL))
    return row, gaps


def _equality_row(r: int, epsilon: float) -> tuple[dict, list]:
    if not protocol2.equality_feasible(r, epsilon):
        return {"kind": "equality", "r": r, "epsilon": epsilon, "infeasible": True}, []
    kets = protocol2.equality_configuration(r, epsilon)
    rows = np.stack([k.amps for k in kets])
    lam = float(_eigvalsh(rows.T @ rows.conj())[-1])
    bound = protocol2.binding_bound2(r, epsilon)
    gap = abs(lam - bound)
    row = {
        "kind": "equality",
        "r": r,
        "epsilon": epsilon,
        "lambda_max": lam,
        "bound": bound,
        "gap": gap,
        "infeasible": False,
    }
    return row, [(gap, _BOUND_TOL)]


def _cheat_set_draws(cb: Codebook, samples: int, seed: int, r_max: int):
    """The cheat-set row's draws, in order: per sample a size ``r`` uniform in
    [2, r_max], then ``r`` distinct indices, yielded as one index array."""
    rng = make_rng(seed)
    for _ in range(samples):
        r = int(rng.integers(2, r_max + 1))
        yield rng.choice(cb.size, size=r, replace=False)


def _cheat_set_row(cb: Codebook, samples: int, seed: int) -> tuple[dict, list, bool]:
    """The sampled cheat-set row, its gated gap and its certificate check,
    which fails the row without counting as a sound violation.
    :func:`protocol2.cheat_set_grams` reads the draws as they come and alone
    decides what a batch holds; each batch is solved once per cheat-set
    size: one Gram stack and one eigensolve of it."""
    eps = cb.epsilon_certified
    certified = verify_epsilon(cb) == eps
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
        row["infeasible"] = True
        return row, [], certified
    worst = -math.inf
    violations = 0
    for r, grams in protocol2.cheat_set_grams(cb, _cheat_set_draws(cb, samples, seed, r_max)):
        lam = _eigvalsh(grams)[:, -1]
        excess = lam - protocol2.binding_bound2(r, eps)
        worst = max(worst, float(excess.max()))
        violations += int(np.count_nonzero(excess > _BOUND_TOL))
        del grams  # solved: freed before the next batch is built
    row.update({"lambda_max": None, "gap": worst, "violations": violations})
    return row, [(max(0.0, worst), _BOUND_TOL)], certified


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

    Every theta must lie in (0, pi/2), as in a session.  Grid order is
    deterministic: thetas outermost, then n, then r, then the
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
    for theta in thetas:
        SecurityParams(theta=theta, n=1)  # a session's theta rule: (0, pi/2)
    for _, epsilon in equality_configs:
        if not math.isfinite(epsilon):
            raise InputError(f"equality epsilon must be finite, got {epsilon!r}")
    if codebook is not None and cheat_samples < 1:
        raise InputError(f"cheat_samples must be >= 1, got {cheat_samples}")
    gated = []  # (row, its (gap, tolerance) pairs, its certificate check)
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
                gated.append((*_protocol1_row(theta, n, r, rhs, lam, brute), True))
    for r, epsilon in equality_configs:
        gated.append((*_equality_row(r, epsilon), True))
    if codebook is not None:
        gated.append(_cheat_set_row(codebook, cheat_samples, seed))

    rows = []
    max_violation = 0.0
    for row, gaps, certified in gated:
        row["pass"] = certified and all(gap <= tol for gap, tol in gaps)
        max_violation = max([max_violation, *(gap for gap, _ in gaps)])
        rows.append(row)
    uncovered = sum(
        1 for row in rows if row.get("delta_covers_exact") is False
    )
    summary = {
        "rows": len(rows),
        "max_sound_violation": max_violation,
        "sound_pass": all(row["pass"] for row in rows),
        "delta_uncovered_rows": uncovered,
    }
    return BoundReport(rows=tuple(rows), summary=summary)
