"""Session transcripts with canonical, replayable serialization.

A transcript walks through three phases: ``committed`` (quantum message plus
a salted hash of the committed string), ``unveiled`` (claimed string
appended) and ``verified`` (verdict and exact acceptance probability).
Serialization is canonical: keys are sorted, floats are written with 17
significant digits, and there is no timestamp, so identical seeds reproduce
identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, PhaseOrderError
from .linalg import DensityMatrix, Ket

TOOL_ID = "qbsc 0.1.0"
PHASES = ("committed", "unveiled", "verified")

# spawn tags for per-session derived streams
TAG_SALT = 0x5A17
TAG_VERIFY = 0x7E51


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise InputError("non-finite floats cannot be serialized")
    if x == 0.0:
        return "0"  # "-0" would parse back as the integer 0
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, 17-digit floats."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise InputError("canonical JSON requires string keys")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")


def derive_salt(seed: int) -> str:
    ss = np.random.SeedSequence(seed, spawn_key=(TAG_SALT,))
    return ss.generate_state(4, np.uint32).tobytes().hex()


def commitment_hash(salt_hex: str, bits: str) -> str:
    return hashlib.sha256(bytes.fromhex(salt_hex) + bits.encode()).hexdigest()


def verification_rng(seed: int) -> np.random.Generator:
    """The session's verification stream, derived from the recorded seed."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(TAG_VERIFY,)))
    )


def amplitude_pairs(ket: Ket) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in ket.amps]


def matrix_pairs(op: DensityMatrix) -> list[list[list[float]]]:
    return [
        [[float(e.real), float(e.imag)] for e in row] for row in op.mat
    ]


def _complex_from_pair(pair) -> complex:
    """One serialized ``[re, im]`` entry.  Non-finite parts are left to the
    state's own validation, which rejects them."""
    try:
        re, im = pair
        return complex(re, im)  # strings, None and lists raise TypeError
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"entry {pair!r} is not an [re, im] pair of numbers") from exc


def ket_from_pairs(pairs) -> Ket:
    if not isinstance(pairs, (list, tuple)):
        raise InputError("state amplitudes must be a list of [re, im] pairs")
    return Ket(np.array([_complex_from_pair(pair) for pair in pairs]))


def matrix_from_pairs(rows) -> DensityMatrix:
    if not isinstance(rows, (list, tuple)) or any(
        not isinstance(row, (list, tuple)) or len(row) != len(rows) for row in rows
    ):
        raise InputError("density matrix entries must be a square list of rows")
    return DensityMatrix(
        np.array([[_complex_from_pair(pair) for pair in row] for row in rows])
    )


@dataclass(frozen=True)
class Transcript:
    """Full serialized record of one commit/unveil/verify session."""

    protocol: int
    phase: str
    params: dict
    seeds: dict
    commit: dict
    unveil: dict | None = None
    verify: dict | None = None
    strategy: dict | None = None
    version: int = 1
    tool: str = TOOL_ID

    def __post_init__(self):
        if self.protocol not in (1, 2):
            raise InputError(f"unknown protocol {self.protocol!r}")
        if self.phase not in PHASES:
            raise InputError(f"unknown phase {self.phase!r}")
        if self.phase != "committed" and not (
            isinstance(self.unveil, dict) and isinstance(self.unveil.get("claimed"), str)
        ):
            raise InputError(
                f"phase {self.phase!r} needs an unveil record with a string 'claimed'"
            )

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "tool": self.tool,
            "protocol": self.protocol,
            "phase": self.phase,
            "params": self.params,
            "seeds": self.seeds,
            "commit": self.commit,
            "unveil": self.unveil,
            "verify": self.verify,
            "strategy": self.strategy,
        }
        return canonical_json(payload) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed transcript: {exc}") from exc
        if not isinstance(payload, dict):
            raise InputError("malformed transcript: expected an object")
        try:
            if payload["version"] != 1:
                raise InputError(f"unknown transcript version {payload['version']}")
            return cls(
                protocol=int(payload["protocol"]),
                phase=str(payload["phase"]),
                params=dict(payload["params"]),
                seeds=dict(payload["seeds"]),
                commit=dict(payload["commit"]),
                unveil=None if payload["unveil"] is None else dict(payload["unveil"]),
                verify=None if payload["verify"] is None else dict(payload["verify"]),
                strategy=(
                    None if payload["strategy"] is None else dict(payload["strategy"])
                ),
                version=int(payload["version"]),
                tool=str(payload["tool"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed transcript: {exc}") from exc

    def with_unveil(self, claimed: str) -> "Transcript":
        if self.phase != "committed":
            raise PhaseOrderError(
                f"unveil requires phase 'committed', transcript is '{self.phase}'"
            )
        matches = None
        if self.commit.get("string_sha256") is not None:
            matches = (
                commitment_hash(self.commit["salt"], claimed)
                == self.commit["string_sha256"]
            )
        return replace(
            self,
            phase="unveiled",
            unveil={"claimed": claimed, "claim_matches_commit": matches},
        )

    def with_verification(self, record: dict) -> "Transcript":
        if self.phase != "unveiled":
            raise PhaseOrderError(
                f"verify requires phase 'unveiled', transcript is '{self.phase}'"
            )
        return replace(self, phase="verified", verify=record)
