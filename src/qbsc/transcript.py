"""Session transcripts with canonical, replayable serialization.

A transcript walks through three phases: ``committed`` (quantum message plus
a salted hash of the committed string), ``unveiled`` (claimed string
appended) and ``verified`` (verdict and exact acceptance probability).
Serialization is canonical: keys are sorted, floats are written with 17
significant digits, and there is no timestamp, so identical seeds reproduce
identical bytes.  Reading is strict: :func:`field` requires each field to be
present with its JSON type, and a boolean is never read as a number.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .errors import InputError, PhaseOrderError
from .linalg import DensityMatrix, Ket

# the C routine json.dumps escapes a string with
_encode_str = json.encoder.encode_basestring_ascii

TOOL_ID = f"qbsc {__version__}"
PHASES = ("committed", "unveiled", "verified")

# spawn tags for per-session derived streams
TAG_SALT = 0x5A17
TAG_VERIFY = 0x7E51
# field kinds read by :func:`field`
REAL = (int, float)
OPTIONAL_OBJECT = (dict, type(None))
_OPTIONAL_STRING = (str, type(None))


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InputError("non-finite floats cannot be serialized")
    if x == 0.0:
        return "0"  # "-0" would parse back as the integer 0
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, 17-digit floats.

    Strings and keys are escaped exactly as ``json.dumps`` escapes them.
    """
    pieces: list[str] = []
    _write(obj, pieces.append)
    return "".join(pieces)


def _write(obj, put) -> None:
    # exact types first: transcripts and reports hold only these
    kind = type(obj)
    if kind is float:
        put(format_float(obj))
    elif kind is str:
        put(_encode_str(obj))
    elif kind is dict:
        for key in obj:
            if not isinstance(key, str):
                raise InputError("canonical JSON requires string keys")
        sep = "{"
        for key in sorted(obj):
            put(sep)
            put(_encode_str(key))
            put(":")
            _write(obj[key], put)
            sep = ","
        put("}" if obj else "{}")
    elif kind is list or kind is tuple:
        sep = "["
        for item in obj:
            put(sep)
            _write(item, put)
            sep = ","
        put("]" if obj else "[]")
    elif kind is int:
        put(str(obj))
    elif kind is bool:
        put("true" if obj else "false")
    elif obj is None:
        put("null")
    else:
        _write(_plain(obj), put)


def _plain(obj):
    """The exact JSON type behind a numpy scalar or a subclass of one."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, str):
        return str.__str__(obj)
    if isinstance(obj, dict):
        return dict(obj)
    if isinstance(obj, (list, tuple)):
        return list(obj)
    raise InputError(f"cannot serialize {type(obj).__name__}")


def derive_salt(seed: int) -> str:
    ss = np.random.SeedSequence(seed, spawn_key=(TAG_SALT,))
    return ss.generate_state(4, np.uint32).tobytes().hex()


def commitment_hash(salt_hex: str, bits: str) -> str:
    try:
        salt = bytes.fromhex(salt_hex)
    except ValueError as exc:
        raise InputError(f"salt {salt_hex!r} is not a hex string") from exc
    return hashlib.sha256(salt + bits.encode()).hexdigest()


def amplitude_pairs(ket: Ket) -> list[list[float]]:
    return ket.amps.view(np.float64).reshape(-1, 2).tolist()


def matrix_pairs(op: DensityMatrix | Ket) -> list[list[list[float]]]:
    """Entries of a density matrix, or of a Ket's projector, as [re, im]."""
    mat = np.outer(op.amps, op.amps.conj()) if isinstance(op, Ket) else op.mat
    entries = np.asarray(mat, dtype=complex).view(np.float64)
    return entries.reshape(op.dim, op.dim, 2).tolist()


_EXPECTED = {
    int: "an integer",
    REAL: "a real number",
    str: "a string",
    list: "a list",
    dict: "an object",
    OPTIONAL_OBJECT: "an object or null",
    _OPTIONAL_STRING: "a string or null",
}


def field(record: dict, key: str, kind, where: str):
    """``record[key]``, which must be present and an instance of ``kind``.

    Booleans count as neither integers nor real numbers, so a JSON ``true``
    is never read as 1, and a real number must be one a float can hold.
    """
    if key not in record:
        raise InputError(f"{where}.{key} is missing")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        shown = value if isinstance(value, (bool, int, float)) else type(value).__name__
        raise InputError(f"{where}.{key} must be {_EXPECTED[kind]}, got {shown!r}")
    if kind is REAL and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise InputError(f"{where}.{key} is an integer beyond the float range")
    return value


def read_document(text: str, name: str) -> dict:
    """The JSON object in ``text``, whose ``version`` must be the integer 1.
    Every parse failure (malformed text, nesting beyond the parser's depth,
    an integer too long to convert) raises :class:`InputError`."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed {name} document: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError(f"malformed {name} document: expected an object")
    if field(payload, "version", int, name) != 1:
        raise InputError(f"unknown {name} version {payload['version']}")
    return payload


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
            "version": 1,
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
        payload = read_document(text, "transcript")
        return cls(
            protocol=field(payload, "protocol", int, "transcript"),
            phase=field(payload, "phase", str, "transcript"),
            params=field(payload, "params", dict, "transcript"),
            seeds=field(payload, "seeds", dict, "transcript"),
            commit=field(payload, "commit", dict, "transcript"),
            unveil=field(payload, "unveil", OPTIONAL_OBJECT, "transcript"),
            verify=field(payload, "verify", OPTIONAL_OBJECT, "transcript"),
            strategy=field(payload, "strategy", OPTIONAL_OBJECT, "transcript"),
            tool=field(payload, "tool", str, "transcript"),
        )

    def require_phase(self, phase: str, step: str) -> None:
        if self.phase != phase:
            raise PhaseOrderError(
                f"{step} requires phase '{phase}', transcript is '{self.phase}'"
            )

    def with_unveil(self, claimed: str) -> "Transcript":
        self.require_phase("committed", "unveil")
        digest = field(self.commit, "string_sha256", _OPTIONAL_STRING, "commit")
        matches = None
        if digest is not None:
            salt = field(self.commit, "salt", str, "commit")
            matches = commitment_hash(salt, claimed) == digest
        return replace(
            self,
            phase="unveiled",
            unveil={"claimed": claimed, "claim_matches_commit": matches},
        )

    def with_verification(self, record: dict) -> "Transcript":
        self.require_phase("unveiled", "verify")
        return replace(self, phase="verified", verify=record)
