import collections
import enum
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsc import Codebook, DensityMatrix, InputError, Ket, PhaseOrderError, Transcript
from qbsc.harness import commit_session, unveil_session, verify_session
from qbsc.transcript import (
    TOOL_ID,
    amplitude_pairs,
    canonical_json,
    commitment_hash,
    derive_salt,
    format_float,
    ket_from_pairs,
    matrix_from_pairs,
    matrix_pairs,
)

from oracles import recursive_canonical_json

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]
SPECIAL_FLOATS += [math.nan, math.inf, -math.inf]
SPECIAL_STRINGS = ['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\t\r", "é☃😀", "\ud800", ""]


class Tag(str):
    pass


Pair = collections.namedtuple("Pair", "re im")
Bit = enum.IntEnum("Bit", "ONE TWO")
SUBCLASSED = [
    Tag('quo"te'),
    Pair(0.5, -0.0),
    Bit.TWO,
    collections.OrderedDict([("b", 1), ("a", [2.5])]),
    collections.defaultdict(list, {"k": (1, None)}),
]
LEAVES = st.one_of(
    st.sampled_from(SUBCLASSED),
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.text(),
    st.sampled_from(SPECIAL_STRINGS),
    st.sets(st.integers(), max_size=2),  # not serializable
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(st.text(), st.sampled_from(SPECIAL_STRINGS)), children, max_size=4
        ),
        # non-string keys of one type sort, so both writers reach the key check
        st.dictionaries(st.integers(), children, min_size=1, max_size=3),
    ),
    max_leaves=24,
)


def _outcome(writer, payload):
    """The text a writer produces, or the type of the exception it raises."""
    try:
        return writer(payload)
    except Exception as exc:
        return type(exc)


class TestCanonicalJson:
    def test_sorted_keys_compact(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'

    def test_float_seventeen_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert canonical_json({"x": 0.5}) == '{"x":0.5}'

    def test_floats_round_trip(self):
        rng = np.random.default_rng(1)
        for value in rng.standard_normal(200):
            assert json.loads(format_float(float(value))) == float(value)

    def test_negative_zero_stays_stable(self):
        # "-0" would reparse as the integer 0 and change bytes on the
        # second serialization
        assert format_float(-0.0) == "0"
        assert canonical_json([-0.0, 0.0]) == "[0,0]"

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            canonical_json({"x": float("nan")})

    def test_rejects_unknown_types(self):
        with pytest.raises(InputError):
            canonical_json({"x": object()})

    @pytest.mark.parametrize("payload", [{1: 2, "a": 3}, {1: 2}, {"a": {None: 1}}])
    def test_rejects_non_string_keys(self, payload):
        # keys are checked before sorting, which fails on mixed int and str
        with pytest.raises(InputError, match="string keys"):
            canonical_json(payload)

    @settings(max_examples=300, deadline=None)
    @given(payload=PAYLOADS)
    def test_matches_recursive_writer(self, payload):
        assert _outcome(canonical_json, payload) == _outcome(
            recursive_canonical_json, payload
        )

class TestAmplitudeSerialization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        ket = Ket(raw / np.linalg.norm(raw))
        again = ket_from_pairs(amplitude_pairs(ket))
        assert np.array_equal(again.amps, ket.amps)


class TestSaltAndHash:
    def test_salt_deterministic(self):
        assert derive_salt(42) == derive_salt(42)
        assert derive_salt(42) != derive_salt(43)

    def test_hash_binds_string(self):
        salt = derive_salt(7)
        assert commitment_hash(salt, "1010") != commitment_hash(salt, "1011")


def test_tool_id_carries_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    import qbsc

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = tomllib.loads(pyproject.read_text())["project"]["version"]
    assert qbsc.__version__ == version
    assert TOOL_ID == f"qbsc {version}"


class TestTranscriptLifecycle:
    def test_round_trip_byte_identity(self):
        t = commit_session(1, "1010", seed=5, theta=0.2)
        text = t.to_json()
        assert Transcript.from_json(text).to_json() == text
        t = unveil_session(t, "1010")
        t = verify_session(t, mode="sampled")
        text = t.to_json()
        assert Transcript.from_json(text).to_json() == text

    def test_phase_order_enforced(self):
        t = commit_session(1, "10", seed=5, theta=0.2)
        with pytest.raises(PhaseOrderError):
            verify_session(t)
        t = unveil_session(t, "10")
        with pytest.raises(PhaseOrderError):
            unveil_session(t, "10")
        t = verify_session(t)
        with pytest.raises(PhaseOrderError):
            verify_session(t)

    def test_unveil_hash_check_recorded(self):
        t = commit_session(1, "1010", seed=5, theta=0.2)
        honest = unveil_session(t, "1010")
        assert honest.unveil["claim_matches_commit"] is True
        lying = unveil_session(t, "1111")
        assert lying.unveil["claim_matches_commit"] is False

    def test_sampled_verdict_replays(self):
        def run():
            t = commit_session(1, "110011", seed=12, theta=0.1)
            t = unveil_session(t, "110010")
            return verify_session(t, mode="sampled").to_json()

        assert run() == run()

    def test_malformed_documents(self):
        with pytest.raises(InputError):
            Transcript.from_json("{broken")
        with pytest.raises(InputError):
            Transcript.from_json('{"version": 1}')
        with pytest.raises(InputError):
            Transcript.from_json("[1, 2, 3]")

    def test_unknown_phase_rejected(self):
        t = commit_session(1, "10", seed=5, theta=0.2)
        text = t.to_json().replace('"committed"', '"limbo"')
        with pytest.raises(InputError):
            Transcript.from_json(text)


# text that is not a version-1 JSON object; the first three only the parser
# can refuse, so they are written as raw text
UNREADABLE = {
    "nested-lists": "[" * 5000 + "]" * 5000,
    "nested-objects": '{"a": ' * 2000 + "1" + "}" * 2000,
    "long-integer": '{"version": 1, "k": ' + "7" * 5000 + "}",
    "top-level-array": "[1, 2, 3]",
    "version-2": '{"version": 2}',
    "version-true": '{"version": true}',
    "version-missing": "{}",
}


class TestDocumentReader:
    """Both loaders read their text through ``transcript.read_document``."""

    @pytest.mark.parametrize("text", UNREADABLE.values(), ids=UNREADABLE)
    @pytest.mark.parametrize("load", [Transcript.from_json, Codebook.from_json],
                             ids=["transcript", "codebook"])
    def test_unreadable_text_is_an_input_error(self, load, text):
        with pytest.raises(InputError):
            load(text)


class TestStatePairs:
    def test_matrix_pairs_same_for_real_and_complex_density(self):
        real = DensityMatrix(np.array([[0.75, 0.25], [0.25, 0.25]]))
        cplx = DensityMatrix(real.mat.astype(np.complex128))
        assert real.mat.dtype == np.float64
        assert canonical_json(matrix_pairs(real)) == canonical_json(matrix_pairs(cplx))
        assert np.array_equal(matrix_from_pairs(matrix_pairs(real)).mat, cplx.mat)

    @pytest.mark.parametrize(
        "pairs",
        [[1], [[1, 0], [0]], [[float("nan"), 0.0], [0.0, 0.0]],
         [[1, 0], [0, float("inf")]], [["1", 0], [0, 0]], [[None, 0]], [], 7],
    )
    def test_malformed_amplitudes_rejected(self, pairs):
        with pytest.raises(InputError):
            ket_from_pairs(pairs)

    @pytest.mark.parametrize(
        "rows",
        [[[[1, 0]]] * 2, [[[1, 0], [0, 0]], [[0, 0]]], 3, [[1]],
         [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]],
    )
    def test_malformed_matrix_entries_rejected(self, rows):
        with pytest.raises(InputError):
            matrix_from_pairs(rows)
