import numpy as np
import pytest

from qbsc import DensityMatrix, InputError, Ket, PhaseOrderError, Transcript
from qbsc.harness import commit_session, unveil_session, verify_session
from qbsc.transcript import (
    amplitude_pairs,
    canonical_json,
    commitment_hash,
    derive_salt,
    format_float,
    ket_from_pairs,
    matrix_from_pairs,
    matrix_pairs,
)


class TestCanonicalJson:
    def test_sorted_keys_compact(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'

    def test_float_seventeen_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert canonical_json({"x": 0.5}) == '{"x":0.5}'

    def test_floats_round_trip(self):
        import json

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
