import ast
import dataclasses
import hashlib
import inspect
import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsc import (
    BinaryCode,
    CertificationError,
    Codebook,
    InputError,
    capacity,
    derive_seed,
    fingerprint_states,
    generate_certified_codebook,
    generate_code,
    rank_gf2,
    verify_epsilon,
)
from qbsc import Transcript, harness, linalg, protocol1, protocol2
from qbsc import codebook as codebook_module
from qbsc.codebook import (
    _amplitudes,
    _crosscheck_pairs,
    _hex_to_rows,
    _pair_overlaps,
    _rows_to_hex,
    make_rng,
)
from qbsc.errors import NumericalError

from oracles import (
    all_weights_epsilon,
    elimination_rank_gf2,
    int64_butterfly_weights,
    looped_packed_words,
    one_batch_overlaps,
    unique_column_counts,
)

# 4x16 generator whose 15 nonzero codeword weights span exactly [6, 10]
PINNED_4x16 = np.array(
    [
        [0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0],
        [1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1],
        [0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0],
    ],
    dtype=np.uint8,
)

# rows of weight 2 over length 4: every nonzero codeword has weight 2
ORTHOGONAL_2x4 = np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.uint8)


def enumerate_weights(generator):
    """Oracle: weights of all nonzero codewords by explicit enumeration."""
    k, m = generator.shape
    weights = []
    for message in range(1, 2**k):
        bits = [(message >> (k - 1 - i)) & 1 for i in range(k)]
        word = np.zeros(m, dtype=int)
        for i, b in enumerate(bits):
            if b:
                word ^= generator[i]
        weights.append(int(word.sum()))
    return weights


class TestRankGf2:
    def test_identity(self):
        assert rank_gf2(np.eye(4, dtype=np.uint8)) == 4

    def test_dependent_rows(self):
        mat = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
        assert rank_gf2(mat) == 2

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_elimination(self, data):
        m = data.draw(st.integers(0, 70), label="m")
        row = st.lists(st.integers(0, 3), min_size=m, max_size=m)
        rows = data.draw(st.lists(row, max_size=20), label="rows")
        if rows:
            rows += data.draw(st.lists(st.sampled_from(rows), max_size=4), label="repeats")
        rows += [[0] * m] * data.draw(st.integers(0, 2), label="zero rows")
        rows = data.draw(st.permutations(rows), label="order")
        mat = np.array(rows, dtype=np.uint8).reshape(len(rows), m)
        assert rank_gf2(mat) == elimination_rank_gf2(mat)

    @pytest.mark.parametrize("k, m", [(0, 5), (3, 0), (5, 3), (20, 16), (16, 1024)])
    def test_matches_elimination_on_drawn_shapes(self, k, m):
        rng = np.random.default_rng(100 * k + m)
        mat = rng.integers(0, 2, size=(k, m), dtype=np.uint8)
        if k > 1:
            mat[-1] = mat[0] ^ mat[1]
        assert rank_gf2(mat) == elimination_rank_gf2(mat)


class TestGenerateCode:
    def test_deterministic(self):
        a = generate_code(4, 12, 99)
        b = generate_code(4, 12, 99)
        assert np.array_equal(a.generator, b.generator)

    def test_k1_m2_nonzero_codeword(self):
        for seed in range(10):
            code = generate_code(1, 2, seed)
            word = tuple(code.codeword(1))
            assert word in ((0, 1), (1, 0), (1, 1))

    def test_full_rank(self):
        for seed in range(5):
            code = generate_code(5, 9, seed)
            assert rank_gf2(code.generator) == 5

    def test_weight_range(self):
        code = generate_code(4, 16, 42)
        weights = enumerate_weights(code.generator)
        assert len(weights) == 15
        assert all(1 <= w <= 16 for w in weights)

    def test_parameter_bounds(self):
        with pytest.raises(InputError):
            generate_code(0, 4, 1)
        with pytest.raises(InputError):
            generate_code(21, 30, 1)
        with pytest.raises(InputError):
            generate_code(4, 3, 1)


def dense_weights(code):
    """Oracle: ``(bits @ G) % 2`` over every nonzero message, in order."""
    k = code.k
    msgs = np.arange(1, 2**k, dtype=np.int64)
    bits = ((msgs[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
    return ((bits @ code.generator) % 2).sum(axis=1, dtype=np.int64)


def columns_generator(k, columns):
    """``k x len(columns)`` generator whose columns are the given k-bit
    integers, row 0 most significant."""
    cols = np.asarray(columns, dtype=np.int64)
    return ((cols[None, :] >> np.arange(k - 1, -1, -1)[:, None]) & 1).astype(np.uint8)


UNITS_16 = [1 << i for i in range(16)]

STRUCTURED_GENERATORS = pytest.mark.parametrize(
    "k, columns",
    [
        (0, [0] * 5),
        (1, [1] * 11),  # every column equal
        (1, [0, 1, 0, 0, 1, 1, 0]),
        (5, [16, 8, 4, 2, 1, 0, 7, 0, 31, 19, 0, 5, 12]),  # zero columns
        (7, [1, 2, 4, 8, 16, 32, 64] * 3 + [3] * 5),  # repeated columns
        (13, [(37 * i) % 8192 for i in range(77)] + UNITS_16[:13]),
        (16, UNITS_16 * 2 + [0, 65535, 65535]),
    ],
    ids=["k0", "k1-all-equal", "k1", "k5-zero-columns", "k7-repeated",
         "k13-m90", "k16-m35"],
)


class TestWeightEnumeration:
    """The Walsh-Hadamard enumeration against the dense product."""

    @STRUCTURED_GENERATORS
    def test_structured_generators_match_explicit_enumeration(self, k, columns):
        generator = columns_generator(k, columns)
        code = BinaryCode(generator=generator)
        weights = code.nonzero_codeword_weights()
        assert weights.dtype == np.int64 and weights.shape == (2**k - 1,)
        assert weights.tolist() == enumerate_weights(generator)

    @pytest.mark.parametrize(
        "k, m",
        [(1, 1), (1, 9), (3, 64), (12, 100), (12, 130), (13, 64), (13, 203), (16, 77)],
    )
    def test_matches_dense_product_in_message_order(self, k, m):
        code = generate_code(k, m, seed=1000 * k + m)
        weights = code.nonzero_codeword_weights()
        assert weights.dtype == np.int64
        assert np.array_equal(weights, dense_weights(code))

    @given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_product_random_codes(self, k, seed, data):
        m = data.draw(st.integers(k, 200))
        code = generate_code(k, m, seed)
        assert np.array_equal(code.nonzero_codeword_weights(), dense_weights(code))

    @given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_int64_butterflies_random_codes(self, k, seed, data):
        m = data.draw(st.integers(k, codebook_module.MAX_GENERATE_M))
        code = generate_code(k, m, seed)
        weights = code.nonzero_codeword_weights()
        expected = int64_butterfly_weights(code)
        assert weights.dtype == expected.dtype == np.int64
        assert np.array_equal(weights, expected)

    @pytest.mark.parametrize("m", [32767, 32768, 32769])
    def test_all_ones_row_at_the_int16_limit(self, m):
        # the transform is [m, -m]: |W| = m fits int16 at 32,767, not at
        # 32,768; wrapping int16 sums would still give -m there, not at 32,769
        code = BinaryCode(generator=np.ones((1, m), dtype=np.uint8))
        weights = code.nonzero_codeword_weights()
        assert weights.dtype == np.int64 and weights.tolist() == [m]
        assert np.array_equal(weights, int64_butterfly_weights(code))

    @pytest.mark.parametrize("m", [32767, 32768, 40000])
    def test_long_random_codes_match_int64_butterflies(self, m):
        rng = np.random.default_rng(m)
        code = BinaryCode(generator=rng.integers(0, 2, size=(9, m), dtype=np.uint8))
        assert np.array_equal(code.nonzero_codeword_weights(), int64_butterfly_weights(code))

    def test_pinned_generator(self):
        code = BinaryCode(generator=PINNED_4x16)
        assert code.nonzero_codeword_weights().tolist() == enumerate_weights(PINNED_4x16)

    def test_k0_has_no_nonzero_codewords(self):
        code = BinaryCode(generator=np.zeros((0, 5), dtype=np.uint8))
        weights = code.nonzero_codeword_weights()
        assert weights.dtype == np.int64 and weights.size == 0


class TestEpsilonFromExtremes:
    """The certificate read from the two extreme weights against the overlap
    expression over every weight."""

    @STRUCTURED_GENERATORS
    def test_structured_generators(self, k, columns):
        code = BinaryCode(generator=columns_generator(k, columns))
        assert code._epsilon == all_weights_epsilon(code)

    @pytest.mark.parametrize("draw", range(64))
    def test_random_codes(self, draw):
        k = 1 + draw % 16
        m = 2 * (k + draw * 37 % 150) - draw % 2  # odd m for odd draws
        code = generate_code(k, m, seed=draw)
        assert code._epsilon == all_weights_epsilon(code)

    def test_expression_is_monotone_on_each_side_for_every_allowed_m(self):
        for m in range(1, codebook_module.MAX_GENERATE_M + 1):
            overlap = np.abs(1.0 - 2.0 * np.arange(m + 1) / m)
            assert (np.diff(overlap[: m // 2 + 1]) <= 0).all()  # w <= m/2
            assert (np.diff(overlap[(m + 1) // 2 :]) >= 0).all()  # w >= m/2


class TestFingerprintStates:
    def test_identical_codeword_overlap_is_one(self):
        cb = fingerprint_states(BinaryCode(generator=PINNED_4x16), 0)
        v = cb.state(5)
        assert np.vdot(v.amps, v.amps).real == pytest.approx(1.0, abs=1e-12)

    def test_half_distance_overlap_is_zero(self):
        cb = fingerprint_states(BinaryCode(generator=ORTHOGONAL_2x4), 0)
        for i in range(cb.size):
            for j in range(cb.size):
                if i != j:
                    overlap = np.vdot(cb.state(i).amps, cb.state(j).amps).real
                    assert overlap == pytest.approx(0.0, abs=1e-15)

    def test_distance_six_overlap(self):
        code = BinaryCode(generator=PINNED_4x16)
        cb = fingerprint_states(code, 0)
        weights = enumerate_weights(PINNED_4x16)
        message = weights.index(6) + 1  # codeword at distance 6 from zero
        direct = np.vdot(cb.state(0).amps, cb.state(message).amps).real
        assert direct == pytest.approx(1.0 - 2.0 * 6 / 16, abs=1e-15)
        assert direct == pytest.approx(0.25, abs=1e-15)

    def test_overlap_identity_all_pairs(self):
        code = BinaryCode(generator=PINNED_4x16)
        cb = fingerprint_states(code, 0)
        for i in range(cb.size):
            for j in range(cb.size):
                d = int(np.sum(code.codeword(i) != code.codeword(j)))
                direct = np.vdot(cb.state(i).amps, cb.state(j).amps).real
                assert abs(direct - (1.0 - 2.0 * d / 16)) <= 1e-12

    @given(
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_overlap_identity_random_codes(self, k, seed, data):
        m = data.draw(st.integers(k, 24))
        code = generate_code(k, m, seed)
        cb = fingerprint_states(code, seed)
        i = data.draw(st.integers(0, cb.size - 1))
        j = data.draw(st.integers(0, cb.size - 1))
        d = int(np.sum(code.codeword(i) != code.codeword(j)))
        direct = np.vdot(cb.state(i).amps, cb.state(j).amps).real
        assert abs(direct - (1.0 - 2.0 * d / m)) <= 1e-12


class TestVerifyEpsilon:
    def test_pinned_weight_span(self):
        weights = enumerate_weights(PINNED_4x16)
        assert min(weights) == 6 and max(weights) == 10
        expected = max(abs(1.0 - 2.0 * w / 16) for w in weights)
        cb = fingerprint_states(BinaryCode(generator=PINNED_4x16), 0)
        assert verify_epsilon(cb) == expected == 0.25

    def test_orthogonal_family(self):
        cb = fingerprint_states(BinaryCode(generator=ORTHOGONAL_2x4), 0)
        assert verify_epsilon(cb) == 0.0

    def test_single_state_convention(self):
        code = BinaryCode(generator=np.zeros((0, 4), dtype=np.uint8))
        cb = fingerprint_states(code, 0)
        assert cb.size == 1
        assert verify_epsilon(cb) == 0.0


class TestGenerateCertified:
    def test_exact_orthogonality_small(self):
        cb = generate_certified_codebook(2, 0.0, 1, seed=1)
        assert cb.epsilon_certified == 0.0
        # the accepted generator has the single weight-1 codeword
        assert enumerate_weights(cb.code.generator) == [1]

    def test_vacuous_target_accepts_first(self):
        cb = generate_certified_codebook(8, 1.0, 3, seed=5)
        assert cb.attempts == 1

    def test_pinned_32_6(self):
        cb = generate_certified_codebook(32, 0.5, 6, seed=1)
        assert cb.epsilon_certified <= 0.5
        assert cb.epsilon_certified == 0.375
        assert cb.attempts == 1
        assert capacity(cb) == 6
        assert verify_epsilon(cb) == 0.375

    def test_infeasible_reports_best(self):
        # length-4 codes with 7 nonzero words cannot all sit at weight 2
        with pytest.raises(CertificationError) as err:
            generate_certified_codebook(4, 0.01, 3, seed=2)
        assert err.value.best_epsilon is not None
        assert err.value.best_epsilon > 0.01
        assert err.value.attempts == codebook_module.DEFAULT_ATTEMPT_CAP

    def test_k_beyond_exhaustive_regime_rejected_before_drawing(self, monkeypatch):
        import qbsc.codebook as codebook_module

        def never(*args):
            raise AssertionError("code drawn for an unsupported k")

        monkeypatch.setattr(codebook_module, "make_rng", never)
        for k in (17, 20):
            with pytest.raises(InputError):
                generate_certified_codebook(64, 1.0, k, seed=0)

    # sha256 of each codebook JSON at the commit before the Walsh-Hadamard
    # weight enumeration
    @pytest.mark.parametrize(
        "n, eps, k, seed, digest",
        [
            (32, 0.5, 6, 1,
             "7ab89471cde1a5fd8fdfb7a8840f6c11f14c64f0fc6ce4b207637cce9c885c03"),
            (1024, 0.25, 16, 3,
             "22ebd131aa54cef491f7dd8ca59b7d34eab9e5a8b86ef5c52e3a57e745ac80f6"),
            (64, 0.75, 5, 9,
             "3dc0e068411c435c0be516e94e59ba4474bb8dafc3519fa1e4c2b2734b518858"),
            (512, 0.4, 12, 4,
             "eca089f90b8e47bcbad17ca77207aa418a7215da94c61829ebf0a2e0c8d1297f"),
            (16, 0.8, 3, 9,
             "e19db05fe2856eba509bc2bf36332f79d924ebb57bea40a579d74acc5c15da46"),
        ],
    )
    def test_pinned_codebook_bytes(self, n, eps, k, seed, digest):
        text = generate_certified_codebook(n, eps, k, seed=seed).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert Codebook.from_json(text).content_id() == digest

    def test_determinism(self):
        a = generate_certified_codebook(32, 0.5, 6, seed=1)
        b = generate_certified_codebook(32, 0.5, 6, seed=1)
        assert a.to_json() == b.to_json()


def _reads_exhaustive_limit(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "MAX_EXHAUSTIVE_K"
    return (
        isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and node.id == "MAX_EXHAUSTIVE_K"
    )


class TestExhaustiveLimit:
    """``MAX_EXHAUSTIVE_K`` refuses k = 17 at every entry point before any
    codeword weight is enumerated."""

    def test_read_only_by_the_certificate_and_the_draw(self):
        readers, reads = {}, 0
        for path in sorted(Path(codebook_module.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            reads += sum(map(_reads_exhaustive_limit, ast.walk(tree)))
            names = {fn: fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    for fn in cls.body:
                        if fn in names:
                            names[fn] = f"{cls.name}.{fn.name}"
            for fn, name in names.items():
                count = sum(map(_reads_exhaustive_limit, ast.walk(fn)))
                if count:
                    readers[(path.name, name)] = count
        assert set(readers) == {
            ("codebook.py", "BinaryCode._epsilon"),
            ("codebook.py", "generate_code"),
        }
        assert sum(readers.values()) == reads  # none outside those two

    @pytest.fixture()
    def code17(self, monkeypatch):
        def never(self):
            raise AssertionError("weights enumerated beyond the exhaustive limit")

        monkeypatch.setattr(BinaryCode, "nonzero_codeword_weights", never)
        k = codebook_module.MAX_EXHAUSTIVE_K + 1
        assert k == 17
        return BinaryCode(generator=np.eye(k, k + 3, dtype=np.uint8))

    def test_generate_code(self, code17):
        assert generate_code(16, 64, 0).k == 16
        with pytest.raises(InputError):
            generate_code(17, 64, 0)

    def test_codebook(self, code17):
        with pytest.raises(InputError):
            Codebook(code=code17, epsilon_certified=0.0, seed=0, attempts=1)

    def test_codebook_from_json(self, code17):
        payload = {
            "version": 1, "dim": 20, "k": 17, "m": 20, "seed": 0,
            "prng_id": codebook_module.PRNG_ID,
            "generator": [_row_to_hex(row) for row in code17.generator],
            "epsilon_certified": 0.0, "attempts": 1,
        }
        with pytest.raises(InputError):
            Codebook.from_json(json.dumps(payload))

    def test_fingerprint_states(self, code17):
        with pytest.raises(InputError):
            fingerprint_states(code17, 0)

    def test_verify_epsilon(self, code17):
        # a codebook-shaped object that bypassed Codebook's own check
        with pytest.raises(InputError):
            verify_epsilon(SimpleNamespace(code=code17))

    def test_generate_certified_codebook(self, code17):
        with pytest.raises(InputError):
            generate_certified_codebook(64, 1.0, 17, seed=0)


class TestCapacity:
    def test_sizes(self):
        assert capacity(fingerprint_states(BinaryCode(ORTHOGONAL_2x4), 0)) == 2
        assert capacity(fingerprint_states(BinaryCode(PINNED_4x16), 0)) == 4
        cb = generate_certified_codebook(32, 0.5, 6, seed=1)
        assert capacity(cb) == 6 == int(math.log2(cb.size))


class TestJsonRoundTrip:
    def test_byte_identity(self):
        cb = generate_certified_codebook(32, 0.5, 6, seed=1)
        text = cb.to_json()
        again = Codebook.from_json(text)
        assert again.to_json() == text
        assert again.content_id() == cb.content_id()

    def test_states_rederived(self):
        cb = generate_certified_codebook(16, 0.8, 3, seed=9)
        loaded = Codebook.from_json(cb.to_json())
        for i in range(cb.size):
            assert np.array_equal(loaded.state(i).amps, cb.state(i).amps)

    def test_tampered_generator_rejected(self):
        cb = generate_certified_codebook(32, 0.5, 6, seed=1)
        import json as _json

        payload = _json.loads(cb.to_json())
        row = list(payload["generator"][0])
        # flip the last hex digit
        row[-1] = "0" if row[-1] != "0" else "1"
        payload["generator"][0] = "".join(row)
        with pytest.raises((CertificationError, InputError)):
            tampered = Codebook.from_json(_json.dumps(payload))
            # weight-preserving tampering must still fail regeneration
            expected = generate_code(
                tampered.code.k,
                tampered.code.m,
                derive_seed(tampered.seed, tampered.attempts - 1),
            )
            if (expected.generator != tampered.code.generator).any():
                raise CertificationError("generator mismatch")

    def test_malformed_document(self):
        with pytest.raises(InputError):
            Codebook.from_json("{not json")
        with pytest.raises(InputError):
            Codebook.from_json('{"version": 1}')


def dense_codewords(code, messages):
    """Oracle: ``(bits @ G) % 2`` for each big-endian message."""
    k = code.k
    msgs = np.asarray(messages, dtype=np.int64)
    bits = ((msgs[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
    return (bits @ code.generator) % 2


class TestBatchedCodewords:
    """``codewords`` against the dense product, message by message."""

    @pytest.mark.parametrize(
        "k, m",
        [(1, 1), (3, 9), (9, 9), (5, 77), (12, 77), (8, 130), (12, 130), (12, 203)],
    )
    def test_every_message_matches_dense_product(self, k, m):
        code = generate_code(k, m, seed=100 * k + m)
        messages = list(range(2**k))
        words = code.codewords(messages)
        assert words.dtype == np.uint8 and words.shape == (2**k, m)
        assert np.array_equal(words, dense_codewords(code, messages))
        for x in (0, 1, 2**k - 1):
            assert np.array_equal(code.codeword(x), words[x])

    @pytest.mark.parametrize("m", [77, 130, 203])
    def test_sampled_messages_at_k16(self, m):
        code = generate_code(16, m, seed=m)
        messages = np.random.default_rng(m).integers(0, 2**16, size=500)
        assert np.array_equal(
            code.codewords(messages), dense_codewords(code, messages)
        )

    @pytest.mark.parametrize("m", [1, 9, 77, 130, 203])
    def test_k0_code_has_only_the_zero_word(self, m):
        code = BinaryCode(generator=np.zeros((0, m), dtype=np.uint8))
        assert np.array_equal(code.codewords([0, 0]), np.zeros((2, m), dtype=np.uint8))
        with pytest.raises(InputError):
            code.codeword(1)

    def test_empty_batch(self):
        code = generate_code(4, 9, seed=1)
        assert code.codewords([]).shape == (0, 9)

    @pytest.mark.parametrize("message", [-1, 2**6, 2**70, -(2**70)])
    def test_out_of_range_messages_rejected(self, message):
        code = generate_code(6, 32, seed=1)
        with pytest.raises(InputError):
            code.codewords([0, message])
        with pytest.raises(InputError):
            code.codeword(message)


def _row_to_hex(row):
    """One row through the matrix codec's writer."""
    return _rows_to_hex(row[None])[0]


def _hex_to_row(text, m):
    """One row through the matrix codec's reader."""
    return _hex_to_rows([text], m)[0]


def old_row_to_hex(row):
    """The bit-by-bit writer the packed codec replaced."""
    value = 0
    for bit in row:
        value = (value << 1) | int(bit)
    return format(value, f"0{max(1, (row.size + 3) // 4)}x")


def old_hex_to_row(text, m):
    value = int(text, 16)
    return np.array([(value >> (m - 1 - i)) & 1 for i in range(m)], dtype=np.uint8)


class TestHexCodec:
    @pytest.mark.parametrize("m", [1, 4, 8, 9, 32, 77, 130, 203])
    def test_round_trip_matches_bit_loop(self, m):
        rng = np.random.default_rng(m)
        rows = [np.zeros(m, np.uint8), np.ones(m, np.uint8)]
        rows += [rng.integers(0, 2, size=m, dtype=np.uint8) for _ in range(20)]
        for row in rows:
            text = _row_to_hex(row)
            assert text == old_row_to_hex(row)
            assert np.array_equal(_hex_to_row(text, m), old_hex_to_row(text, m))
            assert np.array_equal(_hex_to_row(text, m), row)

    @pytest.mark.parametrize(
        "text, m",
        [
            ("0f6c486c79", 32),  # wide, same value
            ("f6c486c79", 32),  # wide
            ("-6c486c79", 32),  # negative
            ("6c486c7", 32),  # short
            ("6C486C79", 32),  # uppercase
            ("0x486c79", 32),  # prefix
            ("6c48 c79", 32),  # whitespace
            ("6c48_c79", 32),  # underscore
            ("200", 9),  # value 2^9
            ("f", 1),  # value above 2^1
            (12, 8),  # not a string
        ],
    )
    def test_non_canonical_rows_rejected(self, text, m):
        with pytest.raises(InputError):
            _hex_to_row(text, m)


class TestMatrixHexCodec:
    """The whole generator converts in one ``packbits``/``unpackbits`` to the
    rows the per-row codec writes and reads."""

    @pytest.mark.parametrize(
        "k, m", [(0, 5), (1, 1), (3, 4), (5, 9), (2, 12), (7, 77), (16, 130), (4, 4096)]
    )
    def test_matches_rows(self, k, m):
        gen = np.random.default_rng(k * m).integers(0, 2, size=(k, m), dtype=np.uint8)
        gen[0:1] = 1  # an all-ones row, whose leading digit is largest
        texts = _rows_to_hex(gen)
        assert texts == [old_row_to_hex(row) for row in gen]
        assert np.array_equal(_hex_to_rows(texts, m), gen)

    def test_first_bad_row_is_named(self):
        with pytest.raises(InputError, match="'200' exceeds 9 bits"):
            _hex_to_rows(["0ff", "200", "0FF"], 9)
        with pytest.raises(InputError, match="'0FF' is not 3 lowercase"):
            _hex_to_rows(["0ff", "0FF", "200"], 9)


def old_crosscheck_pairs(cb):
    """The pair draws of the per-pair loop the batched check replaced, keyed
    by the seed of the accepted attempt."""
    key = derive_seed(cb.seed, cb.attempts - 1)
    rng = np.random.Generator(
        np.random.Philox(
            np.random.SeedSequence(key, spawn_key=(codebook_module._TAG_CROSSCHECK,))
        )
    )
    pairs = []
    for _ in range(100):
        i = int(rng.integers(0, cb.size))
        j = int(rng.integers(0, cb.size - 1))
        if j >= i:
            j += 1
        pairs.append((i, j))
    return pairs


def record_codewords(monkeypatch, alter=None):
    """Record each ``codewords`` batch; ``alter(call, messages, words)`` may
    return a replacement result."""
    batches = []
    original = BinaryCode.codewords

    def wrapper(self, messages):
        messages = list(messages)
        words = original(self, messages)
        batches.append(messages)
        if alter is not None:
            words = alter(len(batches) - 1, messages, words)
        return words

    monkeypatch.setattr(BinaryCode, "codewords", wrapper)
    return batches


class TestCrosscheck:
    @pytest.mark.parametrize("n, eps, k, seed", [(32, 0.5, 6, 1), (512, 0.4, 12, 4)])
    def test_draws_the_pairs_of_the_per_pair_loop(self, monkeypatch, n, eps, k, seed):
        cb = generate_certified_codebook(n, eps, k, seed)
        batches = record_codewords(monkeypatch)
        _crosscheck_pairs(cb)
        pairs = old_crosscheck_pairs(cb)
        assert batches == [[i for i, _ in pairs], [j for _, j in pairs]]

    @pytest.mark.parametrize("k", range(1, 17))
    def test_one_call_draws_the_pairs_of_the_per_pair_loop_at_every_k(
        self, monkeypatch, k
    ):
        batches = record_codewords(monkeypatch)
        for seed in (k, 1000 + k, 2**40 + k):
            cb = fingerprint_states(generate_code(k, k + 9, seed), seed)
            batches.clear()
            _crosscheck_pairs(cb)
            pairs = old_crosscheck_pairs(cb)
            assert batches == [[i for i, _ in pairs], [j for _, j in pairs]]

    def test_corrupted_codeword_names_its_pair(self, monkeypatch):
        cb = generate_certified_codebook(32, 0.5, 6, seed=1)
        pairs = old_crosscheck_pairs(cb)
        p = 37
        i, j = pairs[p]

        def alias_pair(call, messages, words):
            if call == 0:  # the i side: make word p equal to its partner's
                words = words.copy()
                words[p] = cb.code.codewords([j])[0]
            return words

        record_codewords(monkeypatch, alias_pair)
        named = rf"pair \({i}, {j}\) overlap \S+ exceeds"
        with pytest.raises(NumericalError, match=named):
            _crosscheck_pairs(cb)

    def test_broken_amplitude_violates_identity(self, monkeypatch):
        cb = generate_certified_codebook(32, 0.5, 6, seed=1)
        i, j = old_crosscheck_pairs(cb)[0]
        original = codebook_module._amplitudes
        sides = []

        def flip_first_sign_of_i_side(words):
            amps = original(words)
            if not sides:
                amps[0, 0] = -amps[0, 0]
            sides.append(words)
            return amps

        monkeypatch.setattr(codebook_module, "_amplitudes", flip_first_sign_of_i_side)
        named = rf"identity violated for pair \({i}, {j}\)"
        with pytest.raises(NumericalError, match=named):
            _crosscheck_pairs(cb)


class TestFirstFailingPair:
    """The batched judgement names the pair the per-pair loop named first,
    and a pair failing both checks fails the identity."""

    @pytest.mark.parametrize(
        "aliased, flipped, first, kind",
        [
            ((12, 37), None, 12, "exceeds"),
            ((37,), 12, 12, "identity"),
            ((12,), 37, 12, "exceeds"),
            ((37,), 37, 37, "identity"),
        ],
    )
    def test_named(self, monkeypatch, aliased, flipped, first, kind):
        cb = generate_certified_codebook(32, 0.5, 6, seed=1)
        pairs = old_crosscheck_pairs(cb)
        partners = {p: cb.code.codewords([pairs[p][1]])[0] for p in aliased}

        def alias(call, messages, words):
            if call == 0:  # the i side: each aliased word equals its partner's
                words = words.copy()
                for p, word in partners.items():
                    words[p] = word
            return words

        record_codewords(monkeypatch, alias)
        original = codebook_module._amplitudes
        sides = []

        def flip_one_sign_of_i_side(words):
            amps = original(words)
            if not sides and flipped is not None:
                amps[flipped, 0] = -amps[flipped, 0]
            sides.append(words)
            return amps

        monkeypatch.setattr(codebook_module, "_amplitudes", flip_one_sign_of_i_side)
        i, j = pairs[first]
        value = r"[-0-9.e]+"  # a float's repr, not a numpy scalar's
        if kind == "identity":
            named = (rf"^overlap identity violated for pair \({i}, {j}\): "
                     rf"direct {value} vs predicted {value}$")
        else:
            named = rf"^pair \({i}, {j}\) overlap {value} exceeds certified {value}$"
        with pytest.raises(NumericalError, match=named):
            _crosscheck_pairs(cb)


class TestAttemptSeed:
    """The recorded seed and attempt count give the seed the code was drawn
    with, and that seed keys the cross-check."""

    CODEBOOKS = pytest.mark.parametrize(
        "build, attempts",
        [
            (lambda: generate_certified_codebook(32, 0.5, 6, seed=1), 1),
            (lambda: generate_certified_codebook(64, 0.25, 6, seed=3), 4),
            (lambda: Codebook.from_json(
                generate_certified_codebook(32, 0.5, 6, seed=1).to_json()), 1),
            (lambda: Codebook.from_json(
                generate_certified_codebook(64, 0.25, 6, seed=3).to_json()), 4),
            (lambda: fingerprint_states(generate_code(7, 40, 12), 12), 1),
        ],
        ids=["first-attempt", "fourth-attempt", "first-attempt-loaded",
             "fourth-attempt-loaded", "fingerprint"],
    )

    @CODEBOOKS
    def test_attempt_seed_regenerates_the_generator(self, build, attempts):
        cb = build()
        assert cb.attempts == attempts
        seed = derive_seed(cb.seed, cb.attempts - 1)
        code = generate_code(cb.code.k, cb.code.m, seed)
        assert np.array_equal(code.generator, cb.code.generator)

    @CODEBOOKS
    def test_attempt_seed_keys_the_crosscheck(self, monkeypatch, build, attempts):
        cb = build()
        batches = record_codewords(monkeypatch)
        _crosscheck_pairs(cb)
        pairs = old_crosscheck_pairs(cb)
        assert batches == [[i for i, _ in pairs], [j for _, j in pairs]]


def counting_method(monkeypatch, cls, name, calls):
    original = getattr(cls, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)


class TestNoPerMessageWork:
    """The certificate and the Gram matrix take their codewords in batches."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        counting_method(monkeypatch, BinaryCode, "codewords", calls)
        counting_method(monkeypatch, BinaryCode, "codeword", calls)
        counting_method(monkeypatch, Codebook, "state", calls)
        return calls

    def test_certificate(self, calls):
        cb = generate_certified_codebook(64, 0.75, 5, seed=9)
        assert calls == ["codewords"] * 2
        verify_epsilon(Codebook.from_json(cb.to_json()))
        assert calls == ["codewords"] * 4

    def test_cheat_set_gram(self, monkeypatch, calls):
        # the distances are popcounts of the packed codewords, never
        # unpacked, and cheat sets of any sizes take them in one lookup
        counting_method(monkeypatch, BinaryCode, "_packed_words", calls)
        cb = generate_certified_codebook(32, 0.5, 6, seed=1)
        calls.clear()
        list(protocol2.cheat_set_grams(cb, [[3, 17, 40], [0, 9], [5, 6, 7], [1, 2, 4, 8]]))
        assert calls == ["_packed_words"]


class TestEnumeratedOnce:
    """Each code's weights are enumerated once, whatever certifies it."""

    @pytest.fixture()
    def enumerations(self, monkeypatch):
        calls = []
        counting_method(monkeypatch, BinaryCode, "nonzero_codeword_weights", calls)
        return calls

    def test_cached_on_the_code(self, enumerations):
        code = generate_code(6, 32, seed=1)
        assert code._epsilon == code._epsilon == 0.375
        assert len(enumerations) == 1

    def test_load_then_verify(self, enumerations):
        text = generate_certified_codebook(64, 0.75, 5, seed=9).to_json()
        enumerations.clear()
        loaded = Codebook.from_json(text)
        assert verify_epsilon(loaded) == loaded.epsilon_certified
        assert len(enumerations) == 1

    @pytest.mark.parametrize(
        "n, eps, k, seed, attempts", [(64, 0.25, 6, 3, 4), (32, 0.5, 6, 1, 1)]
    )
    def test_generate_once_per_attempt(self, enumerations, n, eps, k, seed, attempts):
        cb = generate_certified_codebook(n, eps, k, seed)
        assert cb.attempts == attempts
        assert len(enumerations) == attempts
        verify_epsilon(cb)
        assert len(enumerations) == attempts

    def test_generate_exhausted(self, enumerations):
        with pytest.raises(CertificationError):
            generate_certified_codebook(4, 0.01, 3, seed=2)
        assert len(enumerations) == codebook_module.DEFAULT_ATTEMPT_CAP

    @pytest.mark.parametrize("stored", [0.5, float(np.nextafter(0.375, 1.0)), 0.0])
    def test_disagreeing_stored_epsilon_refused_on_load(self, stored):
        payload = json.loads(generate_certified_codebook(32, 0.5, 6, seed=1).to_json())
        payload["epsilon_certified"] = stored
        with pytest.raises(CertificationError) as err:
            Codebook.from_json(json.dumps(payload))
        assert err.value.best_epsilon == 0.375

    def test_verify_returns_enumerated_not_stored(self):
        code = generate_certified_codebook(32, 0.5, 6, seed=1).code
        cb = Codebook(code=code, epsilon_certified=0.9, seed=1, attempts=1)
        assert verify_epsilon(cb) == 0.375


class TestCrosscheckedOnce:
    """Each codebook's pairs are cross-checked once, as it is built or
    loaded; verifying and auditing it repeat no pair."""

    @pytest.fixture()
    def crosschecks(self, monkeypatch):
        calls = []
        original = codebook_module._crosscheck_pairs
        monkeypatch.setattr(
            codebook_module, "_crosscheck_pairs", lambda cb: calls.append(cb) or original(cb)
        )
        return calls

    @pytest.mark.parametrize("n, eps, k, seed", [(32, 0.5, 6, 1), (64, 0.25, 6, 3)])
    def test_generate(self, crosschecks, n, eps, k, seed):
        cb = generate_certified_codebook(n, eps, k, seed)
        assert crosschecks == [cb]

    def test_fingerprint_states(self, crosschecks):
        cb = fingerprint_states(generate_code(7, 40, 12), 12)
        assert crosschecks == [cb]

    def test_load(self, crosschecks):
        text = generate_certified_codebook(64, 0.25, 6, seed=3).to_json()
        crosschecks.clear()
        loaded = Codebook.from_json(text)
        assert crosschecks == [loaded]

    def test_verify_and_audit_repeat_none(self, crosschecks):
        cb = generate_certified_codebook(32, 0.5, 6, seed=1)
        loaded = Codebook.from_json(cb.to_json())
        crosschecks.clear()
        assert verify_epsilon(loaded) == 0.375
        report = harness.bound_sweep([0.2], [2], [1], codebook=loaded, cheat_samples=3)
        assert report.rows[-1]["pass"] is True
        assert crosschecks == []

    def test_failed_pair_check_refuses_the_load(self, monkeypatch):
        text = generate_certified_codebook(32, 0.5, 6, seed=1).to_json()
        original = codebook_module._amplitudes

        sides = []

        def flip_first_sign_of_i_side(words):
            amps = original(words)
            if not sides:
                amps[0, 0] = -amps[0, 0]
            sides.append(words)
            return amps

        monkeypatch.setattr(codebook_module, "_amplitudes", flip_first_sign_of_i_side)
        with pytest.raises(NumericalError, match=r"identity violated for pair"):
            Codebook.from_json(text)
        # a wrong certificate is refused before any pair is checked
        payload = json.loads(text)
        payload["epsilon_certified"] = 0.5
        with pytest.raises(CertificationError):
            Codebook.from_json(json.dumps(payload))


def _calls_crosscheck(node) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_crosscheck_pairs")


class TestConstructorOwnsThePairCheck:
    """``Codebook`` itself cross-checks its pairs and checks its seed and
    attempt count, however it is built."""

    @pytest.fixture()
    def crosschecks(self, monkeypatch):
        calls = []
        original = codebook_module._crosscheck_pairs
        monkeypatch.setattr(
            codebook_module, "_crosscheck_pairs", lambda cb: calls.append(cb) or original(cb)
        )
        return calls

    def test_only_the_constructor_calls_it(self):
        callers, calls = set(), 0
        for path in sorted(Path(codebook_module.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            calls += sum(map(_calls_crosscheck, ast.walk(tree)))
            names = {fn: fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    for fn in cls.body:
                        if fn in names:
                            names[fn] = f"{cls.name}.{fn.name}"
            for fn, name in names.items():
                if any(map(_calls_crosscheck, ast.walk(fn))):
                    callers.add((path.name, name))
        assert callers == {("codebook.py", "Codebook.__post_init__")}
        assert calls == 1

    def test_direct_construction_checks_once(self, crosschecks):
        code = generate_code(6, 32, 1)
        cb = Codebook(code=code, epsilon_certified=code._epsilon, seed=1, attempts=1)
        assert crosschecks == [cb]
        moved = dataclasses.replace(cb, attempts=3)
        assert crosschecks == [cb, moved]

    def test_flipped_sign_refuses_direct_construction(self, monkeypatch):
        code = generate_code(6, 32, 1)
        original = codebook_module._amplitudes
        sides = []

        def flip_first_sign_of_i_side(words):
            amps = original(words)
            if not sides:
                amps[0, 0] = -amps[0, 0]
            sides.append(words)
            return amps

        monkeypatch.setattr(codebook_module, "_amplitudes", flip_first_sign_of_i_side)
        with pytest.raises(NumericalError, match=r"identity violated for pair"):
            Codebook(code=code, epsilon_certified=code._epsilon, seed=1, attempts=1)

    @pytest.mark.parametrize("seed, attempts", [(-1, 1), (0, 0), (3, -2)])
    def test_seed_and_attempts_refused_before_any_pair(self, crosschecks, seed, attempts):
        code = generate_code(6, 32, 1)
        with pytest.raises(InputError, match="seed >= 0 and attempts >= 1"):
            Codebook(code=code, epsilon_certified=code._epsilon, seed=seed, attempts=attempts)
        payload = json.loads(generate_certified_codebook(32, 0.5, 6, seed=1).to_json())
        payload.update(seed=seed, attempts=attempts)
        crosschecks.clear()
        with pytest.raises(InputError, match="seed >= 0 and attempts >= 1"):
            Codebook.from_json(json.dumps(payload))
        assert crosschecks == []


class TestRankedOnce:
    """Each drawn generator is ranked once, by the ``BinaryCode`` it becomes."""

    # (3, 3, 2) and (5, 5, 5) take 6 and 7 draws before a full-rank one
    @pytest.mark.parametrize("k, m, seed", [(3, 3, 2), (5, 5, 5), (6, 32, 1), (16, 1024, 2)])
    def test_one_rank_per_draw(self, monkeypatch, k, m, seed):
        ranks = []
        original = codebook_module.rank_gf2
        monkeypatch.setattr(
            codebook_module, "rank_gf2", lambda mat: ranks.append(1) or original(mat)
        )
        code = generate_code(k, m, seed)
        rng, draws = make_rng(seed), 0
        while True:
            draws += 1
            drawn = rng.integers(0, 2, size=(k, m), dtype=np.uint8)
            if elimination_rank_gf2(drawn) == k:
                break
        assert np.array_equal(code.generator, drawn)
        assert len(ranks) == draws

    def test_rank_deficient_generator_still_refused(self):
        with pytest.raises(InputError, match="full row rank"):
            BinaryCode(generator=np.array([[1, 0, 1], [1, 0, 1]], dtype=np.uint8))


class TestBlockedPairOverlaps:
    """The pair check builds its amplitudes a block of pairs at a time, and
    each overlap is the one-batch ``einsum``'s to the bit."""

    @staticmethod
    def paired_words(code, seed, pairs=100):
        draws = make_rng(seed).integers(0, 2**code.k, size=(2, pairs))
        return code.codewords(draws[0].tolist()), code.codewords(draws[1].tolist())

    @pytest.mark.parametrize(
        "k, m",
        [(1, 1), (3, 7), (7, 7), (5, 9), (9, 9), (10, 1024), (16, 1024),
         (12, 4096), (16, 4096)],
    )
    def test_bit_identical_to_one_batch(self, k, m):
        words_i, words_j = self.paired_words(generate_code(k, m, seed=k * m), seed=m)
        blocked = _pair_overlaps(words_i, words_j)
        expected = one_batch_overlaps(words_i, words_j)
        assert blocked.dtype == expected.dtype == np.float64
        assert blocked.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows, pairs", [(1, 100), (3, 100), (7, 50), (100, 100)])
    def test_bit_identical_at_any_block_size(self, monkeypatch, rows, pairs):
        m = 1024
        monkeypatch.setattr(codebook_module, "_PAIR_BLOCK_BYTES", 8 * m * rows + 5)
        words_i, words_j = self.paired_words(generate_code(16, m, seed=3), 7, pairs)
        blocked = _pair_overlaps(words_i, words_j)
        assert blocked.tobytes() == one_batch_overlaps(words_i, words_j).tobytes()

    @pytest.mark.parametrize("k, m", [(6, 32), (16, 1024), (16, 4096)])
    def test_no_amplitude_block_exceeds_the_budget(self, monkeypatch, k, m):
        cb = fingerprint_states(generate_code(k, m, seed=m), m)
        sides = []

        def spy(words):
            amps = _amplitudes(words)
            sides.append((words.shape[0], amps.nbytes))
            return amps

        monkeypatch.setattr(codebook_module, "_amplitudes", spy)
        _crosscheck_pairs(cb)
        budget = codebook_module._PAIR_BLOCK_BYTES
        assert max(nbytes for _, nbytes in sides) <= budget
        assert sum(rows for rows, _ in sides) == 2 * codebook_module._CROSSCHECK_PAIRS


class TestVectorisedMessages:
    """``_packed_words`` reads its messages at once and looks their
    codewords up byte by byte: byte for byte the packed codewords built
    message by message, and an out-of-range message is named."""

    @pytest.mark.parametrize("k", range(1, 17))
    def test_matches_message_loop(self, k):
        m = (13, 64, 203)[k % 3]
        code = generate_code(k, max(k, m), seed=k)
        draws = make_rng(k).integers(0, 2**k, size=60).tolist()
        messages = [0, 2**k - 1, *draws]
        expected = looped_packed_words(code, messages)
        packed = code._packed_words(messages)
        assert packed.dtype == np.uint8 and packed.tobytes() == expected.tobytes()
        assert code._packed_words(x for x in messages).tobytes() == expected.tobytes()
        assert code._packed_words(np.array(messages)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 6, 16])
    def test_single_message_state(self, k):
        cb = fingerprint_states(generate_code(k, 77, seed=k), k)
        for x in (0, 2**k - 1, 2**k // 3):
            bits = np.unpackbits(looped_packed_words(cb.code, [x]), axis=1, count=77)
            assert cb.state(x).amps.tobytes() == _amplitudes(bits[0]).astype(complex).tobytes()

    def test_messages_beyond_int64_on_a_long_code(self):
        rng = np.random.default_rng(70)
        code = BinaryCode(generator=rng.integers(0, 2, size=(70, 90), dtype=np.uint8))
        messages = [0, 1, 2**63 - 1, 2**63, 2**69 + 12345, 2**70 - 1]
        expected = looped_packed_words(code, messages)
        assert code._packed_words(messages).tobytes() == expected.tobytes()
        with pytest.raises(InputError, match=rf"^message {2**70} out of range for k=70$"):
            code._packed_words([5, 2**70])

    @pytest.mark.parametrize("k", [1, 6, 16])
    def test_out_of_range_message_is_named(self, k):
        code = generate_code(k, 32, seed=1)
        for bad in (-1, 2**k, 2**70, -(2**70)):
            named = rf"^message {bad} out of range for k={k}$"
            with pytest.raises(InputError, match=named):
                code._packed_words([0, 2**k - 1, bad, 1])
            with pytest.raises(InputError, match=named):
                code._packed_words(x for x in (1, bad))
            with pytest.raises(InputError, match=named):
                code.codeword(bad)

    def test_tables_built_once_when_first_needed(self):
        cb = generate_certified_codebook(64, 0.25, 6, seed=3)  # four attempts
        assert cb.attempts == 4
        code = generate_code(6, 64, derive_seed(3, 0))  # a rejected draw
        assert code._epsilon > 0.25 and "_byte_tables" not in vars(code)
        tables = cb.code._byte_tables  # built by the pair check
        assert [t.shape for t in tables] == [(64, 8)]
        cb.state(5)
        cb.code.codewords(range(64))
        assert cb.code._byte_tables is tables

    def test_first_out_of_range_message_is_named(self):
        code = generate_code(6, 32, seed=1)
        with pytest.raises(InputError, match=r"^message 64 out of range"):
            code._packed_words([3, 64, -1, 2**70])


class TestInt16Histogram:
    """The histogram is counted in the transform's dtype and the weights
    formed there before one widening copy; values and int64 dtype are those
    of the int64 path."""

    @pytest.fixture()
    def transform_dtypes(self, monkeypatch):
        dtypes = []
        original = codebook_module._butterflies

        def spy(src, dst, passes, block):
            dtypes.append((src.dtype, dst.dtype))
            return original(src, dst, passes, block)

        monkeypatch.setattr(codebook_module, "_butterflies", spy)
        return dtypes

    @pytest.mark.parametrize(
        "k, m, dtype",
        [(1, 1, np.int16), (5, 8, np.int16), (5, 9, np.int16), (16, 1024, np.int16),
         (16, 1023, np.int16), (11, 4096, np.int16), (16, 32767, np.int16),
         (13, 32766, np.int16), (16, 32768, np.int64), (12, 32769, np.int64)],
    )
    def test_matches_int64_path(self, transform_dtypes, k, m, dtype):
        rng = np.random.default_rng(k * m)
        code = BinaryCode(generator=rng.integers(0, 2, size=(k, m), dtype=np.uint8))
        weights = code.nonzero_codeword_weights()
        expected = int64_butterfly_weights(code)
        assert weights.dtype == expected.dtype == np.int64
        assert weights.shape == (2**k - 1,)
        assert np.array_equal(weights, expected)
        assert transform_dtypes == [(dtype, dtype)] * 2

    @pytest.mark.parametrize("m", [32767, 32768])
    def test_one_bin_near_the_int16_limit(self, m):
        # m - 16 all-ones columns share the top bin next to 16 unit columns
        generator = np.concatenate(
            [np.eye(16, dtype=np.uint8), np.ones((16, m - 16), dtype=np.uint8)], axis=1
        )
        code = BinaryCode(generator=generator)
        assert np.array_equal(code.nonzero_codeword_weights(), int64_butterfly_weights(code))


class TestColumnCounts:
    """Equal generator columns are the code's cached column classes: their
    k-bit values ascending and their counts, in the order ``np.unique``
    gives the columns as bit vectors."""

    @staticmethod
    def unique_count_entropy(generator):
        counts = unique_column_counts(generator)
        m = generator.shape[1]
        return float(np.dot(counts / m, np.log2(m / counts)))

    @STRUCTURED_GENERATORS
    def test_structured_generators(self, k, columns):
        generator = columns_generator(k, columns)
        code = BinaryCode(generator=generator)
        values, counts = code.column_classes
        assert np.array_equal(values, np.unique(columns))
        assert np.array_equal(counts, unique_column_counts(generator))
        entropy = protocol2.code_ensemble_entropy(SimpleNamespace(code=code, dim=code.m))
        assert entropy == self.unique_count_entropy(generator)

    # m = 300 > 2^8 forces repeated columns at k = 8
    @pytest.mark.parametrize(
        "k, m, seed", [(1, 7, 0), (4, 9, 2), (8, 300, 3), (10, 1024, 4), (16, 64, 5)]
    )
    def test_random_codes(self, k, m, seed):
        cb = fingerprint_states(generate_code(k, m, seed), seed)
        generator = cb.code.generator
        assert np.array_equal(cb.code.column_classes[1], unique_column_counts(generator))
        assert protocol2.code_ensemble_entropy(cb) == self.unique_count_entropy(generator)

    def test_one_unique_per_code(self, monkeypatch):
        calls = []
        original = np.unique

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        codes = [generate_code(k, m, seed) for k, m, seed in ((3, 6, 1), (6, 32, 2))]
        for code in codes:
            cb = fingerprint_states(code, 0)  # certified and cross-checked
            loaded = Codebook.from_json(cb.to_json())  # a second code object
            for _ in range(3):
                for book in (cb, loaded):
                    book.code.nonzero_codeword_weights()
                    verify_epsilon(book)
                    protocol2.code_ensemble_entropy(book)
                    protocol2.guess_string_exact(book)
                    protocol2.hiding_bound2(book)
        assert calls == [(6,), (6,), (32,), (32,)]


class TestLengthLimitOnLoad:
    """``Codebook.from_json`` refuses ``m > MAX_GENERATE_M`` before it builds
    any array."""

    def document(self, m):
        """A k = 0 codebook document of length ``m``: no generator rows."""
        return json.dumps({
            "version": 1, "dim": m, "k": 0, "m": m, "seed": 5,
            "prng_id": codebook_module.PRNG_ID, "generator": [],
            "epsilon_certified": 0.0, "attempts": 1,
        })

    @pytest.mark.parametrize("m", [codebook_module.MAX_GENERATE_M + 1, 10**6, 10**9])
    def test_refused_before_enumeration(self, monkeypatch, m):
        def never(self):
            raise AssertionError("weights enumerated for an oversized length")

        monkeypatch.setattr(BinaryCode, "nonzero_codeword_weights", never)
        text = self.document(m)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="codebook.m"):
                Codebook.from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_limit_itself_loads(self):
        m = codebook_module.MAX_GENERATE_M
        assert Codebook.from_json(self.document(m)).dim == m
        text = generate_certified_codebook(m, 1.0, 3, seed=5).to_json()
        assert Codebook.from_json(text).to_json() == text


class TestContentId:
    def test_hashed_once_per_codebook(self, monkeypatch):
        cb = generate_certified_codebook(32, 0.5, 6, seed=1)
        text = cb.to_json()
        calls = []
        counting_method(monkeypatch, Codebook, "to_json", calls)
        assert cb.content_id() == hashlib.sha256(text.encode()).hexdigest()
        assert cb.content_id() == hashlib.sha256(text.encode()).hexdigest()
        assert calls == ["to_json"]


def _builds_generator(node) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in (
        "Generator",
        "default_rng",
    )


class TestMakeRng:
    def test_one_function_builds_every_generator(self):
        builders, calls = set(), 0
        for path in sorted(Path(codebook_module.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            calls += sum(_builds_generator(node) for node in ast.walk(tree))
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    _builds_generator(node) for node in ast.walk(fn)
                ):
                    builders.add((path.name, fn.name))
        assert builders == {("codebook.py", "make_rng")}
        assert calls == 1

    def test_spawn_key_names_a_child_stream(self):
        for key in [(), (0x7E51,), (3, 4)]:
            sequence = np.random.SeedSequence(11, spawn_key=key)
            expected = np.random.Generator(np.random.Philox(sequence)).random(4)
            assert np.array_equal(make_rng(11, *key).random(4), expected)


class TestSettableSurface:
    """The settable surface: every field and parameter pinned here is set by
    a caller outside the tests, so one that is added back has to come with
    an edit here that names its caller."""

    @pytest.mark.parametrize(
        "cls, names",
        [
            (BinaryCode, ["generator"]),
            (linalg.DensityMatrix, ["mat", "labels"]),
            (Codebook, ["code", "epsilon_certified", "seed", "attempts"]),
            (Transcript, ["protocol", "phase", "params", "seeds", "commit",
                          "unveil", "verify", "strategy", "tool"]),
        ],
        ids=["BinaryCode", "DensityMatrix", "Codebook", "Transcript"],
    )
    def test_fields(self, cls, names):
        assert [f.name for f in dataclasses.fields(cls)] == names

    @pytest.mark.parametrize(
        "fn, names",
        [
            (harness.bound_sweep, ["thetas", "ns", "rs", "equality_configs",
                                   "codebook", "cheat_samples", "seed"]),
            (protocol1.smallest_hiding_n, ["theta", "r"]),
            (protocol1.holevo_bound1, ["n", "theta"]),
            (generate_certified_codebook, ["n", "epsilon_target", "k", "seed"]),
        ],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_parameters(self, fn, names):
        assert list(inspect.signature(fn).parameters) == names

    def test_no_stale_limits_or_test_only_helpers(self):
        assert not hasattr(protocol2, "EXACT_HIDING_MAX")
        assert not hasattr(linalg, "eig_hermitian")
