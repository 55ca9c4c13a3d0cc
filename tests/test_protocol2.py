import collections
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qbsc import (
    BinaryCode,
    CheatSet,
    Commitment2,
    InputError,
    binding_bound2,
    capacity,
    cheat_set_for,
    cheat_set_grams,
    code_ensemble_entropy,
    commit2,
    equality_configuration,
    fingerprint_states,
    generate_certified_codebook,
    generate_code,
    hiding_bound2,
    q_operator,
    verify_unveil2,
    von_neumann_entropy,
)
from qbsc import harness, protocol2
from qbsc.linalg import DensityMatrix
from qbsc.codebook import make_rng
from qbsc.errors import NumericalError
from qbsc.protocol2 import index_string, string_index

from oracles import (
    complex_q_operator,
    python_int_cheat_set_gram,
    random_density_matrix,
    rayleigh_quotient_terms,
    square_root_measurement,
)

ORTHOGONAL_2x4 = np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.uint8)


@pytest.fixture(scope="module")
def pinned_codebook():
    return generate_certified_codebook(32, 0.5, 6, seed=1)


@pytest.fixture(scope="module")
def wide_codebook():
    """k = 10 over dim 1024, the size of a certification audit."""
    return generate_certified_codebook(1024, 0.25, 10, seed=11)


@pytest.fixture(scope="module")
def orthogonal_codebook():
    return fingerprint_states(BinaryCode(generator=ORTHOGONAL_2x4), 0)


class TestIndexing:
    def test_big_endian(self):
        assert string_index("000000", 6) == 0
        assert string_index("000001", 6) == 1
        assert string_index("100000", 6) == 32
        assert index_string(32, 6) == "100000"

    def test_rejects_bad_strings(self):
        with pytest.raises(InputError):
            string_index("0a0", 3)
        with pytest.raises(InputError):
            string_index("01", 3)


class TestCommit2:
    def test_all_zeros_is_state_zero(self, pinned_codebook):
        c = commit2("000000", pinned_codebook)
        assert np.array_equal(c.state.amps, pinned_codebook.state(0).amps)

    def test_honest_unveil_accepts_exactly(self, pinned_codebook):
        for bits in ("000000", "101101", "111111"):
            c = commit2(bits, pinned_codebook)
            assert verify_unveil2(c, bits)[0] == 1.0

    def test_distinct_commitments_bounded_by_certificate(self, pinned_codebook):
        eps = pinned_codebook.epsilon_certified
        rng = np.random.default_rng(5)
        for _ in range(50):
            i, j = rng.choice(pinned_codebook.size, size=2, replace=False)
            overlap = np.vdot(
                pinned_codebook.state(int(i)).amps,
                pinned_codebook.state(int(j)).amps,
            ).real
            assert abs(overlap) <= eps + 1e-12

    def test_length_mismatch(self, pinned_codebook):
        with pytest.raises(InputError):
            commit2("0000", pinned_codebook)


class TestVerifyUnveil2:
    def test_wrong_claim_bounded_by_epsilon_squared(self, pinned_codebook):
        eps = pinned_codebook.epsilon_certified
        c = commit2("000000", pinned_codebook)
        for claim in ("000001", "110011", "111111"):
            assert verify_unveil2(c, claim)[0] <= eps**2 + 1e-12

    def test_cheat_state_probabilities_sum_to_top_eigenvalue(self, pinned_codebook):
        s = cheat_set_for(pinned_codebook, (3, 17, 40))
        q = q_operator(pinned_codebook, s)
        w, v = np.linalg.eigh(q.mat)
        top = v[:, -1]
        from qbsc.linalg import Ket

        c = Commitment2(state=Ket(top), codebook=pinned_codebook)
        total = sum(
            verify_unveil2(c, index_string(i, 6))[0] for i in s.indices
        )
        assert total == pytest.approx(float(w[-1]), abs=1e-9)

    def test_sampled_mode_deterministic(self, pinned_codebook):
        c = commit2("101101", pinned_codebook)
        a = verify_unveil2(c, "101100", rng=make_rng(3))
        b = verify_unveil2(c, "101100", rng=make_rng(3))
        assert a == b


class TestCheatSet:
    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            CheatSet(indices=(1, 1, 2))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            CheatSet(indices=())

    def test_rejects_out_of_range(self, pinned_codebook):
        with pytest.raises(InputError):
            cheat_set_for(pinned_codebook, (0, 64))

    def test_rejects_overlap_assumption_violation(self, pinned_codebook):
        # (r-1) * 0.375 >= 1 from r = 4 on
        with pytest.raises(InputError):
            cheat_set_for(pinned_codebook, (0, 1, 2, 3))


class TestQOperator:
    def test_single_projector(self, pinned_codebook):
        q = q_operator(pinned_codebook, CheatSet(indices=(7,)))
        w = np.linalg.eigvalsh(q.mat)
        assert w[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.trace(q.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair(self, orthogonal_codebook):
        q = q_operator(orthogonal_codebook, CheatSet(indices=(1, 2)))
        assert np.linalg.eigvalsh(q.mat)[-1] == pytest.approx(1.0, abs=1e-12)

    def test_trace_counts_states(self, pinned_codebook):
        q = q_operator(pinned_codebook, CheatSet(indices=(0, 9, 33)))
        assert np.trace(q.mat).real == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["pinned_codebook", "wide_codebook"])
    def test_real_and_equal_to_complex_oracle(self, name, request):
        cb = request.getfixturevalue(name)
        rng = np.random.default_rng(5)
        r_max = min(cb.size, math.ceil(1.0 / cb.epsilon_certified))
        for r in (1, 2, r_max):
            s = cheat_set_for(cb, rng.choice(cb.size, size=r, replace=False).tolist())
            q = q_operator(cb, s)
            assert q.mat.dtype == np.float64
            assert q.mat.nbytes == 8 * cb.dim**2
            assert np.abs(q.mat - complex_q_operator(cb, s)).max() <= 1e-15

    def test_all_epsilon_overlaps_gram_eigenvalue(self):
        # Gram (1-e)I + eJ has top eigenvalue 1 + (r-1)e
        kets = equality_configuration(3, 0.1)
        rows = np.stack([k.amps for k in kets])
        lam = np.linalg.eigvalsh(rows.T @ rows.conj())[-1]
        assert lam == pytest.approx(1.2, abs=1e-12)


class TestBindingBound2:
    def test_single_string(self):
        assert binding_bound2(1, 0.9) == 1.0

    def test_value(self):
        assert binding_bound2(5, 0.1) == pytest.approx(1.4, abs=1e-15)

    def test_assumption_violation_rejected(self):
        with pytest.raises(InputError):
            binding_bound2(11, 0.1)

    def test_sampled_cheat_sets_never_violate(self, pinned_codebook):
        eps = pinned_codebook.epsilon_certified
        rng = np.random.default_rng(77)
        for _ in range(1000):
            r = int(rng.integers(2, 4))  # (r-1)*0.375 < 1 up to r = 3
            indices = rng.choice(pinned_codebook.size, size=r, replace=False)
            s = cheat_set_for(pinned_codebook, (int(i) for i in indices))
            lam = np.linalg.eigvalsh(q_operator(pinned_codebook, s).mat)[-1]
            assert lam <= binding_bound2(r, eps) + 1e-9


class TestRayleighTerms:
    def test_single_weight_orthogonal_family(self):
        terms = rayleigh_quotient_terms([1.0, 0.0, 0.0], np.eye(3))
        assert terms.cross == 0.0
        assert terms.chain == 0.0
        assert terms.rayleigh == pytest.approx(1.0, abs=1e-15)

    def test_single_weight_chain_through_neighbours(self):
        # sitting on one state still picks up |G_1j|^2 from the others:
        # direct oracle w'G^2w / w'Gw with w = e_1 gives 1 + 2 * 0.2^2
        gram = np.array([[1.0, 0.2, 0.2], [0.2, 1.0, 0.2], [0.2, 0.2, 1.0]])
        w = np.array([1.0, 0.0, 0.0])
        direct = (w @ gram @ gram @ w) / (w @ gram @ w)
        terms = rayleigh_quotient_terms(w, gram)
        assert terms.cross == pytest.approx(0.0, abs=1e-15)
        assert terms.chain == pytest.approx(0.08, abs=1e-15)
        assert terms.rayleigh == pytest.approx(direct, abs=1e-12)
        assert terms.rayleigh == pytest.approx(1.08, abs=1e-12)

    def test_uniform_weights_at_equal_overlap(self):
        r, eps = 5, 0.15
        gram = (1 - eps) * np.eye(r) + eps * np.ones((r, r))
        w = np.full(r, 1.0 / math.sqrt(r))
        terms = rayleigh_quotient_terms(w, gram)
        assert terms.cross == pytest.approx(eps * (r - 1), abs=1e-12)
        assert terms.chain == pytest.approx((eps * (r - 1)) ** 2, abs=1e-12)
        assert terms.rayleigh == pytest.approx(1 + (r - 1) * eps, abs=1e-12)

    def test_random_weights_below_top_eigenvalue(self, pinned_codebook):
        rng = np.random.default_rng(31)
        s = cheat_set_for(pinned_codebook, (2, 11, 23))
        rows = np.stack([pinned_codebook.state(i).amps for i in s.indices])
        gram = rows @ rows.conj().T
        q = q_operator(pinned_codebook, s)
        lam = np.linalg.eigvalsh(q.mat)[-1]
        for _ in range(50):
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w /= np.linalg.norm(w)
            terms = rayleigh_quotient_terms(w, gram)
            assert terms.rayleigh <= lam + 1e-9

    def test_rejects_non_unit_weights(self):
        with pytest.raises(InputError):
            rayleigh_quotient_terms([1.0, 1.0], np.eye(2))

    def test_rejects_bad_gram(self):
        with pytest.raises(InputError):
            rayleigh_quotient_terms([1.0, 0.0], np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(InputError):
            rayleigh_quotient_terms([1.0, 0.0], np.array([[2.0, 0.0], [0.0, 1.0]]))


class TestEqualityConfiguration:
    def test_orthonormal_at_zero(self):
        kets = equality_configuration(4, 0.0)
        rows = np.stack([k.amps for k in kets])
        assert np.max(np.abs(rows @ rows.conj().T - np.eye(4))) <= 1e-12
        lam = np.linalg.eigvalsh(rows.T @ rows.conj())[-1]
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_three_states(self):
        kets = equality_configuration(3, 0.1)
        rows = np.stack([k.amps for k in kets])
        lam = np.linalg.eigvalsh(rows.T @ rows.conj())[-1]
        assert lam == pytest.approx(1.2, abs=1e-9)

    def test_two_states_large_overlap(self):
        kets = equality_configuration(2, 0.9)
        lam = np.linalg.eigvalsh(
            np.stack([k.amps for k in kets]).T
            @ np.stack([k.amps for k in kets]).conj()
        )[-1]
        assert lam == pytest.approx(1.9, abs=1e-9)

    def test_overlaps_exact(self):
        for r, eps in ((2, 0.3), (5, 0.2), (8, 0.1), (64, 0.9 / 63)):
            kets = equality_configuration(r, eps)
            rows = np.stack([k.amps for k in kets])
            gram = rows @ rows.conj().T
            off = gram - np.eye(r)
            assert np.max(np.abs(off - eps * (np.ones((r, r)) - np.eye(r)))) <= 1e-12

    def test_cap_achieved_across_feasible_range(self):
        # r = 1 at both ends of the overlap range, then each r at 0.9 of its
        # limit and at the edge of feasibility, (r - 1) * eps = 1 - 1e-9
        cases = [(1, 0.0), (1, 1.0)]
        for r in (2, 3, 8, 16, 64):
            cases += [(r, 0.9 / (r - 1)), (r, (1 - 1e-9) / (r - 1))]
        for r, eps in cases:
            kets = equality_configuration(r, eps)
            rows = np.stack([k.amps for k in kets])
            lam = np.linalg.eigvalsh(rows.T @ rows.conj())[-1]
            assert lam == pytest.approx(1 + (r - 1) * eps, abs=1e-9)

    def test_makes_no_eigensolve(self, monkeypatch):
        # the cap is checked where it is reported, not on construction
        def never(*args, **kwargs):
            raise AssertionError("equality_configuration solved a spectrum")

        for name in ("eigvalsh", "eigh", "eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, never)
        for r, eps in ((1, 0.5), (3, 0.1), (64, 0.9 / 63)):
            assert len(equality_configuration(r, eps)) == r

    def test_infeasible_rejected(self):
        with pytest.raises(InputError):
            equality_configuration(3, 0.5)
        with pytest.raises(InputError):
            equality_configuration(2, -0.1)
        with pytest.raises(InputError):
            equality_configuration(1, 5.0)


class TestMixtureArgument:
    def test_arbitrary_states_bounded_by_top_eigenvalue(self, pinned_codebook):
        rng = np.random.default_rng(41)
        for _ in range(25):
            r = int(rng.integers(2, 4))
            indices = rng.choice(pinned_codebook.size, size=r, replace=False)
            s = cheat_set_for(pinned_codebook, (int(i) for i in indices))
            q = q_operator(pinned_codebook, s)
            lam = np.linalg.eigvalsh(q.mat)[-1]
            rho = random_density_matrix(pinned_codebook.dim, rng)
            total = float(np.trace(rho.mat @ q.mat).real)
            assert total <= lam + 1e-9


class TestHiding2:
    def test_log2_of_dimension(self):
        cb = generate_certified_codebook(16, 1.0, 2, seed=3)
        assert hiding_bound2(cb) == 4.0

    def test_single_state_entropy_zero(self):
        code = BinaryCode(generator=np.zeros((0, 8), dtype=np.uint8))
        cb = fingerprint_states(code, 0)
        assert code_ensemble_entropy(cb) == pytest.approx(0.0, abs=1e-12)
        assert hiding_bound2(cb) == 3.0

    def test_pinned_codebook_withholds_at_least_one_bit(self, pinned_codebook):
        bound = hiding_bound2(pinned_codebook)
        exact = code_ensemble_entropy(pinned_codebook)
        assert bound == 5.0
        assert exact <= bound + 1e-9
        assert capacity(pinned_codebook) == 6 > bound

    def test_strict_inequality_when_size_below_dim(self):
        code = BinaryCode(generator=np.array([[1, 1, 0, 0]], dtype=np.uint8))
        cb = fingerprint_states(code, 0)  # two orthogonal states in dim 4
        assert code_ensemble_entropy(cb) == pytest.approx(1.0, abs=1e-12)
        assert hiding_bound2(cb) == 2.0


def columns_codebook(k, columns):
    """Codebook of the code whose generator columns are the given k-bit
    integers, row 0 most significant."""
    columns = np.asarray(columns, dtype=np.int64)
    generator = (columns[None, :] >> np.arange(k - 1, -1, -1)[:, None]) & 1
    return fingerprint_states(BinaryCode(generator=generator.astype(np.uint8)), 0)


class TestGuessStringExact:
    """The receiver's exact whole-string guess ``(sum_a sqrt(t_a))^2 / (2^k
    m)`` is the success of the square-root measurement, which the
    Yuen-Kennedy-Lax conditions certify optimal."""

    @staticmethod
    def assert_matches_optimal_measurement(cb):
        srm = square_root_measurement(cb)
        assert abs(protocol2.guess_string_exact(cb) - srm.success) <= 1e-12
        assert srm.completeness <= 1e-12
        assert srm.asymmetry <= 1e-12
        assert srm.slack >= -1e-12

    @pytest.mark.parametrize(
        "k, m, seed",
        [(1, 3, 0), (1, 9, 1), (2, 7, 2), (3, 12, 3), (4, 20, 4), (5, 40, 5),
         (6, 64, 6), (7, 30, 7), (8, 64, 8)],
    )
    def test_random_codes_with_repeated_columns(self, k, m, seed):
        # the unit columns, then draws from a few values, so columns repeat
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, 2**k, size=max(1, (m - k) // 3))
        cb = columns_codebook(k, np.concatenate([1 << np.arange(k), rng.choice(pool, m - k)]))
        assert cb.code.column_classes[0].size < m
        self.assert_matches_optimal_measurement(cb)
        assert protocol2.guess_string_exact(cb) < m / 2**k

    @pytest.mark.parametrize("m", range(1, 65))
    def test_single_state_is_guessed_surely(self, m):
        # exactly 1, though sqrt(m) squared rounds off m for most m: above
        # it at m = 5, below at m = 3
        cb = columns_codebook(0, [0] * m)
        assert protocol2.guess_string_exact(cb) == 1.0
        self.assert_matches_optimal_measurement(cb)

    def test_one_bit(self):
        # classes of 3 zero and 2 one columns: (sqrt 3 + sqrt 2)^2 / 10
        cb = columns_codebook(1, [0, 1, 0, 1, 0])
        expected = (math.sqrt(3) + math.sqrt(2)) ** 2 / 10
        assert protocol2.guess_string_exact(cb) == pytest.approx(expected, abs=1e-15)
        self.assert_matches_optimal_measurement(cb)

    @pytest.mark.parametrize("k, m, seed", [(2, 4, 0), (5, 17, 1), (6, 64, 2)])
    def test_distinct_columns_reach_dim_over_size(self, k, m, seed):
        units = 1 << np.arange(k)
        others = np.setdiff1d(np.arange(2**k), units)
        rest = np.random.default_rng(seed).choice(others, m - k, replace=False)
        cb = columns_codebook(k, np.concatenate([units, rest]))
        assert cb.code.column_classes[0].size == m
        assert protocol2.guess_string_exact(cb) == m / 2**k
        self.assert_matches_optimal_measurement(cb)

    def test_pinned_codebook(self, pinned_codebook):
        # 26 distinct columns of 32, so below dim / size = 0.5
        assert pinned_codebook.code.column_classes[0].size == 26
        value = protocol2.guess_string_exact(pinned_codebook)
        assert value == 0.39619690184059703
        self.assert_matches_optimal_measurement(pinned_codebook)


def grams_by_size(cb, cheat_sets) -> dict:
    """The stacks :func:`cheat_set_grams` yields, joined by size in order of
    first appearance."""
    joined: dict = {}
    for r, stack in cheat_set_grams(cb, cheat_sets):
        joined.setdefault(r, []).append(stack)
    return {r: np.concatenate(stacks) for r, stacks in joined.items()}


def set_bytes(cb, r: int) -> int:
    """What one set of size ``r`` adds to a batch: int64 indices, packed
    codewords, XOR words and float64 Grams."""
    width = (cb.code.m + 7) // 8
    return 8 * r + r * width + r * r * width + 8 * r * r


def dense_ensemble_entropy(cb):
    """Oracle: entropy of the explicit dim x dim uniform mixture."""
    rows = np.stack([cb.state(i).amps.real for i in range(cb.size)])
    return von_neumann_entropy(DensityMatrix(rows.T @ rows / cb.size))


class TestSmallMatrixSpectra:
    """Gram and closed-form spectra against the dense dim x dim oracles."""

    @pytest.mark.parametrize("name", ["pinned_codebook", "wide_codebook"])
    def test_gram_top_eigenvalue_matches_q_operator(self, name, request):
        cb = request.getfixturevalue(name)
        rng = np.random.default_rng(17)
        r_max = min(cb.size, math.ceil(1.0 / cb.epsilon_certified))
        for r in range(1, r_max + 1):
            s = cheat_set_for(cb, rng.choice(cb.size, size=r, replace=False).tolist())
            gram = grams_by_size(cb, [s.indices])[r][0]
            assert gram.shape == (r, r) and gram.dtype == float
            dense = np.linalg.eigvalsh(q_operator(cb, s).mat)[-1]
            assert abs(np.linalg.eigvalsh(gram)[-1] - dense) <= 1e-12

    def test_gram_entries_are_inner_products(self, pinned_codebook):
        s = cheat_set_for(pinned_codebook, [0, 9, 33])
        gram = grams_by_size(pinned_codebook, [s.indices])[3][0]
        for a, i in enumerate(s.indices):
            for b, j in enumerate(s.indices):
                direct = np.vdot(pinned_codebook.state(i).amps,
                                 pinned_codebook.state(j).amps).real
                assert gram[a, b] == pytest.approx(direct, abs=1e-15)

    @pytest.mark.parametrize(
        "k, m, r, seed", [(1, 1, 2, 0), (6, 32, 5, 1), (7, 77, 40, 2), (12, 1024, 9, 3)]
    )
    @pytest.mark.parametrize("sets", [1, 7])
    @pytest.mark.parametrize("block", ["default", "one-row", "uneven", "few-sets"])
    def test_gram_is_the_python_int_popcount_to_the_byte(
        self, monkeypatch, k, m, r, seed, sets, block
    ):
        cb = fingerprint_states(generate_code(k, m, seed), seed)
        rng = np.random.default_rng(seed)
        indices = np.array([rng.permutation(cb.size)[:r] for _ in range(sets)])
        words = (m + 7) // 8 * r  # packed bytes of one cheat set's codewords
        cap = {"one-row": words + 5, "uneven": 3 * words + 5, "few-sets": 2 * set_bytes(cb, r) + 5}
        if block != "default":
            monkeypatch.setattr(protocol2, "_GRAM_BLOCK_BYTES", cap[block])
        grams = grams_by_size(cb, indices)[r]
        expected = np.stack([python_int_cheat_set_gram(cb, CheatSet(row)) for row in indices])
        assert grams.dtype == expected.dtype and grams.shape == (sets, r, r)
        assert grams.tobytes() == expected.tobytes()

    def test_sets_of_mixed_sizes_are_stacked_by_size(self, monkeypatch):
        # sizes in order of first appearance, sets in order within each size,
        # whole sets per batch or rows of one set, as the byte cap allows
        cb = fingerprint_states(generate_code(7, 77, 2), 2)
        rng = np.random.default_rng(2)
        sets = [rng.permutation(cb.size)[:r] for r in (5, 2, 5, 9, 2, 2, 1)]
        for cap in (None, 5 * 10 * 3, 1):
            if cap is not None:
                monkeypatch.setattr(protocol2, "_GRAM_BLOCK_BYTES", cap)
            grams = grams_by_size(cb, sets)
            assert list(grams) == [5, 2, 9, 1]
            for r, stack in grams.items():
                expected = [python_int_cheat_set_gram(cb, CheatSet(s)) for s in sets if len(s) == r]
                assert stack.tobytes() == np.stack(expected).tobytes()

    @pytest.mark.parametrize("cap", [None, 1 << 12, 1])
    def test_reads_a_stream_once_in_order_in_batches_within_the_cap(self, monkeypatch, cap):
        # a generator of sets is read as the batches go, each batch one
        # lookup that fits the cap or holds one set, and the stacks joined
        # by size are those of the same sets given as a list
        cb = fingerprint_states(generate_code(7, 77, 2), 2)
        rng = np.random.default_rng(5)
        sets = [rng.permutation(cb.size)[: rng.integers(2, 13)] for _ in range(40)]
        expected = grams_by_size(cb, sets)
        if cap is not None:
            monkeypatch.setattr(protocol2, "_GRAM_BLOCK_BYTES", cap)
        read, lookups = [], []
        original = BinaryCode._packed_words
        monkeypatch.setattr(
            BinaryCode, "_packed_words",
            lambda code, messages: lookups.append(len(messages)) or original(code, messages),
        )

        def stream():
            for i, indices in enumerate(sets):
                read.append(i)
                yield indices

        batches: list = []
        for r, stack in cheat_set_grams(cb, stream()):
            if len(batches) < len(lookups):
                batches.append([])
            batches[-1].append((r, stack, len(read)))
        assert read == list(range(len(sets)))
        joined: dict = {}
        done = 0
        for batch, looked_up in zip(batches, lookups, strict=True):
            sizes = [r for r, _, _ in batch]
            assert len(set(sizes)) == len(sizes)
            count = sum(len(stack) for _, stack, _ in batch)
            assert looked_up == sum(r * len(stack) for r, stack, _ in batch)
            held = sum(len(stack) * set_bytes(cb, r) for r, stack, _ in batch)
            assert count == 1 or held <= (cap or protocol2._GRAM_BLOCK_BYTES)
            done += count
            # no set past the one that closed the batch has been read
            assert all(at <= done + 1 for _, _, at in batch)
            for r, stack, _ in batch:
                joined.setdefault(r, []).append(stack)
        assert list(joined) == list(expected)
        for r, stacks in joined.items():
            assert np.concatenate(stacks).tobytes() == expected[r].tobytes()
        assert (len(batches) == 1) == (cap is None)
        assert (len(batches) == len(sets)) == (cap == 1)

    def test_xor_blocks_stay_within_the_cap(self, monkeypatch):
        # whole sets while they fit, then rows of one set, and one row at least
        cb = fingerprint_states(generate_code(7, 77, 2), 2)
        indices = np.array([np.random.default_rng(i).permutation(cb.size)[:9] for i in range(5)])
        width = (77 + 7) // 8
        blocks = []
        original = np.bitwise_count
        monkeypatch.setattr(np, "bitwise_count", lambda x, **out: blocks.append(x.nbytes) or original(x, **out))
        for cap, largest in [(2 * set_bytes(cb, 9), 2 * 81 * width),
                             (81 * width - 1, 8 * 9 * width), (9 * width - 1, 9 * width)]:
            monkeypatch.setattr(protocol2, "_GRAM_BLOCK_BYTES", cap)
            blocks.clear()
            list(cheat_set_grams(cb, indices))
            assert max(blocks) == largest and sum(blocks) == 5 * 81 * width

    def test_gram_rejects_out_of_range_index(self, pinned_codebook):
        for indices in ([[0, 64]], [[0, 5], [-1, 5]]):
            with pytest.raises(InputError):
                list(cheat_set_grams(pinned_codebook, indices))

    @pytest.mark.parametrize(
        "indices",
        [[[3, 17, 3]], [[0, 1], [2, 2]], [[0, 1], [4, 5, 4]], [3, 17], [[]], [[[0, 1]]],
         [[0.0, 1.5]]],
        ids=["duplicate", "duplicate-in-second-set", "duplicate-in-second-size",
             "scalar-sets", "empty-set", "nested-set", "float"],
    )
    def test_gram_rejects_malformed_sets(self, pinned_codebook, indices):
        with pytest.raises(InputError):
            list(cheat_set_grams(pinned_codebook, indices))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int32])
    def test_gram_reads_any_integer_dtype(self, pinned_codebook, dtype):
        indices = np.array([[3, 17, 40], [0, 9, 33]])
        expected = grams_by_size(pinned_codebook, indices)[3]
        grams = grams_by_size(pinned_codebook, indices.astype(dtype))[3]
        assert grams.tobytes() == expected.tobytes()

    def test_gram_of_no_sets_is_empty(self, pinned_codebook):
        assert list(cheat_set_grams(pinned_codebook, [])) == []
        assert list(cheat_set_grams(pinned_codebook, np.empty((0, 3), dtype=np.int64))) == []

    @pytest.mark.parametrize("index", [64, -1])
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda cb, s: list(cheat_set_grams(cb, [s.indices])), id="cheat_set_gram"),
            q_operator,
        ],
    )
    def test_builders_reject_out_of_range_index(self, pinned_codebook, build, index):
        # a directly built CheatSet skips cheat_set_for's range check; the
        # codewords of the code refuse the index
        with pytest.raises(InputError):
            build(pinned_codebook, CheatSet(indices=(0, index)))

    def test_closed_form_entropy_matches_dense_mixture(self, pinned_codebook):
        codebooks = [pinned_codebook]
        for k, m, seed in ((1, 3, 0), (3, 5, 1), (4, 9, 2), (5, 64, 3), (7, 96, 4)):
            codebooks.append(fingerprint_states(generate_code(k, m, seed), seed))
        # repeated and all-zero columns form classes larger than one
        codebooks.append(fingerprint_states(BinaryCode(
            generator=np.array([[1, 1, 0, 0, 1], [0, 0, 1, 0, 1]], dtype=np.uint8),
        ), 0))
        for cb in codebooks:
            assert abs(code_ensemble_entropy(cb) - dense_ensemble_entropy(cb)) <= 1e-10

    def test_entropy_and_hiding_check_beyond_4096_states(self, monkeypatch):
        # 2^13 states over dim 64, more than the 2^12 the check once stopped at
        cb = generate_certified_codebook(64, 1.0, 13, seed=5)
        assert cb.size == 8192
        assert abs(code_ensemble_entropy(cb) - dense_ensemble_entropy(cb)) <= 1e-10
        assert hiding_bound2(cb) == 6.0
        monkeypatch.setattr(protocol2, "code_ensemble_entropy", lambda cb: 6.5)
        with pytest.raises(NumericalError):
            hiding_bound2(cb)


# One bad cheat set per kind of input the one reader refuses, for the
# README's k = 6 codebook of 64 states.  The range needs a codebook, which a
# bare CheatSet does not hold, so it keeps the two range rows (and
# test_builders_reject_out_of_range_index shows the code refusing them).
BAD_SETS = {
    "float-3.0": [3.0],
    "float-3.9": [3.9, 5],
    "numeric-string": ["3"],
    "bool": [True],
    "numpy-bool": [np.True_],
    "negative": [-1],
    "2^k": [64],
    "repeat": [5, 5],
    "empty": [],
    "2-D": [[1, 2]],
    "beyond-int64": [2**63],
}
SHAPE = "cheat set must be a non-empty 1-D sequence of int64 integers"
REFUSAL = {
    "negative": "message -1 out of range for k=6",
    "2^k": "message 64 out of range for k=6",
    "repeat": "cheat set has duplicated indices: [5, 5]",
}
NEEDS_CODEBOOK = ("negative", "2^k")
# two float64 ufunc buffers of np.getbufsize() elements (the reduction into
# the Grams casts through them) and a few KiB of Python objects
UFUNC_BUFFERS = 2 * 8 * np.getbufsize() + (8 << 10)


def set_readers(cb) -> dict:
    """Every reader of a named or a sampled cheat set."""
    return {
        "CheatSet": CheatSet,
        "cheat_set_for": lambda s: cheat_set_for(cb, s),
        "cheat_set_grams": lambda s: list(cheat_set_grams(cb, [s])),
        "cheat_set_grams-stack": lambda s: list(cheat_set_grams(cb, np.array([s]))),
    }


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneIndexReader:
    @pytest.mark.parametrize("name", list(BAD_SETS))
    def test_every_set_reader_refuses_with_one_message(self, pinned_codebook, name):
        messages = set()
        for reader, read in set_readers(pinned_codebook).items():
            for form in (list, np.array):
                bad = form(BAD_SETS[name])
                if reader == "CheatSet" and name in NEEDS_CODEBOOK:
                    assert read(bad).indices == tuple(BAD_SETS[name])
                    continue
                with pytest.raises(InputError) as refused:
                    read(bad)
                messages.add(str(refused.value))
        assert messages == {REFUSAL.get(name, SHAPE)}

    @pytest.mark.parametrize(
        "index", [3.0, 3.9, "3", True, np.True_, -1, 64],
        ids=["3.0", "3.9", "numeric-string", "bool", "numpy-bool", "negative", "2^k"],
    )
    def test_single_index_readers_refuse(self, pinned_codebook, index):
        with pytest.raises(InputError):
            pinned_codebook.code.codewords([index])
        with pytest.raises(InputError):
            pinned_codebook.state(index)

    def test_valid_forms_give_the_same_sets_and_grams(self, pinned_codebook):
        forms = {
            "tuple": lambda: (3, 17, 40),
            "list": lambda: [3, 17, 40],
            "numpy-ints": lambda: [np.int64(3), np.uint8(17), np.int32(40)],
            "int64-array": lambda: np.array([3, 17, 40]),
            "uint16-array": lambda: np.array([3, 17, 40], dtype=np.uint16),
            "generator": lambda: (i for i in (3, 17, 40)),
        }
        expected = python_int_cheat_set_gram(pinned_codebook, CheatSet((3, 17, 40)))
        for name, form in forms.items():
            for s in (CheatSet(form()), cheat_set_for(pinned_codebook, form())):
                assert s.indices == (3, 17, 40) and {type(i) for i in s.indices} == {int}, name
            grams = grams_by_size(pinned_codebook, [form()])[3]
            assert grams.tobytes() == expected.tobytes(), name
        sets = [form() for form in forms.values()]
        assert grams_by_size(pinned_codebook, sets)[3].tobytes() == np.stack([expected] * 6).tobytes()

    def test_one_shot_and_python_sets_count_at_their_size(self, monkeypatch, pinned_codebook):
        # three sets of size 3 do not fit one batch of 2 * set_bytes, whatever their form
        monkeypatch.setattr(protocol2, "_GRAM_BLOCK_BYTES", 2 * set_bytes(pinned_codebook, 3))
        for sets in ([(i for i in (3, 17, 40)), iter([1, 2, 5]), [7, 9, 11]],
                     [{3, 17, 40}, frozenset({1, 2, 5}), {7, 9, 11}]):
            assert [len(stack) for _, stack in cheat_set_grams(pinned_codebook, sets)] == [2, 1]

    def test_cheat_set_for_reads_its_set_once(self, monkeypatch, pinned_codebook):
        reads, read = [], protocol2._cheat_sets
        monkeypatch.setattr(protocol2, "_cheat_sets", lambda *args: reads.append(args) or read(*args))
        assert cheat_set_for(pinned_codebook, [3, 17, 40]).indices == (3, 17, 40)
        assert len(reads) == 1

    def test_each_set_check_and_refusal_is_written_once(self):
        package = Path(protocol2.__file__).parent
        source = "".join(path.read_text() for path in sorted(package.glob("*.py")))
        for written in ("non-empty 1-D sequence", "duplicated indices", "out of range for k=",
                        "indices.ndim != 1", "ordered[:, 1:] == ordered[:, :-1]"):
            assert source.count(written) == 1, written
        text = Path(protocol2.__file__).read_text()
        assert "int(i) for i in" not in text
        # the three readers of cheat sets all go through the one reader,
        # cheat_set_for by way of the CheatSet it returns
        for caller, reads in (("class CheatSet", "_cheat_sets("),
                              ("def cheat_set_for", "CheatSet("),
                              ("def _batch_grams", "_cheat_sets(")):
            body = text.split(caller, 1)[1].split("\ndef ", 1)[0]
            assert reads in body, caller
        assert len(re.findall(r"np\.sort\(", text)) == 1


class TestGramMemory:
    """Traced peaks of the Gram batches against what their budget counts."""

    @pytest.mark.parametrize("k, m, r", [(10, 77, 12), (10, 72, 8), (10, 1024, 8), (6, 32, 3)])
    @pytest.mark.parametrize("budget", [1 << 16, 1 << 20])
    def test_many_small_sets_peak_within_the_budget(self, monkeypatch, k, m, r, budget):
        # sets of one size, so each batch is one stack: the Gram arithmetic,
        # the popcount and the sets themselves would all show beyond it
        cb = fingerprint_states(generate_code(k, m, 1), 1)
        rng = np.random.default_rng(0)
        sets = np.array([rng.choice(cb.size, size=r, replace=False) for _ in range(4000)])
        monkeypatch.setattr(protocol2, "_GRAM_BLOCK_BYTES", budget)
        drain = lambda: collections.deque(cheat_set_grams(cb, sets), maxlen=0)  # noqa: E731
        assert traced_peak(drain) <= budget + UFUNC_BUFFERS

    def test_audit_draws_peak_within_the_budget(self, monkeypatch, wide_codebook):
        budget = 1 << 18
        monkeypatch.setattr(protocol2, "_GRAM_BLOCK_BYTES", budget)
        draws = harness._cheat_set_draws(wide_codebook, 2000, 3, 12)
        peak = traced_peak(lambda: collections.deque(cheat_set_grams(wide_codebook, draws), maxlen=0))
        assert peak <= budget + UFUNC_BUFFERS

    @pytest.mark.parametrize("r", [256, 512])
    def test_an_oversize_set_holds_its_arrays_and_one_row_block(self, r):
        # the epsilon = 0 Reed-Muller code at k = 10, m = 1024: r x r XOR
        # words of 128 bytes are 8 or 32 MiB, far beyond the 1 MiB budget
        columns = np.arange(1024) >> np.arange(9, -1, -1)[:, None] & 1
        cb = fingerprint_states(BinaryCode(columns.astype(np.uint8)), 0)
        indices = np.random.default_rng(r).choice(cb.size, size=r, replace=False)
        width = 1024 // 8
        rows = protocol2._GRAM_BLOCK_BYTES // (r * width)
        counted = r * 8 + r * width + r * r * 8 + rows * r * width
        peak = traced_peak(lambda: collections.deque(cheat_set_grams(cb, [indices]), maxlen=0))
        assert peak <= counted + UFUNC_BUFFERS
