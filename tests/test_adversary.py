import math
import sys

import numpy as np
import pytest

from qbsc import (
    CheatStrategy,
    InputError,
    Ket,
    SecurityParams,
    binding_bound1,
    encode_bit,
    equality_configuration,
    generate_certified_codebook,
    guess_all_oracle,
    projector,
    reveal_operator,
    run_cheat_session,
    top_eigenvector_strategy,
)
from qbsc import linalg
from qbsc.linalg import HermitianOp
from qbsc.protocol2 import index_string

from oracles import (
    eig_hermitian,
    enumerated_guess_all,
    helstrom_two_state,
    random_ket,
)


@pytest.fixture(scope="module")
def pinned_codebook():
    return generate_certified_codebook(32, 0.5, 6, seed=1)


class TestOptimalCheatState:
    def test_single_projector(self):
        rng = np.random.default_rng(1)
        v = random_ket(4, rng)
        strategy = top_eigenvector_strategy(projector(v))
        state, lam = strategy.state, strategy.achieved
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(state.amps, v.amps)) == pytest.approx(1.0, abs=1e-9)

    def test_two_encoding_projectors(self):
        theta = 0.2
        strategy = top_eigenvector_strategy(reveal_operator(theta))
        state, lam = strategy.state, strategy.achieved
        assert lam == pytest.approx(1.0 + math.sin(theta), abs=1e-12)
        bisector = encode_bit(0, theta).amps + encode_bit(1, theta).amps
        bisector = bisector / np.linalg.norm(bisector)
        assert abs(np.vdot(state.amps, bisector)) == pytest.approx(1.0, abs=1e-9)

    def test_equal_overlap_configuration_sum_vector(self):
        kets = equality_configuration(3, 0.1)
        rows = np.stack([k.amps for k in kets])
        q = HermitianOp(rows.T @ rows.conj())
        strategy = top_eigenvector_strategy(q)
        state, lam = strategy.state, strategy.achieved
        assert lam == pytest.approx(1.2, abs=1e-9)
        total = rows.sum(axis=0)
        total = total / np.linalg.norm(total)
        assert abs(np.vdot(state.amps, total)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_matches_last_eigenpair(self, complex_entries):
        rng = np.random.default_rng(11 + complex_entries)
        for dim in range(2, 65):
            g = rng.standard_normal((dim, dim))
            if complex_entries:
                g = g + 1j * rng.standard_normal((dim, dim))
            op = HermitianOp((g + g.conj().T) / 2)
            strategy = top_eigenvector_strategy(op)
            state, lam = strategy.state, strategy.achieved
            eigenvalues, eigenvectors = eig_hermitian(op)
            assert state.amps.tobytes() == eigenvectors[-1].amps.tobytes()
            assert lam == float(eigenvalues[-1])

    def test_strategy_invariant_enforced(self):
        theta = 0.3
        strategy = top_eigenvector_strategy(
            reveal_operator(theta), bound=binding_bound1(theta)
        )
        assert strategy.achieved <= binding_bound1(theta) + 1e-9


class TestHelstrom:
    def test_orthogonal_states(self):
        a = Ket(np.array([1.0, 0.0]))
        b = Ket(np.array([0.0, 1.0]))
        assert helstrom_two_state(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states(self):
        a = Ket(np.array([1.0, 0.0]))
        assert helstrom_two_state(a, a, prior=0.7) == pytest.approx(0.7, abs=1e-12)
        assert helstrom_two_state(a, a, prior=0.2) == pytest.approx(0.8, abs=1e-12)

    def test_encodings_at_theta(self):
        theta = 0.2
        value = helstrom_two_state(encode_bit(0, theta), encode_bit(1, theta))
        # closed form sqrt(1 - sin^2 t) = cos t at equal priors
        assert value == pytest.approx((1 + math.cos(theta)) / 2, abs=1e-12)

    def test_matches_overlap_formula_for_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_ket(3, rng)
            b = random_ket(3, rng)
            overlap = abs(np.vdot(a.amps, b.amps)) ** 2
            expected = 0.5 * (1 + math.sqrt(1 - overlap))
            assert helstrom_two_state(a, b) == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            helstrom_two_state(Ket(np.array([1.0, 0])), Ket(np.array([1.0, 0, 0])))


class TestGuessAll:
    def test_coinciding_encodings_blind_guessing(self):
        for n in (1, 2, 3):
            assert guess_all_oracle(n, math.pi / 2) == pytest.approx(
                0.5**n, abs=1e-12
            )

    def test_single_bit_equals_helstrom(self):
        for theta in (0.05, 0.2, 0.7, 1.2, 1.5):
            assert guess_all_oracle(1, theta) == pytest.approx(
                helstrom_two_state(encode_bit(0, theta), encode_bit(1, theta)),
                abs=1e-12,
            )
        assert guess_all_oracle(1, 0.2) == pytest.approx(0.9900332889206208, abs=1e-12)

    def test_hundred_bits(self):
        value = guess_all_oracle(100, 0.2)
        assert value == pytest.approx(((1 + math.cos(0.2)) / 2) ** 100, rel=1e-12)
        assert value == pytest.approx(0.36726518216478743, rel=1e-9)

    def test_brute_force_enumeration_agrees(self):
        for n in (1, 2, 3, 4):
            for theta in (0.1, 0.4, 1.0):
                brute = enumerated_guess_all(n, theta)
                assert abs(brute - guess_all_oracle(n, theta)) <= 1e-12
                assert abs(brute - ((1 + math.cos(theta)) / 2) ** n) <= 1e-12

    def test_closed_form_builds_no_measurement(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the closed form builds no operator")

        # every qbsc module that holds its own reference to either function
        for name in ("_eigh", "projector"):
            original = getattr(linalg, name)
            for module_name, module in list(sys.modules.items()):
                held = getattr(module, name, None)
                if module_name.startswith("qbsc") and held is original:
                    monkeypatch.setattr(module, name, never)
        for n in (1, 2, 3, 4):
            for theta in (0.1, 0.4, 1.0):
                assert guess_all_oracle(n, theta) == ((1 + math.cos(theta)) / 2) ** n

    def test_below_threshold_implies_informative_bound(self):
        # one-way consistency: whenever the exact oracle sits below 2^-r,
        # the entropy-based all-bits figure is informative (< 1).  The
        # converse fails in the crossover band where the exact per-bit
        # value exceeds the entropy figure.
        from qbsc import identify_all_bound_raw

        for theta in (0.05, 0.1, 0.2, 0.4):
            for n in (10, 50, 200, 500, 1000):
                for r in (2, 10):
                    if guess_all_oracle(n, theta) < 2.0**-r:
                        assert identify_all_bound_raw(n, theta, r) < 1.0


class TestCheatSessions:
    def test_honest_state_accepts(self):
        params = SecurityParams(theta=0.2, n=4)
        strategy = CheatStrategy(kind="custom-state", state=encode_bit(0, 0.2))
        t = run_cheat_session(1, strategy, "0000", seed=5, params=params)
        assert t.verify["accept_probability"] == 1.0
        assert t.verify["verdict"] is True

    def test_top_eigenvector_per_qubit(self):
        theta = 0.2
        n = 6
        params = SecurityParams(theta=theta, n=n)
        strategy = top_eigenvector_strategy(
            reveal_operator(theta), bound=binding_bound1(theta)
        )
        t = run_cheat_session(1, strategy, "0" * n, seed=5, params=params)
        per_bit = (1 + math.sin(theta)) / 2
        assert per_bit == pytest.approx(0.5993346653975306, abs=1e-12)
        assert t.verify["accept_probability"] == pytest.approx(
            per_bit**n, rel=1e-10
        )

    def test_codebook_cheat_sums_to_top_eigenvalue(self, pinned_codebook):
        from qbsc.protocol2 import cheat_set_for, q_operator

        s = cheat_set_for(pinned_codebook, (4, 19, 51))
        q = q_operator(pinned_codebook, s)
        strategy = top_eigenvector_strategy(q)
        total = 0.0
        for i in s.indices:
            t = run_cheat_session(
                2,
                strategy,
                index_string(i, 6),
                seed=9,
                codebook=pinned_codebook,
            )
            total += t.verify["accept_probability"]
        assert total == pytest.approx(strategy.achieved, abs=1e-9)

    def test_transcripts_replay_identically(self, pinned_codebook):
        strategy = top_eigenvector_strategy(reveal_operator(0.3))
        params = SecurityParams(theta=0.3, n=3)
        a = run_cheat_session(1, strategy, "010", seed=21, params=params)
        b = run_cheat_session(1, strategy, "010", seed=21, params=params)
        assert a.to_json() == b.to_json()

    def test_sampled_frequency_tracks_exact_probability(self):
        theta = 0.2
        params = SecurityParams(theta=theta, n=1)
        strategy = top_eigenvector_strategy(reveal_operator(theta))
        p = (1 + math.sin(theta)) / 2
        trials = 10**4
        hits = 0
        for seed in range(trials):
            t = run_cheat_session(1, strategy, "0", seed=seed, params=params)
            hits += 1 if t.verify["verdict"] else 0
        freq = hits / trials
        assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / trials)

    def test_strategy_kind_validated(self):
        with pytest.raises(InputError):
            CheatStrategy(kind="blended", state=encode_bit(0, 0.1))

    def test_dimension_checked(self, pinned_codebook):
        params = SecurityParams(theta=0.2, n=2)
        strategy = CheatStrategy(kind="custom-state", state=pinned_codebook.state(0))
        with pytest.raises(InputError):
            run_cheat_session(1, strategy, "00", seed=1, params=params)
