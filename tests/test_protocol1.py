import math

import numpy as np
import pytest

from qbsc import (
    Commitment1,
    InputError,
    Ket,
    SecurityParams,
    binding_bound1,
    commit,
    encode_bit,
    hiding_gap,
    holevo_bound1,
    holevo_power_form,
    identify_all_bound,
    identify_all_bound_raw,
    reveal_operator,
    smallest_hiding_n,
    uniform_commitment_state,
    verify_unveil,
    von_neumann_entropy,
)
from qbsc import adversary, linalg, protocol1
from qbsc.linalg import HermitianOp
from qbsc.codebook import make_rng

from oracles import computational_mixture, projector, random_density_matrix, tensor


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestEncodeBit:
    def test_zero_encoding(self):
        assert np.array_equal(encode_bit(0, 0.7).amps, [1.0, 0.0])

    def test_right_angle_coincides(self):
        one = encode_bit(1, math.pi / 2)
        assert one.amps[0].real == pytest.approx(1.0, abs=1e-15)
        assert one.amps[1].real == pytest.approx(0.0, abs=1e-15)

    def test_small_angle(self):
        one = encode_bit(1, 0.3)
        assert one.amps[0].real == pytest.approx(math.sin(0.3), abs=1e-15)
        assert one.amps[1].real == pytest.approx(math.cos(0.3), abs=1e-15)

    def test_rejects_bad_bit(self):
        with pytest.raises(InputError):
            encode_bit(2, 0.3)


class TestCommit:
    def test_all_zero_string(self):
        c = commit("00", SecurityParams(theta=0.4, n=2))
        for q in c.qubits:
            assert np.array_equal(q.amps, [1.0, 0.0])

    def test_second_qubit_encoding(self):
        c = commit("01", SecurityParams(theta=0.3, n=2))
        assert c.qubits[1].amps[0].real == pytest.approx(math.sin(0.3), abs=1e-15)
        assert c.qubits[1].amps[1].real == pytest.approx(math.cos(0.3), abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            commit("010", SecurityParams(theta=0.3, n=2))

    def test_honest_unveil_accepts_exactly(self):
        for theta in (0.05, 0.1, 0.2, 0.3, 0.7, 1.2):
            for bits in ("0", "1", "0110", "111000111"):
                params = SecurityParams(theta=theta, n=len(bits))
                assert verify_unveil(commit(bits, params), bits)[0] == 1.0


    def test_each_encoding_built_once_per_call(self, monkeypatch):
        from qbsc import protocol1

        calls = []

        def counting(bit, theta):
            calls.append(bit)
            return encode_bit(bit, theta)

        monkeypatch.setattr(protocol1, "encode_bit", counting)
        params = SecurityParams(theta=0.3, n=8)
        commitment = commit("01101001", params)
        assert verify_unveil(commitment, "01100110")[0] == pytest.approx(
            math.sin(0.3) ** 8, rel=1e-12
        )
        assert sorted(calls) == [0, 0, 1, 1]


class TestVerifyUnveil:
    def test_flipped_bits_multiply_sin_squared(self):
        theta = 0.1
        params = SecurityParams(theta=theta, n=4)
        c = commit("1010", params)
        one_flip, _ = verify_unveil(c, "1011")
        assert one_flip == pytest.approx(math.sin(theta) ** 2, rel=1e-12)
        two_flips, _ = verify_unveil(c, "0011")
        assert two_flips == pytest.approx(math.sin(theta) ** 4, rel=1e-12)

    def test_flip_value_at_theta_01(self):
        params = SecurityParams(theta=0.1, n=1)
        assert verify_unveil(commit("0", params), "1")[0] == pytest.approx(
            0.009966711079379185, rel=1e-12
        )

    def test_top_eigenvector_accepts_either_value(self):
        theta = 0.2
        w = np.linalg.eigh(reveal_operator(theta).mat)[1][:, -1]
        state = Ket(w)
        params = SecurityParams(theta=theta, n=1)
        c = Commitment1(qubits=(state,), params=params)
        expected = (1.0 + math.sin(theta)) / 2.0
        assert verify_unveil(c, "0")[0] == pytest.approx(expected, rel=1e-12)
        assert verify_unveil(c, "1")[0] == pytest.approx(expected, rel=1e-12)

    def test_sampled_mode_deterministic(self):
        params = SecurityParams(theta=0.1, n=6)
        c = commit("101010", params)
        a = verify_unveil(c, "101011", rng=make_rng(11))
        b = verify_unveil(c, "101011", rng=make_rng(11))
        assert a == b

    def test_verdict_only_with_an_rng(self):
        c = commit("10", SecurityParams(theta=0.1, n=2))
        assert verify_unveil(c, "10") == (1.0, None)
        assert verify_unveil(c, "10", rng=make_rng(11)) == (1.0, True)

    def test_sampled_draws_stop_at_the_first_rejection(self):
        # the first claimed bit is orthogonal to its qubit, so one draw decides
        zero = encode_bit(0, 0.1)
        c = Commitment1(
            qubits=(Ket(np.array([0.0, 1.0])), zero, zero),
            params=SecurityParams(theta=0.1, n=3),
        )
        rng = make_rng(11)
        assert verify_unveil(c, "000", rng=rng) == (0.0, False)
        reference = make_rng(11)
        reference.random()
        assert rng.random() == reference.random()

    def test_length_mismatch(self):
        params = SecurityParams(theta=0.1, n=2)
        with pytest.raises(InputError):
            verify_unveil(commit("01", params), "011")


class TestBindingBound:
    def test_small_angle_limit(self):
        assert binding_bound1(1e-12) == pytest.approx(1.0, abs=1e-11)

    def test_value(self):
        assert binding_bound1(0.1) == pytest.approx(1.0 + math.sin(0.1), abs=1e-12)

    def test_matches_spectral_oracle_on_grid(self):
        rng = np.random.default_rng(2024)
        for theta in rng.uniform(1e-4, math.pi / 2 - 1e-4, size=50):
            value = binding_bound1(theta)
            lam = float(np.linalg.eigvalsh(reveal_operator(theta).mat)[-1])
            assert abs(value - lam) <= 1e-9

    def test_closed_form_builds_no_operator(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the closed form builds no operator")

        for name in ("reveal_operator", "top_reveal_eigenvalue"):
            monkeypatch.setattr(protocol1, name, never)
        monkeypatch.setattr(HermitianOp, "__post_init__", never)
        monkeypatch.setattr(np.linalg, "eigvalsh", never)
        monkeypatch.setattr(np.linalg, "eigh", never)
        for theta in (0.0, 1e-6, 0.1, 0.7, math.pi / 2):
            assert abs(binding_bound1(theta) - (1.0 + math.sin(theta))) <= 1e-12

    def test_reveal_operator_is_one_build(self, monkeypatch):
        built = []
        original = HermitianOp.__post_init__

        def counted(op):
            built.append(op)
            original(op)

        monkeypatch.setattr(HermitianOp, "__post_init__", counted)
        op = reveal_operator(0.3)
        assert len(built) == 1 and built[0] is op

    def test_reveal_operator_matches_the_projector_sum(self):
        # the slow path it replaced: two projectors built, then summed
        rng = np.random.default_rng(11)
        for theta in (0.0, math.pi / 2, *rng.uniform(0.0, math.pi / 2, size=200)):
            op = reveal_operator(theta)
            e0, e1 = encode_bit(0, theta), encode_bit(1, theta)
            slow = HermitianOp(projector(e0).mat + projector(e1).mat)
            assert op.mat.dtype == slow.mat.dtype
            assert np.array_equal(op.mat, slow.mat)
            fast_top = adversary.top_eigenvector_strategy(op)
            slow_top = adversary.top_eigenvector_strategy(slow)
            assert np.array_equal(fast_top.state.amps, slow_top.state.amps)
            assert fast_top.achieved == slow_top.achieved

    def test_random_states_never_beat_the_cap(self):
        rng = np.random.default_rng(99)
        for theta in (0.1, 0.3):
            cap = 1.0 + math.sin(theta)
            psi0 = encode_bit(0, theta).amps
            psi1 = encode_bit(1, theta).amps
            for _ in range(1000):
                rho = random_density_matrix(2, rng).mat
                total = float(
                    np.vdot(psi0, rho @ psi0).real + np.vdot(psi1, rho @ psi1).real
                )
                assert total <= cap + 1e-9

    def test_top_eigenvector_achieves_the_cap(self):
        for theta in (0.1, 0.3):
            op = reveal_operator(theta)
            w = np.linalg.eigh(op.mat)[1][:, -1]
            total = float(np.vdot(w, op.mat @ w).real)
            assert total == pytest.approx(1.0 + math.sin(theta), abs=1e-9)


def pair_rotation(n):
    """Q = U^(x p) (x I_2 for odd n): the orthogonal map from the
    computational basis to the pair basis of the mixture."""
    r = math.sqrt(0.5)
    u = np.array([[1, 0, 0, 0], [0, r, r, 0], [0, 0, 0, 1], [0, r, -r, 0]])
    q = np.eye(2 ** (n % 2))
    for _ in range(n // 2):
        q = np.kron(u, q)
    return q


class TestUniformCommitmentState:
    def test_matches_explicit_mixture(self):
        # oracle: explicit tensor products of the encodings, big-endian,
        # rotated into the pair basis
        theta = 0.3
        for n in (3, 4):
            rho = uniform_commitment_state(n, theta)
            mix = np.zeros((2**n, 2**n), dtype=complex)
            for idx in range(2**n):
                bits = format(idx, f"0{n}b")
                state = encode_bit(int(bits[0]), theta)
                for b in bits[1:]:
                    state = tensor(state, encode_bit(int(b), theta))
                mix += projector(state).mat / 2**n
            q = pair_rotation(n)
            assert np.max(np.abs(q @ mix @ q.T - rho.mat)) <= 1e-12

    @pytest.mark.parametrize("theta", [0.05, 0.3, 1.2])
    def test_matches_column_product_build(self, theta):
        # oracle: the columns of the n-fold Kronecker power of
        # [encode(0) encode(1)] are all product states; mixture = C C^T / 2^n
        single = np.stack(
            [encode_bit(0, theta).amps.real, encode_bit(1, theta).amps.real], axis=1
        )
        columns = np.array([[1.0]])
        for n in range(1, 9):
            columns = np.kron(columns, single)
            rho = uniform_commitment_state(n, theta)
            assert rho.mat.dtype == np.float64
            q = pair_rotation(n)
            assert np.max(np.abs(rho.mat - q @ columns @ columns.T @ q.T / 2**n)) <= 1e-12

    def test_dense_matrix_is_the_kron_power_to_the_bit(self):
        # the pair factor is the n = 2 mixture, the unpaired qubit's the n = 1
        single = uniform_commitment_state(1, 0.3).mat
        pair = uniform_commitment_state(2, 0.3).mat
        for n in range(1, 11):
            # built from the right, as the library builds it
            power = np.ones((1, 1))
            for factor in [single] * (n % 2) + [pair] * (n // 2):
                power = np.kron(factor, power)
            assert np.array_equal(uniform_commitment_state(n, 0.3).mat, power)

    @pytest.mark.parametrize("theta", [0.05, 0.3, 1.2, math.pi / 2 - 1e-3])
    def test_block_spectrum_matches_the_full_solve(self, theta):
        for n in range(1, 11):
            rho = uniform_commitment_state(n, theta)
            full = computational_mixture(n, theta)
            assert np.max(np.abs(rho.spectrum - full.spectrum)) <= 1e-14
            assert abs(von_neumann_entropy(rho) - von_neumann_entropy(full)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 11))
    def test_solved_on_the_blocks_of_the_pair_swaps(self, monkeypatch, n):
        sizes = []
        solve = linalg._eigvalsh
        monkeypatch.setattr(
            linalg, "_eigvalsh", lambda mat: sizes.append(mat.shape[0]) or solve(mat)
        )
        rho = uniform_commitment_state(n, 0.3)
        # one block per set of pairs (2i, 2i + 1) in their antisymmetric
        # state, which is pair digit 3 (binary 11) of a basis index
        p = n // 2
        antisymmetric = [
            tuple(format(x, f"0{n}b")[2 * i : 2 * i + 2] == "11" for i in range(p))
            for x in range(2**n)
        ]
        partition = set(zip(rho.labels.tolist(), antisymmetric))
        assert len(partition) == len(set(rho.labels.tolist())) == 2**p
        # blocks with the same number of antisymmetric pairs are equal, so
        # one block of each size 3^q * 2^(n % 2) is solved
        assert sorted(sizes) == [3**q * 2 ** (n % 2) for q in range(p + 1)]
        if n == 10:
            assert sizes == [243, 81, 27, 9, 3, 1]

    def test_dense_matrix_is_not_copied(self, monkeypatch):
        built = []
        build = protocol1._pair_basis_mixture

        def spy(n, theta):
            built.append(build(n, theta))
            return built[-1]

        monkeypatch.setattr(protocol1, "_pair_basis_mixture", spy)
        rho = uniform_commitment_state(10, 0.3)
        assert np.shares_memory(rho.mat, built[0][0])

    def test_trace_one(self):
        rho = uniform_commitment_state(4, 0.2)
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-10)

    def test_size_guard(self):
        with pytest.raises(InputError):
            uniform_commitment_state(13, 0.2)


class TestHolevoBound:
    def test_orthogonal_limit_gives_n_bits(self):
        assert holevo_bound1(5, 1e-9) == pytest.approx(5.0, abs=1e-12)

    def test_coinciding_encodings_give_zero(self):
        assert holevo_bound1(5, math.pi / 2) == 0.0

    def test_n8_matches_brute_force(self):
        theta = 0.2
        value = holevo_bound1(8, theta)
        assert value == pytest.approx(8 * h2((1 + math.sin(theta)) / 2), abs=1e-12)
        brute = von_neumann_entropy(uniform_commitment_state(8, theta))
        assert abs(brute - value) <= 1e-8

    def test_strictly_decreasing_in_theta(self):
        grid = np.linspace(0.05, math.pi / 2 - 0.05, 30)
        values = [holevo_bound1(6, t) for t in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_power_form_reported(self):
        theta = 0.2
        assert holevo_power_form(3, theta) == pytest.approx(
            h2((1 + math.sin(theta)) / 2) ** 3, abs=1e-15
        )


class TestHidingGap:
    def test_coinciding_encodings(self):
        assert hiding_gap(7, math.pi / 2) == 7.0

    def test_value_at_n8(self):
        theta = 0.2
        expected = 8 - 8 * h2((1 + math.sin(theta)) / 2)
        assert hiding_gap(8, theta) == pytest.approx(expected, abs=1e-12)

    def test_smallest_n_matches_scalar_crossing(self):
        # exact per-bit deficit 1 - h2((1+sin 0.2)/2) = 0.0286615...; the
        # crossing for r = 2 sits at 69.78, so the smallest n is 70 (a
        # 4-digit rounding of the entropy would misplace it at 71)
        theta, r = 0.2, 2
        deficit = 1.0 - h2((1 + math.sin(theta)) / 2)
        assert smallest_hiding_n(theta, r) == math.ceil(r / deficit) == 70
        assert hiding_gap(70, theta) > 2 >= hiding_gap(69, theta)

    def test_no_gap_at_zero_angle(self):
        with pytest.raises(InputError):
            smallest_hiding_n(0.0, 1)


class TestIdentifyAllBound:
    def test_coinciding_encodings_bound_zero(self):
        assert identify_all_bound(4, math.pi / 2, 3) == 0.0

    def test_value_against_log_domain_recomputation(self):
        n, theta, r = 500, 0.2, 10
        value = identify_all_bound(n, theta, r)
        h = h2((1 + math.sin(theta)) / 2)
        independent = math.exp(r * math.log(2) + n * math.log(h))
        assert abs(value - independent) / independent < 0.01

    def test_vacuous_regime_clamped(self):
        raw = identify_all_bound_raw(100, 0.2, 10)
        assert raw > 1.0
        assert identify_all_bound(100, 0.2, 10) == 1.0

    def test_r_limit_is_the_largest_finite_power_of_two(self):
        assert identify_all_bound_raw(2, 0.2, 1023) > 1.0
        with pytest.raises(InputError, match="1023"):
            identify_all_bound_raw(2, 0.2, 1024)
