import ast
import dataclasses
import functools
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qbsc import InputError, protocol1, uniform_commitment_state, von_neumann_entropy
from qbsc import adversary, harness, protocol2
from qbsc.cli import main
from qbsc.codebook import (
    BinaryCode,
    Codebook,
    fingerprint_states,
    generate_certified_codebook,
    generate_code,
    make_rng,
)
from qbsc.harness import bound_sweep, commit_session, unveil_session, verify_session
from qbsc.linalg import DensityMatrix
from qbsc.transcript import Transcript

from oracles import computational_mixture, per_sample_cheat_set_row


def counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((name, args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


class TestProtocol1Sweep:
    @pytest.mark.parametrize("rs", [(2,), (1, 2, 10)])
    def test_one_mixture_per_theta_and_n(self, monkeypatch, rs):
        calls = []
        counting(monkeypatch, protocol1, "uniform_commitment_state", calls)
        counting(monkeypatch, protocol1, "binding_bound1", calls)
        counting(monkeypatch, harness, "von_neumann_entropy", calls)
        thetas, ns = (0.1, 0.3), (2, 5, 20)
        report = bound_sweep(thetas, ns, rs)
        assert len(report.rows) == len(thetas) * len(ns) * len(rs)
        builds = [args for name, args in calls if name == "uniform_commitment_state"]
        assert sorted(builds) == sorted(
            (n, theta) for theta in thetas for n in ns if n <= 12
        )
        assert sum(name == "von_neumann_entropy" for name, _ in calls) == len(builds)
        bounds = [args for name, args in calls if name == "binding_bound1"]
        assert bounds == [(theta,) for theta in thetas]

    def test_one_reveal_solve_per_theta(self, monkeypatch):
        calls = []
        counting(monkeypatch, protocol1, "top_reveal_eigenvalue", calls)
        thetas = (0.1, 0.2, 0.3)
        bound_sweep(thetas, (2, 4), (1, 2))
        assert calls == [("top_reveal_eigenvalue", (theta,)) for theta in thetas]

    def test_rows_carry_the_dense_mixture_entropy(self):
        report = bound_sweep((0.05, 0.4), (1, 4, 9, 13), (1, 3))
        for row in report.rows:
            if row["n"] > 12:
                assert row["holevo_brute_bits"] is None
                continue
            dense = von_neumann_entropy(uniform_commitment_state(row["n"], row["theta"]))
            assert row["holevo_brute_bits"] == dense
            assert abs(dense - row["holevo_bits"]) <= 1e-8
            assert row["binding_rhs"] == protocol1.binding_bound1(row["theta"])
            assert row["binding_lambda_max"] == protocol1.top_reveal_eigenvalue(
                row["theta"]
            )
        assert report.summary["sound_pass"] is True
        assert math.isfinite(report.summary["max_sound_violation"])


class TestProtocol1RowGates:
    """Each protocol-1 comparison is gated once, in the row, at its own
    tolerance: 1e-12 identity, 1e-9 spectral and 1e-8 Holevo."""

    @pytest.mark.parametrize(
        "module, name, below, above",
        [
            (protocol1, "binding_bound1", 5e-13, 1e-11),
            (protocol1, "top_reveal_eigenvalue", 5e-10, 2e-9),
            (harness, "von_neumann_entropy", 5e-9, 2e-8),
        ],
        ids=["identity", "spectral", "holevo"],
    )
    def test_gap_above_its_tolerance_fails_the_row(
        self, monkeypatch, tmp_path, module, name, below, above
    ):
        original = getattr(module, name)
        for shift, verdict in ((below, True), (above, False)):
            monkeypatch.setattr(module, name, lambda x, s=shift: original(x) + s)
            report = bound_sweep((0.1, 0.3), (2, 4), (1,))
            assert [row["pass"] for row in report.rows] == [verdict] * 4
            assert report.summary["sound_pass"] is verdict
            code = main(["bounds", "--theta", "0.2", "--n", "3", "--r", "1",
                         "--out", str(tmp_path / "report")])
            assert code == (0 if verdict else 5)


class TestListCapGate:
    """Every protocol-1 row gates the exact all-bits value against the
    min-entropy list cap at SOUND_TOL."""

    def test_rows_carry_the_list_cap(self):
        report = bound_sweep((0.1, 0.3), (2, 400), (1, 10))
        for row in report.rows:
            cap = protocol1.list_guess_bound(row["n"], row["theta"], row["r"])
            assert row["list_guess_bound"] == cap
            assert row["guess_all_exact"] <= cap
        assert report.summary["sound_pass"] is True

    def test_cap_below_the_exact_value_fails_the_row(self, monkeypatch, tmp_path):
        # the gap is exact minus cap: 5e-9 sits inside SOUND_TOL, 2e-8 outside
        for shift, verdict in ((5e-9, True), (2e-8, False)):
            monkeypatch.setattr(
                protocol1,
                "list_guess_bound",
                lambda n, theta, r, s=shift: adversary.guess_all_oracle(n, theta) - s,
            )
            report = bound_sweep((0.1, 0.3), (2, 4), (1,))
            assert [row["pass"] for row in report.rows] == [verdict] * 4
            assert report.summary["sound_pass"] is verdict
            assert (report.summary["max_sound_violation"] <= harness.SOUND_TOL) is verdict
            code = main(["bounds", "--theta", "0.2", "--n", "3", "--r", "1",
                         "--out", str(tmp_path / "report")])
            assert code == (0 if verdict else 5)


class TestSummaryVerdict:
    """The summary passes only when every row passes."""

    def test_miscertified_codebook_row_fails_the_summary(self):
        code = generate_certified_codebook(32, 0.5, 6, seed=1).code
        cb = Codebook(code=code, epsilon_certified=0.2, seed=1, attempts=1)
        report = bound_sweep([0.2], [2], [1], codebook=cb, cheat_samples=2)
        row = report.rows[-1]
        assert row["violations"] == 0 and row["pass"] is False
        assert report.summary["max_sound_violation"] <= harness.SOUND_TOL
        assert report.summary["sound_pass"] is False

    def test_equality_gap_between_the_tolerances_fails_the_summary(self, monkeypatch):
        original = protocol2.binding_bound2
        monkeypatch.setattr(
            protocol2, "binding_bound2", lambda r, eps: original(r, eps) + 5e-9
        )
        report = bound_sweep([0.2], [2], [2], equality_configs=[(2, 0.3)])
        row = report.rows[-1]
        assert row["kind"] == "equality" and row["pass"] is False
        assert report.summary["max_sound_violation"] <= harness.SOUND_TOL
        assert report.summary["sound_pass"] is False


def first_order_reed_muller(k: int) -> Codebook:
    """The code whose columns are all k-bit integers: every nonzero codeword
    has weight m/2, so epsilon = 0 and a cheat set may hold all 2^k states."""
    m = 1 << k
    gen = (np.arange(m) >> np.arange(k - 1, -1, -1)[:, None]) & 1
    return fingerprint_states(BinaryCode(gen.astype(np.uint8)), 0)


CHEAT_CODEBOOKS = {
    "k1": lambda: fingerprint_states(BinaryCode(np.array([[1, 0, 1, 0]], dtype=np.uint8)), 0),
    "k4-m16": lambda: fingerprint_states(generate_code(4, 16, 2), 2),
    "pinned": lambda: generate_certified_codebook(32, 0.5, 6, seed=1),
    "k7-m77": lambda: fingerprint_states(generate_code(7, 77, 6), 6),
    "k8-m256": lambda: fingerprint_states(generate_code(8, 256, 3), 3),
    "k10-m1024": lambda: generate_certified_codebook(1024, 0.25, 10, seed=3),
    "k12-m1024": lambda: fingerprint_states(generate_code(12, 1024, 5), 5),
    "epsilon0-k6": lambda: first_order_reed_muller(6),
}


@functools.cache
def cheat_codebook(name: str) -> Codebook:
    return CHEAT_CODEBOOKS[name]()


def cheat_row(cb, samples, seed) -> dict:
    row = bound_sweep([0.2], [2], [1], codebook=cb, cheat_samples=samples, seed=seed).rows[-1]
    return {"gap": repr(row["gap"]), "violations": row["violations"], "pass": row["pass"]}


def largest_cheat_set(cb) -> int:
    """The row's r_max: the family size, capped where (r - 1) * eps < 1 ends."""
    eps = cb.epsilon_certified
    return min(cb.size, math.ceil(1.0 / eps)) if eps > 0.0 else cb.size


def stream_draws(cb, samples, seed) -> list:
    """The row's draws read straight from its stream, as index tuples."""
    r_max = largest_cheat_set(cb)
    rng = make_rng(seed)
    draws = []
    for _ in range(samples):
        r = int(rng.integers(2, r_max + 1))
        draws.append(tuple(rng.choice(cb.size, size=r, replace=False).tolist()))
    return draws


def record_lookups(monkeypatch) -> list:
    """The length of each packed codeword lookup made from now on."""
    lookups = []
    original = BinaryCode._packed_words
    monkeypatch.setattr(
        BinaryCode, "_packed_words",
        lambda code, messages: lookups.append(len(messages)) or original(code, messages),
    )
    return lookups


class TestCheatSetRow:
    """The cheat-set row solves its draws once per size, and reads as the
    per-sample row did, bit for bit."""

    @pytest.mark.parametrize("seed, samples", [(0, 1), (1, 7), (2, 50), (3, 300)])
    @pytest.mark.parametrize("name", sorted(CHEAT_CODEBOOKS))
    def test_matches_the_per_sample_oracle(self, name, seed, samples):
        cb = cheat_codebook(name)
        expected = per_sample_cheat_set_row(cb, samples, seed)
        expected["gap"] = repr(expected["gap"])
        assert cheat_row(cb, samples, seed) == expected

    def test_large_sets_reach_the_family_size(self):
        cb = cheat_codebook("epsilon0-k6")
        assert cb.epsilon_certified == 0.0 and cb.size == 64
        assert max(map(len, stream_draws(cb, 300, 3))) > 60

    def test_miscertified_codebook_counts_the_oracle_violations(self):
        cb = dataclasses.replace(cheat_codebook("pinned"), epsilon_certified=0.05)
        for seed, samples in ((0, 40), (4, 300)):
            row = cheat_row(cb, samples, seed)
            expected = per_sample_cheat_set_row(cb, samples, seed)
            expected["gap"] = repr(expected["gap"])
            assert row == expected
            assert row["violations"] > 0 and row["pass"] is False

    @staticmethod
    def batches(cb, draws, lookups) -> list:
        """The batches :func:`protocol2.cheat_set_grams` makes of ``draws``:
        per batch its ``(r, count)`` pairs.  Each batch opens with its one
        codeword lookup, recorded in ``lookups`` (empty at the start)."""
        batches = []
        for r, stack in protocol2.cheat_set_grams(cb, draws):
            if len(batches) < len(lookups):
                batches.append([])
            batches[-1].append((r, len(stack)))
        assert lookups == [sum(r * count for r, count in batch) for batch in batches]
        return batches

    @staticmethod
    def footprint(cb, batch) -> int:
        """Bytes of a batch's sets as int64 index arrays, packed codewords,
        XOR words and float64 Gram matrices."""
        width = (cb.code.m + 7) // 8
        return sum(count * (8 * r + r * width + r * r * width + 8 * r * r) for r, count in batch)

    @pytest.mark.parametrize("cap", [None, 1 << 12, 1])
    def test_one_lookup_per_batch_and_one_solve_per_size(self, monkeypatch, cap):
        cb = cheat_codebook("k8-m256")
        expected = cheat_row(cb, 200, 7)
        if cap is not None:
            monkeypatch.setattr(protocol2, "_GRAM_BLOCK_BYTES", cap)
        lookups = record_lookups(monkeypatch)
        draws = harness._cheat_set_draws(cb, 200, 7, largest_cheat_set(cb))
        batches = self.batches(cb, draws, lookups)
        lookups.clear()
        solves = []
        solve = harness._eigvalsh
        monkeypatch.setattr(
            harness, "_eigvalsh", lambda mat: solves.append(mat.shape) or solve(mat)
        )
        row, gaps, _ = harness._cheat_set_row(cb, 200, 7)
        assert (repr(row["gap"]), row["violations"]) == (expected["gap"], expected["violations"])
        assert lookups == [sum(r * count for r, count in batch) for batch in batches]
        assert solves == [(count, r, r) for batch in batches for r, count in batch]
        for batch in batches:
            assert len({r for r, _ in batch}) == len(batch)  # one solve per size
        # one batch by default, several under a few KiB, one draw each under 1 byte
        assert len(batches) == 1 if cap is None else 1 < len(batches) <= 200
        assert (len(batches) == 200) == (cap == 1)

    @pytest.mark.parametrize("cap", [1 << 10, 1 << 13])
    def test_batches_hold_the_stream_within_the_cap(self, monkeypatch, cap):
        cb = cheat_codebook("epsilon0-k6")
        drawn = [tuple(draw.tolist()) for draw in harness._cheat_set_draws(cb, 500, 2, 64)]
        assert drawn == stream_draws(cb, 500, 2)
        monkeypatch.setattr(protocol2, "_GRAM_BLOCK_BYTES", cap)
        lookups = record_lookups(monkeypatch)
        batches = self.batches(cb, harness._cheat_set_draws(cb, 500, 2, 64), lookups)
        for batch in batches:
            sets = sum(count for _, count in batch)
            assert sets == 1 or self.footprint(cb, batch) <= cap
        assert sum(count for batch in batches for _, count in batch) == 500
        assert len(batches) > 1 and max(sum(c for _, c in batch) for batch in batches) > 1

    def test_memory_does_not_grow_with_the_samples(self, monkeypatch):
        cb = cheat_codebook("pinned")
        monkeypatch.setattr(protocol2, "_GRAM_BLOCK_BYTES", 1 << 12)
        peaks = []
        for samples in (400, 4000):
            tracemalloc.start()
            harness._cheat_set_row(cb, samples, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestSweepLimits:
    @pytest.mark.parametrize("ns, rs", [((2,), (0,)), ((2,), (2, -1)), ((0, 2), (1,))])
    def test_rejects_n_or_r_below_one(self, ns, rs):
        with pytest.raises(InputError):
            bound_sweep((0.2,), ns, rs)

    def test_r_above_n_kept(self):
        report = bound_sweep((0.2,), (2,), (10,))
        assert report.rows[0]["r"] == 10 and report.rows[0]["n"] == 2


# sha256 of each output at the commit before sessions and cheat sessions
# shared one pipeline; identical seeds must keep giving identical bytes.  The
# two report digests were re-pinned when the protocol-1 mixture spectrum moved
# to blocks of a symmetry (first the qubit reversal, then the pair basis): the
# last bits of holevo_brute_bits changed; PRE_BLOCK_SOLVE holds their values
# from one eigvalsh of the computational Kronecker power.  The four report
# digests were re-pinned again for the list_guess_bound column;
# BEFORE_LIST_CAP holds their bytes without it.
GOLDEN = {
    "honest1_exact": "96999eb05354cef138e8ad2187bf5de874803b56ce034da0861f4d1952ca77d2",
    "honest1_sampled": "6b91ce4e0322e5e5709010d8904019c04d3751322776727df4aae73310ec3df5",
    "honest2_exact": "4997a42eadfbc8ff9749336ee56fe38a2502ac704741fb2bad12f17555e06f8b",
    "honest2_sampled": "2422d8141487fa87dd26f8e919725f968b6e4f121147bfdcbef7e64bdbb4dd63",
    "wrong1_sampled": "08c1989232a2978409272274224eedeb10569f73227506c443fdb7d949c0c33f",
    "wrong2_sampled": "b5c2e4bcc9f840d26a6da3e6465c02f8ba04b538e0f551e7babbce0e8a43970f",
    "cheat1_top": "43fcbaf25d7e95d964d4e6a7c709a1178e9aa72e7d9bee278201f9b0b00e68f7",
    "cheat1_density": "615bdd3bbf42d53a0718fc81ac8aec474763cd3935942c972608f6272a809df3",
    "cheat2_top": "7373488bac535b33438dc157645cf9e137c1470b90e4405683a0068329e8ea40",
    "cheat2_density": "c72287bac10a34143305ae21b80a082f87eb30a6db046519280fad8f6b2ac22f",
    "report_cheat_sets": "a70c960c6c44d36f2b141476517e1cd3b7902da4c9847e54221a725f5d03d5e7",
    "report_plain": "f88b71515819aabbf5a54cbed003bf160d501f8a19eb8604e3bba52e2fc99a26",
}
PRE_BLOCK_SOLVE = {
    "report_cheat_sets": "97a103895bf4ce3a9c36794e03b63a104265410669e26ae81c4e061903ff7020",
    "report_plain": "d704dc301cf982664a33b5f4b8b47fe6b08b0c6834cd1f4d16ac7e5a3b7b5ccc",
}
BEFORE_LIST_CAP = {
    ("GOLDEN", "report_cheat_sets"): "5a822dd6bf684b518b193c9f974469156c0b89d10de9c897c163842173e45a19",
    ("GOLDEN", "report_plain"): "28ea9e989adfe8ca54e3cecdd0997eaa55bf4bd33b1595af87cd49a5530addf1",
    ("PRE_BLOCK_SOLVE", "report_cheat_sets"): "6a703b0bba6fb088d279e7535035c1e7f2abff417f9c08ba41a7be0693302613",
    ("PRE_BLOCK_SOLVE", "report_plain"): "f2a8ea3ab20089bdb3405161460f53efc09d0d5564342faffd9d0079f8882232",
}


@pytest.fixture(scope="module")
def pinned_codebook():
    return generate_certified_codebook(32, 0.5, 6, seed=1)


def golden_output(name, cb):
    def honest(protocol, bits, claimed, seed, mode):
        kwargs = {"theta": 0.3} if protocol == 1 else {"codebook": cb}
        t = unveil_session(commit_session(protocol, bits, seed, **kwargs), claimed)
        return verify_session(t, mode=mode, codebook=kwargs.get("codebook"))

    def cheat1(strategy, theta, reveal, seed, r=1):
        params = protocol1.SecurityParams(theta=theta, n=len(reveal), r=r)
        return adversary.run_cheat_session(1, strategy, reveal, seed, params=params)

    def cheat2(strategy, member, seed):
        reveal = protocol2.index_string(member, 6)
        return adversary.run_cheat_session(2, strategy, reveal, seed, codebook=cb)

    def report(**codebook_row):
        return bound_sweep((0.1, 0.3), (2, 6), (2,), ((3, 0.1),), **codebook_row)

    top = adversary.top_eigenvector_strategy
    def custom(state):
        return adversary.CheatStrategy(kind="custom-state", state=state)

    qubit_mixture = DensityMatrix(np.array([[0.75, 0.25], [0.25, 0.25]]))
    state3, state17 = cb.state(3).amps.real, cb.state(17).amps.real
    code_mixture = DensityMatrix((np.outer(state3, state3) + np.outer(state17, state17)) / 2)
    cheat_set = protocol2.cheat_set_for(cb, (3, 17, 40))
    outputs = {
        "honest1_exact": lambda: honest(1, "10110100", "10110100", 7, "exact"),
        "honest1_sampled": lambda: honest(1, "10110100", "10110100", 8, "sampled"),
        "honest2_exact": lambda: honest(2, "101101", "101101", 7, "exact"),
        "honest2_sampled": lambda: honest(2, "101101", "101101", 8, "sampled"),
        "wrong1_sampled": lambda: honest(1, "10110100", "10010110", 9, "sampled"),
        "wrong2_sampled": lambda: honest(2, "101101", "001100", 9, "sampled"),
        "cheat1_top": lambda: cheat1(top(protocol1.reveal_operator(0.2)), 0.2, "0110", 4, r=2),
        "cheat1_density": lambda: cheat1(custom(qubit_mixture), 0.3, "1010", 5),
        "cheat2_top": lambda: cheat2(top(protocol2.q_operator(cb, cheat_set)), 17, 2),
        "cheat2_density": lambda: cheat2(custom(code_mixture), 3, 6),
        "report_cheat_sets": lambda: report(codebook=cb, cheat_samples=25, seed=5),
        "report_plain": lambda: report(),
    }
    output = outputs[name]()
    if name.startswith("report"):
        return output.to_json() + output.to_csv()
    return output.to_json()


class TestSessionPipeline:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_outputs_keep_their_bytes(self, pinned_codebook, name):
        text = golden_output(name, pinned_codebook)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(PRE_BLOCK_SOLVE))
    def test_reports_keep_their_bytes_under_the_full_solve(
        self, pinned_codebook, monkeypatch, name
    ):
        # only the mixture's basis and spectrum solve moved the re-pinned
        # digests: with one eigvalsh of the computational Kronecker power
        # the reports are the earlier bytes
        monkeypatch.setattr(protocol1, "uniform_commitment_state", computational_mixture)
        text = golden_output(name, pinned_codebook)
        assert hashlib.sha256(text.encode()).hexdigest() == PRE_BLOCK_SOLVE[name]

    @pytest.mark.parametrize("table, name", sorted(BEFORE_LIST_CAP))
    def test_reports_without_the_list_cap_keep_their_old_bytes(
        self, pinned_codebook, monkeypatch, table, name
    ):
        # the list_guess_bound column alone moved the four report digests:
        # dropped from the rows and from CSV_COLUMNS, the earlier bytes return
        original = harness._protocol1_row

        def without_list_cap(*args):
            row, gaps = original(*args)
            del row["list_guess_bound"]
            return row, gaps

        monkeypatch.setattr(harness, "_protocol1_row", without_list_cap)
        columns = tuple(c for c in harness.CSV_COLUMNS if c != "list_guess_bound")
        monkeypatch.setattr(harness, "CSV_COLUMNS", columns)
        if table == "PRE_BLOCK_SOLVE":
            monkeypatch.setattr(protocol1, "uniform_commitment_state", computational_mixture)
        text = golden_output(name, pinned_codebook)
        assert hashlib.sha256(text.encode()).hexdigest() == BEFORE_LIST_CAP[table, name]

    def test_cheat_is_verified_from_its_message(self, pinned_codebook, monkeypatch):
        cb = pinned_codebook
        strategy = adversary.top_eigenvector_strategy(
            protocol2.q_operator(cb, protocol2.cheat_set_for(cb, (3, 17, 40)))
        )
        seen = []
        original = harness._reconstruct_commitment

        def spy(transcript, codebook):
            seen.append(transcript.commit["message"]["kind"])
            return original(transcript, codebook)

        monkeypatch.setattr(harness, "_reconstruct_commitment", spy)
        t = adversary.run_cheat_session(2, strategy, "010001", seed=2, codebook=cb)
        assert seen == ["state_amplitudes"]
        assert t.verify["mode"] == "sampled"

    @pytest.mark.parametrize("phase, dtype", [(1.0, np.float64), (1j, np.complex128)])
    def test_density_message_read_back_keeps_real_storage(self, pinned_codebook, phase, dtype):
        # the message's entries are complex pairs; only a genuinely complex
        # matrix is stored complex when the verifier reads it back
        cb = pinned_codebook
        a, b = cb.state(3).amps.real, cb.state(17).amps.real
        v = (a + phase * b) / np.linalg.norm(a + phase * b)
        rho = DensityMatrix((np.outer(a, a) + np.outer(v, v.conj())) / 2)
        sent = harness.committed_transcript(2, 6, rho, codebook=cb)
        read = Transcript.from_json(sent.to_json()).with_unveil("000011")
        commitment, _ = harness._reconstruct_commitment(read, cb)
        assert commitment.state.mat.dtype == dtype
        assert np.array_equal(commitment.state.mat, rho.mat)

    def test_mixed_protocol1_message_goes_out_as_density_matrices(self):
        # a Ket beside density matrices is written as its projector, and the
        # verified acceptance is the verifier's on the commitment itself
        params = protocol1.SecurityParams(theta=0.3, n=3)
        kets = protocol1.commit("011", params).qubits
        mixed = (kets[0], DensityMatrix(np.diag([0.25, 0.75])), kets[2])
        expected = protocol1.verify_unveil(protocol1.Commitment1(mixed, params), "010")[0]
        sent = harness.committed_transcript(1, 4, mixed, params=params)
        assert sent.commit["message"]["kind"] == "qubit_density_matrices"
        read = Transcript.from_json(sent.to_json())
        verified = verify_session(unveil_session(read, "010"))
        assert verified.verify["accept_probability"] == pytest.approx(expected, rel=1e-12)
        # all-Ket and all-density messages keep their kinds and entries
        pure = harness.committed_transcript(1, 4, kets, params=params).commit["message"]
        assert pure == {"kind": "qubit_amplitudes",
                        "qubits": [q.amps.view(np.float64).reshape(-1, 2).tolist() for q in kets]}
        rhos = tuple(DensityMatrix(np.outer(q.amps, q.amps.conj())) for q in kets)
        dense = harness.committed_transcript(1, 4, rhos, params=params).commit["message"]
        assert dense["kind"] == "qubit_density_matrices"
        assert dense["qubits"] == [
            np.asarray(r.mat, dtype=complex).view(np.float64).reshape(2, 2, 2).tolist() for r in rhos
        ]

    def test_verify_rejects_unknown_mode(self):
        t = unveil_session(commit_session(1, "01", seed=3, theta=0.2), "01")
        with pytest.raises(InputError):
            verify_session(t, mode="fuzzy")


def test_each_closed_form_and_each_gate_has_one_owner():
    """Protocol 1's per-qubit entropy and Helstrom value are each written
    once in the package, and no report row builder decides its own pass."""
    source = "".join(
        path.read_text() for path in sorted(Path(harness.__file__).parent.glob("*.py"))
    )
    for form in (
        "binary_entropy((1.0 + math.sin(theta)) / 2.0)",
        "(1.0 + math.cos(theta)) / 2.0",
    ):
        assert source.count(form) == 1, form
    tree = ast.parse(Path(harness.__file__).read_text())

    def strings(node):
        return {
            leaf.value for leaf in ast.walk(node)
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
        }

    builders = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_row")
    ]
    assert len(builders) == 3
    for builder in builders:
        assert "pass" not in strings(builder), builder.name
    assert "_sound_violation" not in strings(tree)


def test_generator_columns_have_one_owner():
    """The generator's columns are read as k-bit integers in one place, the
    cached ``BinaryCode.column_classes``; no module counts them its own way
    or imports a column helper from ``codebook``."""
    package = Path(harness.__file__).parent
    source = "".join(path.read_text() for path in sorted(package.glob("*.py")))
    assert "np.bincount" not in source
    assert "np.add.at" not in source
    assert source.count("np.dot(1 << np.arange(") == 1
    tree = ast.parse((package / "protocol2.py").read_text())
    imported = [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "codebook"
        for alias in node.names
    ]
    assert imported and not any("column" in name for name in imported)


def test_cheat_set_batches_have_one_owner():
    """``protocol2.cheat_set_grams`` alone sizes the audit's batches: its
    budget is named nowhere else in the package, and ``harness`` takes no
    object sizes of its own."""
    package = Path(harness.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert ("_GRAM_BLOCK_BYTES" in path.read_text()) == (path.name == "protocol2.py"), path.name
    tree = ast.parse(Path(harness.__file__).read_text())
    imported = {
        alias.name.split(".")[0] for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names
    }
    assert "sys" not in imported
    assert not any(
        isinstance(node, ast.ImportFrom) and node.module == "sys" for node in ast.walk(tree)
    )
