"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 5 is split: the bound value itself (5a) and the dominance of the
entropy-based all-bits cap over the exact guessing oracle (5b).  5b is
asserted as stated and FAILS: the exact per-bit discrimination value
(1 + cos t)/2 exceeds the per-bit entropy figure h2((1 + sin t)/2) for every
t in (0, pi/2), so for long strings the exact oracle escapes the cap.  The
failure message lists the crossing points; this is a documented property of
the bounds, not an implementation defect.  5c gates the sound min-entropy
list cap 2^r * ((1 + cos t)/2)^n on the same grid.
"""

import math
import time

import numpy as np
import pytest

from qbsc import (
    binding_bound1,
    capacity,
    code_ensemble_entropy,
    equality_configuration,
    generate_certified_codebook,
    guess_all_oracle,
    hiding_gap,
    identify_all_bound,
    list_guess_bound,
    smallest_hiding_n,
    uniform_commitment_state,
    von_neumann_entropy,
)
from qbsc.adversary import top_eigenvector_strategy, run_cheat_session
from qbsc.harness import bound_sweep, commit_session, unveil_session, verify_session
from qbsc.linalg import binary_entropy
from qbsc.protocol1 import (
    SecurityParams,
    encode_bit,
    holevo_bound1,
    reveal_operator,
)
from qbsc.protocol2 import binding_bound2, cheat_set_for, q_operator

from oracles import random_density_matrix

PINNED_SEED = 1  # certifies n=32, k=6 at epsilon 0.375 on the first attempt


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def pinned_codebook():
    return generate_certified_codebook(32, 0.5, 6, seed=PINNED_SEED)


def test_criterion_1_binding_identity():
    start = time.perf_counter()
    worst_identity = 0.0
    worst_spectral = 0.0
    for theta in np.linspace(0.001, math.pi / 2 - 0.001, 100):
        rhs = binding_bound1(theta)
        worst_identity = max(worst_identity, abs(rhs - (1.0 + math.sin(theta))))
        lam = float(np.linalg.eigvalsh(reveal_operator(theta).mat)[-1])
        worst_spectral = max(worst_spectral, abs(rhs - lam))
    elapsed = time.perf_counter() - start
    assert worst_identity <= 1e-12
    assert worst_spectral <= 1e-9
    assert elapsed < 1.0
    report(
        1,
        f"identity gap {worst_identity:.2e}, spectral gap {worst_spectral:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_binding_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    for theta in (0.1, 0.3):
        cap = 1.0 + math.sin(theta)
        psi0 = encode_bit(0, theta).amps
        psi1 = encode_bit(1, theta).amps
        worst = -math.inf
        for _ in range(10**4):
            rho = random_density_matrix(2, rng).mat
            total = float(
                np.vdot(psi0, rho @ psi0).real + np.vdot(psi1, rho @ psi1).real
            )
            worst = max(worst, total)
            assert total <= cap + 1e-9
        op = reveal_operator(theta)
        top = np.linalg.eigh(op.mat)[1][:, -1]
        achieved = float(np.vdot(top, op.mat @ top).real)
        assert abs(achieved - cap) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, f"2x10^4 states stayed below the cap, {elapsed:.2f}s")


def test_criterion_3_holevo_brute_force():
    start = time.perf_counter()
    worst = 0.0
    for theta in (0.1, 0.2, 0.5):
        expected_per_bit = binary_entropy((1.0 + math.sin(theta)) / 2.0)
        for n in range(1, 13):
            brute = von_neumann_entropy(uniform_commitment_state(n, theta))
            gap = abs(brute - n * expected_per_bit)
            worst = max(worst, gap)
            assert gap <= 1e-8
            assert abs(holevo_bound1(n, theta) - n * expected_per_bit) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, f"36 spectral entropies, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_hiding_regime():
    start = time.perf_counter()
    theta, r = 0.2, 2
    found = smallest_hiding_n(theta, r)
    per_bit_deficit = 1.0 - binary_entropy((1.0 + math.sin(theta)) / 2.0)
    scalar = math.ceil(r / per_bit_deficit)
    # exact per-bit deficit 0.0286615... puts the crossing at 69.78; a
    # 4-digit rounding of the entropy would misplace it at 71
    assert found == scalar == 70
    assert hiding_gap(found, theta) > r >= hiding_gap(found - 1, theta)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, f"smallest n with gap > {r} is {found}, {elapsed:.2f}s")


def test_criterion_5a_identify_all_bound_value():
    start = time.perf_counter()
    n, theta, r = 500, 0.2, 10
    value = identify_all_bound(n, theta, r)
    h = binary_entropy((1.0 + math.sin(theta)) / 2.0)
    independent = math.exp(r * math.log(2.0) + n * math.log(h))
    assert abs(value - independent) / independent < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        "5a", f"bound(500, 0.2, 10) = {value:.3e} matches log-domain recomputation"
    )


def test_criterion_5b_entropy_cap_dominates_exact_oracle():
    """Asserted as stated; fails in the long-string regime.

    The exact per-bit success (1 + cos t)/2 exceeds h2((1 + sin t)/2) on all
    of (0, pi/2), so the 2^r * h2^n cap loses to the exact oracle once
    n > r / log2(((1 + cos t)/2) / h2((1 + sin t)/2)).
    """
    r = 10
    grid = [
        (n, theta)
        for theta in (0.05, 0.1, 0.2, 0.3)
        for n in (50, 125, 250, 375, 500)
    ]
    assert len(grid) == 20
    failures = []
    for n, theta in grid:
        oracle = guess_all_oracle(n, theta)
        cap = identify_all_bound(n, theta, r)
        if oracle > cap + 1e-9:
            failures.append(
                f"n={n} theta={theta}: exact {oracle:.3e} > cap {cap:.3e}"
            )
    if failures:
        pytest.fail(
            "exact oracle exceeds the entropy-based cap at "
            + f"{len(failures)}/20 grid points:\n"
            + "\n".join(failures)
        )
    report("5b", "entropy-based cap covered the exact oracle on all 20 points")


def test_criterion_5c_list_cap_covers_exact_oracle():
    """The min-entropy list cap min(1, 2^r * ((1 + cos t)/2)^n) covers the
    exact oracle on 5b's grid, and matches its log-domain recomputation."""
    start = time.perf_counter()
    r = 10
    grid = [
        (n, theta)
        for theta in (0.05, 0.1, 0.2, 0.3)
        for n in (50, 125, 250, 375, 500)
    ]
    assert len(grid) == 20
    caps = []
    for n, theta in grid:
        cap = list_guess_bound(n, theta, r)
        log_cap = r * math.log(2.0) + n * math.log((1.0 + math.cos(theta)) / 2.0)
        assert cap == pytest.approx(min(1.0, math.exp(log_cap)), rel=1e-12)
        assert guess_all_oracle(n, theta) <= cap + 1e-9
        caps.append(cap)
    assert min(caps) < 1.0  # not vacuous on the whole grid
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("5c", f"list cap covered the exact oracle on all 20 points, "
           f"smallest cap {min(caps):.3e}")


def test_criterion_6_codebook_binding(pinned_codebook):
    start = time.perf_counter()
    cb = pinned_codebook
    eps = cb.epsilon_certified
    assert eps <= 0.5
    rng = np.random.default_rng(606)
    r_max = 3  # (r-1) * 0.375 < 1 holds up to r = 3
    violations = 0
    for _ in range(10**3):
        r = int(rng.integers(2, r_max + 1))
        indices = rng.choice(cb.size, size=r, replace=False)
        s = cheat_set_for(cb, (int(i) for i in indices))
        lam = float(np.linalg.eigvalsh(q_operator(cb, s).mat)[-1])
        if lam > binding_bound2(r, eps) + 1e-9:
            violations += 1
    assert violations == 0
    for r, eps_cfg in ((2, 0.3), (3, 0.1), (8, 0.1)):
        kets = equality_configuration(r, eps_cfg)
        rows = np.stack([k.amps for k in kets])
        lam = float(np.linalg.eigvalsh(rows.T @ rows.conj())[-1])
        assert abs(lam - (1.0 + (r - 1) * eps_cfg)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        6,
        f"10^3 cheat sets, zero violations at epsilon {eps}; equality "
        f"configurations hit their caps, {elapsed:.1f}s",
    )


def test_criterion_7_codebook_hiding(pinned_codebook):
    start = time.perf_counter()
    cb = pinned_codebook
    exact = code_ensemble_entropy(cb)
    cap = math.log2(cb.dim)
    assert exact <= cap + 1e-9
    assert capacity(cb) == 6 > cap == 5.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        7,
        f"ensemble entropy {exact:.4f} <= {cap} bits while committing "
        f"{capacity(cb)} bits, {elapsed:.2f}s",
    )


def test_criterion_8_end_to_end_sessions(pinned_codebook):
    start = time.perf_counter()
    sessions = 10**3

    accepted = 0
    for i in range(sessions):
        t = commit_session(1, "10100101", seed=i, theta=0.1)
        t = unveil_session(t, "10100101")
        t = verify_session(t, mode="sampled")
        accepted += 1 if t.verify["verdict"] else 0
    assert accepted == sessions

    accepted = 0
    for i in range(sessions):
        bits = format(i % 64, "06b")
        t = commit_session(2, bits, seed=i, codebook=pinned_codebook)
        t = unveil_session(t, bits)
        t = verify_session(t, mode="sampled", codebook=pinned_codebook)
        accepted += 1 if t.verify["verdict"] else 0
    assert accepted == sessions

    flip_hits = 0
    p = math.sin(0.1) ** 2
    for i in range(sessions):
        t = commit_session(1, "10100101", seed=i, theta=0.1)
        t = unveil_session(t, "10100100")
        t = verify_session(t, mode="sampled")
        flip_hits += 1 if t.verify["verdict"] else 0
    freq = flip_hits / sessions
    sigma = math.sqrt(p * (1.0 - p) / sessions)
    assert abs(freq - p) <= 4.0 * sigma

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        8,
        f"honest frequency 1.0 on both protocols; flip frequency {freq:.4f} "
        f"within 4 sigma of {p:.6f}, {elapsed:.1f}s",
    )


def test_criterion_9_determinism(pinned_codebook):
    cb_again = generate_certified_codebook(32, 0.5, 6, seed=PINNED_SEED)
    assert cb_again.to_json() == pinned_codebook.to_json()

    def honest_session():
        t = commit_session(1, "110010", seed=12, theta=0.1)
        t = unveil_session(t, "110011")
        return verify_session(t, mode="sampled").to_json()

    assert honest_session() == honest_session()

    def cheat():
        strategy = top_eigenvector_strategy(reveal_operator(0.2))
        return run_cheat_session(
            1, strategy, "0000", seed=4, params=SecurityParams(theta=0.2, n=4)
        ).to_json()

    assert cheat() == cheat()

    def report_bytes():
        rep = bound_sweep(
            thetas=(0.1, 0.3),
            ns=(2, 6),
            rs=(2,),
            equality_configs=((3, 0.1),),
            codebook=pinned_codebook,
            cheat_samples=25,
            seed=5,
        )
        return rep.to_json() + rep.to_csv()

    assert report_bytes() == report_bytes()
    report(9, "codebooks, sessions, cheats and reports replay byte-identically")
