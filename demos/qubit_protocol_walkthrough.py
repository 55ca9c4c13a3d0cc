"""Walk through the qubit-per-bit protocol: sessions, binding, hiding.

Run with: python demos/qubit_protocol_walkthrough.py
"""

import math

from qbsc import (
    SecurityParams,
    binding_bound1,
    commit,
    guess_all_oracle,
    hiding_gap,
    holevo_bound1,
    identify_all_bound,
    reveal_operator,
    smallest_hiding_n,
    top_eigenvector_strategy,
    uniform_commitment_state,
    verify_unveil,
    von_neumann_entropy,
)
from qbsc.adversary import run_cheat_session

theta = 0.2
params = SecurityParams(theta=theta, n=8, r=2)
print(f"angle {theta}, string length {params.n}, withheld-bits target {params.r}")
print(f"encoding overlap sin(theta) = {params.epsilon:.6f}")
print()

# --- an honest session -------------------------------------------------
bits = "10110100"
commitment = commit(bits, params)
print(f"committed {bits!r}; honest unveil accepts with probability",
      verify_unveil(commitment, bits)[0])

claim = "10110101"  # one flipped bit costs sin^2(theta)
print(f"claiming {claim!r} instead accepts with probability",
      f"{verify_unveil(commitment, claim)[0]:.6f}",
      f"(sin^2 theta = {math.sin(theta)**2:.6f})")
print()

# --- binding: the committer's best two-way state ------------------------
cap = binding_bound1(theta)
print(f"two-way reveal cap per bit: {cap:.6f} (= 1 + sin theta)")
strategy = top_eigenvector_strategy(reveal_operator(theta), bound=cap)
session = run_cheat_session(1, strategy, "0" * params.n, seed=7, params=params)
print("best cheating state accepts an all-zero reveal with probability",
      f"{session.verify['accept_probability']:.3e}",
      f"(per bit {((1 + math.sin(theta)) / 2):.6f})")
print()

# --- hiding: what the receiver can learn before the unveil --------------
bound = holevo_bound1(params.n, theta)
mixture = von_neumann_entropy(uniform_commitment_state(params.n, theta))
print(f"receiver information cap: {bound:.4f} bits out of {params.n}",
      f"(entropy of the dense 2^n mixture: {mixture:.4f})")
print(f"hiding gap: {hiding_gap(params.n, theta):.4f} bits")
n_star = smallest_hiding_n(theta, params.r)
print(f"smallest n keeping more than {params.r} bits hidden on average: {n_star}")
print()

# --- the all-bits story: entropy cap versus the exact oracle ------------
for n in (100, 364, 500):
    cap = identify_all_bound(n, theta, 10)
    exact = guess_all_oracle(n, theta)
    covered = "covers" if exact <= cap + 1e-9 else "LOSES TO"
    print(f"n={n:4d}: entropy-based cap {cap:.3e} {covered} "
          f"exact oracle {exact:.3e}")
print("(the exact per-bit success (1+cos t)/2 beats the per-bit entropy")
print(" figure, so the cap gives out once n crosses r/log2 of their ratio)")
