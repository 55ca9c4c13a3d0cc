"""Walk through the codebook protocol: certification, sessions, cheat sets.

Run with: python demos/codebook_protocol_walkthrough.py
"""

import numpy as np

from qbsc import (
    binding_bound2,
    capacity,
    cheat_set_for,
    code_ensemble_entropy,
    commit2,
    equality_configuration,
    generate_certified_codebook,
    hiding_bound2,
    q_operator,
    top_eigenvector_strategy,
    verify_unveil2,
)
from qbsc.adversary import run_cheat_session
from qbsc.protocol2 import guess_string_exact, index_string

# --- build a certified near-orthogonal family ---------------------------
cb = generate_certified_codebook(n=32, epsilon_target=0.5, k=6, seed=1)
print(f"codebook: dim {cb.dim}, {cb.size} states, capacity {capacity(cb)} bits")
print(f"certified max overlap {cb.epsilon_certified} "
      f"(attempt {cb.attempts}, seed {cb.seed})")
print()

# --- one honest session --------------------------------------------------
bits = "101101"
commitment = commit2(bits, cb)
print(f"committed {bits!r}; honest unveil accepts with probability",
      verify_unveil2(commitment, bits)[0])
print(f"claiming '101100' instead accepts with probability",
      f"{verify_unveil2(commitment, '101100')[0]:.6f}",
      f"(<= epsilon^2 = {cb.epsilon_certified**2:.6f})")
print()

# --- a committer keeping three strings open ------------------------------
cheat = cheat_set_for(cb, (3, 17, 40))
q = q_operator(cb, cheat)
cap = binding_bound2(cheat.r, cb.epsilon_certified)
lam = float(np.linalg.eigvalsh(q.mat)[-1])
print(f"cheat set of {cheat.r}: top reveal value {lam:.6f} <= cap {cap}")

strategy = top_eigenvector_strategy(q, bound=cap)
total = 0.0
for index in cheat.indices:
    session = run_cheat_session(2, strategy, index_string(index, capacity(cb)),
                                seed=11, codebook=cb)
    p = session.verify["accept_probability"]
    total += p
    print(f"  revealing index {index:2d} accepts with probability {p:.6f}")
print(f"  total over the set: {total:.6f} (= top eigenvalue)")
print()

# --- the saturating geometry ---------------------------------------------
kets = equality_configuration(3, 0.1)
rows = np.stack([k.amps for k in kets])
print("three states with every overlap exactly 0.1 reach",
      f"{float(np.linalg.eigvalsh(rows.T @ rows.conj())[-1]):.6f}",
      "= 1 + 2*0.1")
print()

# --- hiding: the receiver's cap is the carrier dimension -----------------
print(f"receiver information cap: {hiding_bound2(cb)} bits "
      f"(exact ensemble entropy {code_ensemble_entropy(cb):.4f}, "
      f"whole-string guess {guess_string_exact(cb):.6f} "
      f"<= dim/2^k = {cb.dim / cb.size})")
print(f"committed bits: {capacity(cb)} -> at least "
      f"{capacity(cb) - int(hiding_bound2(cb))} bit stays hidden")
