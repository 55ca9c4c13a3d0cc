"""Produce a bound-sweep report and show what each row certifies.

Run with: python demos/bound_report_demo.py [output-basename]
"""

import sys

from qbsc import generate_certified_codebook
from qbsc.harness import bound_sweep

cb = generate_certified_codebook(n=32, epsilon_target=0.5, k=6, seed=1)
report = bound_sweep(
    thetas=(0.05, 0.1, 0.2, 0.35),
    ns=(2, 8, 12, 100, 500),
    rs=(2, 10),
    equality_configs=((2, 0.3), (3, 0.1), (8, 0.1)),
    codebook=cb,
    cheat_samples=200,
    seed=0,
)

print(f"rows: {report.summary['rows']}")
print(f"max sound violation: {report.summary['max_sound_violation']:.3e}")
print(f"sound checks pass: {report.summary['sound_pass']}")
print(f"rows where the entropy-based all-bits cap loses to the exact "
      f"oracle: {report.summary['delta_uncovered_rows']}")
print()

# a few illustrative rows
for row in report.rows:
    if row["kind"] == "protocol1" and row["n"] in (8, 500) and row["theta"] == 0.2:
        print(f"theta={row['theta']} n={row['n']} r={row['r']}: "
              f"two-way cap {row['binding_rhs']:.6f} "
              f"(spectral gap {row['binding_spectral_gap']:.1e}), "
              f"info cap {row['holevo_bits']:.4f} bits"
              + (f" (brute {row['holevo_brute_bits']:.4f})"
                 if row["holevo_brute_bits"] is not None else ""))
        print(f"    all-bits cap {row['delta_bound']:.3e} vs exact "
              f"{row['guess_all_exact']:.3e} -> covered: "
              f"{row['delta_covers_exact']}")
    if row["kind"] == "equality":
        print(f"equality r={row['r']} eps={row['epsilon']}: top value "
              f"{row['lambda_max']:.9f} vs cap {row['bound']}")
    if row["kind"] == "cheat_sets":
        print(f"codebook cheat sets: {row['samples']} samples, "
              f"{row['violations']} violations, worst margin {row['gap']:.3e}")

# named as `qbsc bounds --out` names them, by the report's own rule
json_path, csv_path = report.write(sys.argv[1] if len(sys.argv) > 1 else "bound_report")
print(f"\nwrote {json_path} and {csv_path}")
