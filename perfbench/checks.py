"""Output checks for the benchmark.

Every expected value here is computed by the benchmark itself, from closed
forms or from its own enumeration of codewords, and never read from stored
output of an earlier run.  Only numpy and the standard library are used, so
a fault in the library cannot also hide in its reference value.

Each check raises :class:`CheckFailed` with the reason.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# The bound report's own tolerance for counting a row as covered.
REPORT_COVER_TOL = 1e-8
BRUTE_FORCE_MAX_N = 12


class CheckFailed(Exception):
    """An output of the library disagrees with the benchmark's own value."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual, expected: float, tol: float, what: str, rel: bool = False) -> None:
    scale = abs(expected) if rel else 1.0
    require(
        actual is not None and abs(actual - expected) <= tol * scale,
        f"{what}: got {actual!r}, expected {expected!r} (tolerance {tol})",
    )


def h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def product_spectrum_entropy(n: int, theta: float) -> float:
    """Entropy in bits of the uniform protocol-1 mixture over n qubits.

    Its spectrum is the n-fold product of {(1 + sin t)/2, (1 - sin t)/2}:
    the eigenvalue with k factors of the first kind has multiplicity C(n, k).
    """
    hi = (1.0 + math.sin(theta)) / 2.0
    lo = 1.0 - hi
    total = 0.0
    for k in range(n + 1):
        p = hi**k * lo ** (n - k)
        if p > 0.0:
            total -= math.comb(n, k) * p * math.log2(p)
    return total


def guess_all(n: int, theta: float) -> float:
    return ((1.0 + math.cos(theta)) / 2.0) ** n


def uncovered(n: int, theta: float, r: int) -> bool:
    """Whether the exact all-bits guess exceeds min(1, 2^r * h2^n)."""
    delta = min(1.0, 2.0**r * h2((1.0 + math.sin(theta)) / 2.0) ** n)
    return guess_all(n, theta) > delta + REPORT_COVER_TOL


# -- codewords ---------------------------------------------------------------


def all_codewords(generator) -> np.ndarray:
    """Every codeword, bit-packed, indexed by its big-endian message.

    Doubling over the generator rows, last row first: each step XORs one
    packed row into a copy of the words built so far, so codeword ``x`` is
    the XOR of the rows selected by the bits of ``x``.
    """
    gen = np.asarray(generator, dtype=np.uint8)
    packed = np.packbits(gen, axis=1)
    pad = (-packed.shape[1]) % 8
    rows = np.pad(packed, ((0, 0), (0, pad))).view(np.uint64)
    words = np.zeros((1, rows.shape[1]), dtype=np.uint64)
    for row in rows[::-1]:
        words = np.concatenate([words, words ^ row])
    return words


def weights(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def distance(words: np.ndarray, i: int, j: int) -> int:
    return int(np.bitwise_count(words[i] ^ words[j]).sum())


def epsilon_of(words: np.ndarray, m: int) -> float:
    w = weights(words[1:])
    return float(np.abs(1.0 - 2.0 * w / m).max())


def gram_lambda_max(words: np.ndarray, indices, m: int) -> float:
    """Top eigenvalue of the r x r Gram matrix 1 - 2 d_ij / m."""
    idx = list(indices)
    gram = np.array(
        [[1.0 - 2.0 * distance(words, i, j) / m for j in idx] for i in idx]
    )
    return float(np.linalg.eigvalsh(gram)[-1])


def ensemble_entropy(words: np.ndarray, m: int) -> float:
    """Entropy in bits of the uniform code ensemble, from the Gram side.

    The size x size Gram matrix of the sign-pattern states, divided by the
    size, has the same nonzero spectrum as the ensemble's density matrix.
    """
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=m)
    signs = 1.0 - 2.0 * bits
    gram = (signs @ signs.T) / (m * words.shape[0])
    w = np.linalg.eigvalsh(gram)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


# -- sweep -------------------------------------------------------------------


def check_protocol1_row(row: dict, theta: float, n: int, r: int) -> None:
    where = f"row theta={theta!r} n={n} r={r}"
    require(
        row.get("kind") == "protocol1"
        and row.get("theta") == theta
        and row.get("n") == n
        and row.get("r") == r,
        f"{where}: grid order or keys differ: {row.get('kind')} "
        f"{row.get('theta')} {row.get('n')} {row.get('r')}",
    )
    close(row["binding_rhs"], 1.0 + math.sin(theta), 1e-12, f"{where} binding_rhs")
    if n <= BRUTE_FORCE_MAX_N:
        close(
            row["holevo_brute_bits"],
            product_spectrum_entropy(n, theta),
            1e-8,
            f"{where} holevo_brute_bits",
        )
    else:
        require(row["holevo_brute_bits"] is None, f"{where}: brute force above n=12")
    close(row["guess_all_exact"], guess_all(n, theta), 1e-12, f"{where} guess_all_exact", rel=True)
    require(
        row["delta_covers_exact"] is not uncovered(n, theta, r),
        f"{where}: delta_covers_exact is {row['delta_covers_exact']}",
    )
    require(row["pass"] is True, f"{where}: row does not pass")


def check_equality_row(row: dict, r: int, epsilon: float) -> None:
    where = f"equality row r={r} epsilon={epsilon!r}"
    require(
        row.get("kind") == "equality" and row.get("r") == r and row.get("epsilon") == epsilon,
        f"{where}: order or keys differ",
    )
    if (r - 1) * epsilon >= 1.0:
        require(row["infeasible"] is True, f"{where}: should be infeasible")
        return
    require(row["infeasible"] is False, f"{where}: should be feasible")
    close(row["lambda_max"], 1.0 + (r - 1) * epsilon, 1e-9, f"{where} lambda_max")
    require(row["pass"] is True, f"{where}: row does not pass")


def check_sweep(report, json_text: str, csv_text: str, thetas, ns, rs, equality) -> None:
    """Per-row caps, the uncovered-row count and both serialisations."""
    grid = [(t, n, r) for t in thetas for n in ns for r in rs]
    rows = list(report.rows)
    require(
        len(rows) >= len(grid) + len(equality),
        f"report has {len(rows)} rows for {len(grid)} grid points",
    )
    for row, (t, n, r) in zip(rows, grid):
        check_protocol1_row(row, t, n, r)
    for row, (r, eps) in zip(rows[len(grid) :], equality):
        check_equality_row(row, r, eps)
    summary = report.summary
    require(summary["sound_pass"] is True, "summary: sound_pass is false")
    require(summary["rows"] == len(rows), "summary: row count differs")
    expected = sum(uncovered(n, t, r) for t, n, r in grid)
    require(
        summary["delta_uncovered_rows"] == expected,
        f"summary: {summary['delta_uncovered_rows']} uncovered rows, "
        f"the benchmark counts {expected}",
    )
    parsed = json.loads(json_text)
    require(
        len(parsed["rows"]) == len(rows) and parsed["summary"] == summary,
        "to_json does not hold the report's rows and summary",
    )
    table = list(csv.reader(io.StringIO(csv_text)))
    require(
        len(table) == len(rows) + 1 and all(len(line) == len(table[0]) for line in table),
        "to_csv does not hold one full line per row",
    )


# -- certify -----------------------------------------------------------------


def check_codebook(cb, loaded, recertified: float, regenerated, target: float) -> None:
    """A generated, saved, loaded and re-verified codebook."""
    words = all_codewords(cb.code.generator)
    own = epsilon_of(words, cb.code.m)
    close(cb.epsilon_certified, own, 1e-12, "epsilon_certified against own weights")
    require(own <= target, f"certified epsilon {own!r} above target {target!r}")
    require(
        loaded.content_id() == cb.content_id(),
        "from_json(to_json(cb)) changes content_id",
    )
    require(recertified == loaded.epsilon_certified, "verify_epsilon disagrees with the file")
    require(
        np.array_equal(regenerated.generator, cb.code.generator),
        "generator does not match regeneration from the recorded seed",
    )


def check_audit(report, cb, samples: int) -> None:
    """The cheat-set row of an audit sweep."""
    row = report.rows[-1]
    require(row.get("kind") == "cheat_sets", "audit: last row is not the cheat-set row")
    require(row["samples"] == samples, f"audit: {row['samples']} samples, asked {samples}")
    require(row["epsilon"] == cb.epsilon_certified, "audit: epsilon differs from codebook")
    require(row["infeasible"] is False, "audit: codebook admits no cheat set")
    require(row["violations"] == 0, f"audit: {row['violations']} violations")
    require(row["gap"] <= 1e-9, f"audit: gap {row['gap']!r} above 1e-9")
    require(row["pass"] is True and report.summary["sound_pass"] is True, "audit: does not pass")


def check_cheat_set_eigenvalue(q_lambda: float, words, indices, m: int) -> None:
    close(
        q_lambda,
        gram_lambda_max(words, indices, m),
        1e-9,
        f"top eigenvalue of q_operator for cheat set {list(indices)}",
    )


def check_hiding(bound: float, entropy: float, words, m: int) -> None:
    close(bound, math.log2(m), 0.0, "hiding_bound2")
    close(entropy, ensemble_entropy(words, m), 1e-8, "code_ensemble_entropy")


# -- sessions ----------------------------------------------------------------


def check_honest(record: dict, mode: str) -> None:
    verify = record["verify"]
    require(verify["mode"] == mode, f"honest session verified in {verify['mode']}")
    require(verify["accept_probability"] == 1.0, f"honest session accepts at {verify['accept_probability']!r}")
    require(record["unveil"]["claim_matches_commit"] is True, "honest claim does not match its commitment")
    expected = True if mode == "sampled" else None
    require(verify["verdict"] is expected, f"honest session verdict {verify['verdict']!r}")


def check_wrong_claim(record: dict, mode: str, expected: float, rel: bool) -> None:
    verify = record["verify"]
    require(verify["mode"] == mode, f"session verified in {verify['mode']}")
    require(record["unveil"]["claim_matches_commit"] is False, "wrong claim matches its commitment")
    close(verify["accept_probability"], expected, 1e-12, "wrong-claim acceptance", rel=rel)
    require((verify["verdict"] is None) == (mode == "exact"), "verdict does not fit the mode")


def check_cheat1(record: dict, theta: float, n: int) -> None:
    close(
        record["verify"]["accept_probability"],
        ((1.0 + math.sin(theta)) / 2.0) ** n,
        1e-12,
        "protocol-1 top-eigenvector cheat",
        rel=True,
    )


def check_cheat2(records, words, indices, m: int) -> None:
    total = sum(rec["verify"]["accept_probability"] for rec in records)
    close(
        total,
        gram_lambda_max(words, indices, m),
        1e-9,
        f"summed reveals of cheat set {list(indices)}",
    )


def check_replay(first: list[str], again: list[str]) -> None:
    require(len(first) == len(again), "replay ran a different number of sessions")
    for i, (a, b) in enumerate(zip(first, again)):
        require(a == b, f"session {i}: the same seed gave different transcript bytes")
