"""Tests of the benchmark itself: every output check passes on real output
and fails on a perturbed copy, the traced run's counts repeat exactly, and
BENCHMARK.json names the metrics the code reports.

    python3 -m pytest perfbench -q
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from qbsc import adversary, codebook, harness, linalg, protocol1, protocol2  # noqa: E402
from qbsc.errors import CertificationError, InputError, NumericalError  # noqa: E402

import checks  # noqa: E402
import stages  # noqa: E402
import tracer as tracing  # noqa: E402

THETAS = [0.15, 0.3]
NS = (2, 8, 500)
RS = (2, 10)
EQUALITY = [(2, 0.3), (10, 0.05), (10, 0.2)]


def fails(check, *args, **kwargs):
    with pytest.raises(checks.CheckFailed):
        check(*args, **kwargs)


# -- sweep -------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_report():
    return harness.bound_sweep(THETAS, NS, RS, EQUALITY)


def check_sweep(report, csv_text=None):
    csv_text = report.to_csv() if csv_text is None else csv_text
    checks.check_sweep(report, report.to_json(), csv_text, THETAS, NS, RS, EQUALITY)


def changed(report, index=None, key=None, value=None, summary=None):
    rows = copy.deepcopy(list(report.rows))
    if index is not None:
        rows[index][key] = value(rows[index][key])
    return harness.BoundReport(rows=tuple(rows), summary={**report.summary, **(summary or {})})


def test_sweep_checks_pass(sweep_report):
    check_sweep(sweep_report)
    assert 0 < sweep_report.summary["delta_uncovered_rows"] < len(THETAS) * len(RS)


EQUALITY_ROW = len(THETAS) * len(NS) * len(RS)


@pytest.mark.parametrize(
    "index, key, value",
    [
        (0, "holevo_brute_bits", lambda v: v + 1e-7),
        (1, "binding_rhs", lambda v: v + 1e-11),
        (2, "guess_all_exact", lambda v: v * (1 + 1e-9)),
        (4, "delta_covers_exact", lambda v: not v),
        (3, "pass", lambda v: False),
        (EQUALITY_ROW, "lambda_max", lambda v: v + 1e-8),
        (EQUALITY_ROW + 2, "infeasible", lambda v: False),
    ],
)
def test_sweep_row_perturbations_fail(sweep_report, index, key, value):
    fails(check_sweep, changed(sweep_report, index, key, value))


@pytest.mark.parametrize(
    "summary",
    [lambda s: {"sound_pass": False}, lambda s: {"delta_uncovered_rows": s["delta_uncovered_rows"] + 1}],
)
def test_sweep_summary_perturbations_fail(sweep_report, summary):
    fails(check_sweep, changed(sweep_report, summary=summary(sweep_report.summary)))


def test_sweep_csv_perturbation_fails(sweep_report):
    fails(check_sweep, sweep_report, sweep_report.to_csv().rsplit("\n", 2)[0] + "\n")


# -- certify -----------------------------------------------------------------

K, M, TARGET = 6, 64, 0.75


@pytest.fixture(scope="module")
def certified():
    cb = codebook.generate_certified_codebook(n=M, epsilon_target=TARGET, k=K, seed=11)
    loaded = codebook.Codebook.from_json(cb.to_json())
    recertified = codebook.verify_epsilon(loaded)
    regenerated = codebook.generate_code(K, M, codebook.derive_seed(cb.seed, cb.attempts - 1))
    return cb, loaded, recertified, regenerated


def test_codebook_checks_pass(certified):
    checks.check_codebook(*certified, TARGET)


def test_codebook_perturbations_fail(certified):
    cb, loaded, recertified, regenerated = certified
    wrong = dataclasses.replace(cb, epsilon_certified=cb.epsilon_certified + 2 / M)
    fails(checks.check_codebook, wrong, loaded, recertified, regenerated, TARGET)
    fails(checks.check_codebook, cb, loaded, recertified, regenerated, cb.epsilon_certified - 1e-3)
    other = dataclasses.replace(loaded, attempts=loaded.attempts + 1)
    fails(checks.check_codebook, cb, other, recertified, regenerated, TARGET)
    fails(checks.check_codebook, cb, loaded, recertified + 1e-9, regenerated, TARGET)
    drawn = codebook.generate_code(K, M, cb.seed + 1)
    fails(checks.check_codebook, cb, loaded, recertified, drawn, TARGET)


def test_own_enumeration_matches_library_weights(certified):
    cb = certified[0]
    words = checks.all_codewords(cb.code.generator)
    assert np.array_equal(checks.weights(words[1:]), cb.code.nonzero_codeword_weights())
    assert checks.distance(words, 5, 9) == int((cb.code.codeword(5) != cb.code.codeword(9)).sum())


@pytest.fixture(scope="module")
def audit(certified):
    cb = certified[0]
    return cb, harness.bound_sweep([0.2], [8], [2], codebook=cb, cheat_samples=5, seed=3)


def test_audit_checks_pass(audit):
    cb, report = audit
    checks.check_audit(report, cb, 5)


@pytest.mark.parametrize(
    "key, value", [("violations", 1), ("gap", 1e-6), ("samples", 4), ("pass", False)]
)
def test_audit_perturbations_fail(audit, key, value):
    cb, report = audit
    fails(checks.check_audit, changed(report, len(report.rows) - 1, key, lambda v: value), cb, 5)


def test_cheat_set_eigenvalue_check(certified):
    cb = certified[0]
    words = checks.all_codewords(cb.code.generator)
    indices = [1, 7, 30]
    q = protocol2.q_operator(cb, protocol2.cheat_set_for(cb, indices))
    lam = float(np.linalg.eigvalsh(q.mat)[-1])
    checks.check_cheat_set_eigenvalue(lam, words, indices, M)
    fails(checks.check_cheat_set_eigenvalue, lam + 1e-8, words, indices, M)


def test_hiding_checks(certified):
    cb = certified[0]
    words = checks.all_codewords(cb.code.generator)
    bound, entropy = protocol2.hiding_bound2(cb), protocol2.code_ensemble_entropy(cb)
    checks.check_hiding(bound, entropy, words, M)
    fails(checks.check_hiding, bound, entropy + 1e-7, words, M)
    fails(checks.check_hiding, bound + 1e-12, entropy, words, M)


# -- sessions ----------------------------------------------------------------


@pytest.fixture(scope="module")
def pinned():
    cb = codebook.generate_certified_codebook(n=32, epsilon_target=0.5, k=6, seed=1)
    return cb, checks.all_codewords(cb.code.generator)


def session(protocol, bits, claimed, mode, theta=None, cb=None):
    run = stages.Sessions._honest(protocol, bits, claimed, mode, 7, theta, cb)
    return json.loads(run())


def perturbed(record, section, key, value):
    out = copy.deepcopy(record)
    out[section][key] = value(out[section][key])
    return out


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_honest_checks(pinned, mode):
    for record in (
        session(1, "10110100", "10110100", mode, theta=0.3),
        session(2, "101101", "101101", mode, cb=pinned[0]),
    ):
        checks.check_honest(record, mode)
        fails(checks.check_honest, perturbed(record, "verify", "accept_probability", lambda v: 0.999), mode)
        fails(checks.check_honest, perturbed(record, "unveil", "claim_matches_commit", lambda v: False), mode)
        fails(checks.check_honest, perturbed(record, "verify", "verdict", lambda v: False), mode)
        fails(checks.check_honest, record, "exact" if mode == "sampled" else "sampled")


def test_wrong_claim_checks(pinned):
    cb, words = pinned
    record = session(1, "10110100", "10010110", "exact", theta=0.3)
    expected = np.sin(0.3) ** 4  # two mismatched bits
    checks.check_wrong_claim(record, "exact", expected, rel=True)
    bumped = perturbed(record, "verify", "accept_probability", lambda v: v * (1 + 1e-9))
    fails(checks.check_wrong_claim, bumped, "exact", expected, rel=True)

    record = session(2, "101101", "001100", "sampled", cb=cb)
    expected = (1 - 2 * checks.distance(words, 0b101101, 0b001100) / 32) ** 2
    checks.check_wrong_claim(record, "sampled", expected, rel=False)
    bumped = perturbed(record, "verify", "accept_probability", lambda v: v + 1e-9)
    fails(checks.check_wrong_claim, bumped, "sampled", expected, rel=False)
    fails(checks.check_wrong_claim, perturbed(record, "unveil", "claim_matches_commit", lambda v: True), "sampled", expected, rel=False)


def test_cheat_checks(pinned):
    cb, words = pinned
    record = json.loads(stages.Sessions._cheat1(0.3, "01100111", 4)())
    checks.check_cheat1(record, 0.3, 8)
    fails(checks.check_cheat1, perturbed(record, "verify", "accept_probability", lambda v: v * (1 + 1e-9)), 0.3, 8)

    sessions = stages.Sessions("warm")
    members = [3, 17, 40]
    records = [json.loads(sessions._cheat2(members, i, 5)()) for i in members]
    checks.check_cheat2(records, words, members, 32)
    records[1] = perturbed(records[1], "verify", "accept_probability", lambda v: v + 1e-8)
    fails(checks.check_cheat2, records, words, members, 32)


def test_replay_check():
    texts = ['{"a":1}\n', '{"b":2}\n']
    checks.check_replay(texts, list(texts))
    fails(checks.check_replay, texts, [texts[0], '{"b":3}\n'])


# -- operations the library refuses ------------------------------------------


def raising(error):
    def op():
        raise error("refused")

    return op


def test_refused_input_counts_as_failed():
    tally = stages.Tally()
    assert tally.timed("sweep_s", raising(InputError)) is None
    assert (tally.attempted, tally.failed, tally.times) == (1, 1, {})


@pytest.mark.parametrize("error", [NumericalError, CertificationError])
def test_failed_self_check_is_a_wrong_output(error):
    fails(stages.Tally().timed, "certify_s", raising(error))


def test_metric_without_a_successful_operation_is_a_wrong_output():
    tally = stages.Tally()
    for metric in ("sweep_s", "certify_s", "session", "session_p50", "session_p90"):
        tally.timed(metric, lambda: None)
    tally.timed("audit_s", raising(InputError))
    fails(stages.end_to_end, tally, 0.1)
    tally.timed("audit_s", lambda: None)
    assert set(stages.end_to_end(tally, 0.1)) == set(stages.END_TO_END)


# -- tracing and the metric names --------------------------------------------


def traced_counts(seed):
    probe = {name: cls("probe") for name, cls in stages.STAGES.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, layers = stages.execute(probe, "sessions", seed, 0, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.per_layer_metrics(layers)
    return {name: m["value"] for name, m in metrics.items() if m["unit"] != "s"}


def test_traced_counts_repeat_exactly():
    first, second = traced_counts(5), traced_counts(5)
    assert first == second
    assert all(value > 0 for value in first.values())


def test_tracer_restores_the_library():
    original = linalg.von_neumann_entropy
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.von_neumann_entropy is not original
        assert protocol1.verify_unveil is adversary.verify_unveil
    finally:
        tracer.uninstall()
    assert harness.von_neumann_entropy is original is linalg.von_neumann_entropy


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(stages.STAGES)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(stages.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, _, unit) in tracing.PER_LAYER.items()
    ]
