"""The benchmark's three stages and the workloads built from them.

A stage runs in rounds.  Each round draws fresh inputs from the workload
seed, the stage, the phase and the round number, so no two rounds of a run
repeat a computation that a cache could keep, and the same seed always
gives the same rounds.  Inputs are drawn before the clock starts; checks
run after it stops.

A workload runs one stage at full size for the run's seconds, in whole
rounds, and a fixed number of rounds of the other two at a small probe
size, spread through the run, so that every run reports every end-to-end
metric.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from qbsc import adversary, codebook, harness, protocol1, protocol2, transcript
from qbsc.errors import CertificationError, NumericalError, ProtocolError

import checks
import tracer as tracing

SETUP_REPEATS = 5
PROBE_CHUNKS = 16
# workload -> the probe rounds of each other stage in one run.  The machine's
# speed moves over seconds, so a probe is steadier in many short bursts than
# in a few long ones: the certify probe round is small and comes in every
# chunk, and on `sweep`, whose own rounds leave many points between them,
# the sessions figures, which move most, get the most probe rounds.
PROBES = {
    "sweep": {"certify": 16, "sessions": 96},
    "certify": {"sweep": 4, "sessions": 48},
    "sessions": {"sweep": 4, "certify": 16},
}
WARM, MAIN, PROBE = range(3)

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sweep_s": "s",
    "certify_s": "s",
    "audit_s": "s",
    "sessions_per_s": "1/s",
    "session_p50_ms": "ms",
    "session_p90_ms": "ms",
}


@dataclass
class Tally:
    """Operations attempted and refused, and the wall time of each."""

    attempted: int = 0
    failed: int = 0
    times: dict[str, list[float]] = field(default_factory=dict)

    def timed(self, metric: str, op):
        """Run ``op`` on the clock.  A refusal of its input by the library
        counts as failed; a failed self-check of the library on the
        benchmark's valid inputs is a wrong output."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op()
        except (CertificationError, NumericalError) as exc:
            raise checks.CheckFailed(f"{metric}: {type(exc).__name__}: {exc}") from exc
        except ProtocolError:
            self.failed += 1
            return None
        self.times.setdefault(metric, []).append(time.perf_counter() - start)
        return result


def inputs(seed: int, stage: int, phase: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stage, phase, index]))


class Sweep:
    """``qbsc bounds`` without a codebook: one protocol-1 sweep and its report.

    The grid repeats each brute-force n once per r, on purpose: a sweep that
    builds each mixture once per (theta, n) shows here.  The full grid stops
    at n = 10, so that a run holds many sweeps with probe rounds between
    them: one sweep reaching n = 12 takes over 30 s here.
    """

    tag = 1
    # size -> (number of thetas, string lengths n)
    SIZES = {"full": (3, (2, 4, 6, 8, 10, 500)), "probe": (1, (2, 4, 8, 10)), "warm": (1, (2, 4))}

    def __init__(self, size: str):
        self.n_thetas, self.ns = self.SIZES[size]
        self.rs = (2, 10)

    def round(self, rng, tally: Tally, quiet, between) -> None:
        thetas = sorted(rng.uniform(0.05, 0.5, self.n_thetas).tolist())
        # the last configuration has (r - 1) * epsilon >= 1 and is infeasible
        equality = [
            (2, float(rng.uniform(0.05, 0.9))),
            (10, float(rng.uniform(0.01, 0.1))),
            (10, float(rng.uniform(0.12, 0.3))),
        ]

        def sweep():
            report = harness.bound_sweep(thetas, self.ns, self.rs, equality)
            return report, report.to_json(), report.to_csv()

        between()
        out = tally.timed("sweep_s", sweep)
        if out is not None:
            checks.check_sweep(*out, thetas, self.ns, self.rs, equality)


class Certify:
    """``qbsc codebook gen`` -> save -> load -> ``codebook verify``, then a
    cheat-set audit sweep and the exact hiding bound; a 30 s run holds two
    full-size rounds, so two seeds."""

    tag = 2
    # size -> (seeds per round, (k, m, epsilon target) of the certified codes,
    # of the audited code, cheat-set samples); the full and probe targets
    # admit the first draw
    SIZES = {
        "full": (1, (16, 1024, 0.25), (10, 1024, 0.25), 20),
        "probe": (1, (12, 512, 0.4), (8, 256, 0.4), 16),
        "warm": (1, (5, 64, 0.75), (5, 64, 0.75), 2),
    }

    def __init__(self, size: str):
        self.seeds, self.code, self.audit_code, self.samples = self.SIZES[size]

    def round(self, rng, tally: Tally, quiet, between) -> None:
        k, m, target = self.code
        for seed in rng.integers(0, 2**32, self.seeds).tolist():

            def certify():
                cb = codebook.generate_certified_codebook(n=m, epsilon_target=target, k=k, seed=seed)
                loaded = codebook.Codebook.from_json(cb.to_json())
                recertified = codebook.verify_epsilon(loaded)
                regenerated = codebook.generate_code(
                    loaded.code.k, loaded.code.m, codebook.derive_seed(loaded.seed, loaded.attempts - 1)
                )
                return cb, loaded, recertified, regenerated

            between()
            out = tally.timed("certify_s", certify)
            if out is not None:
                with quiet():
                    checks.check_codebook(*out, target)

        k, m, target = self.audit_code
        with quiet():
            cb = codebook.generate_certified_codebook(
                n=m, epsilon_target=target, k=k, seed=int(rng.integers(0, 2**32))
            )
        theta = float(rng.uniform(0.05, 0.5))
        sweep_seed = int(rng.integers(0, 2**32))

        def audit():
            report = harness.bound_sweep(
                [theta], [8], [2], codebook=cb, cheat_samples=self.samples, seed=sweep_seed
            )
            return report, protocol2.hiding_bound2(cb)

        between()
        out = tally.timed("audit_s", audit)
        if out is None:
            return
        report, bound = out
        words = checks.all_codewords(cb.code.generator)
        r_max = min(cb.size, math.ceil(1.0 / cb.epsilon_certified))
        with quiet():
            checks.check_sweep(report, report.to_json(), report.to_csv(), [theta], [8], [2], [])
            checks.check_audit(report, cb, self.samples)
            for r in (2, r_max):
                indices = rng.choice(cb.size, size=r, replace=False).tolist()
                q = protocol2.q_operator(cb, protocol2.cheat_set_for(cb, indices))
                lam = float(np.linalg.eigvalsh(q.mat)[-1])
                checks.check_cheat_set_eigenvalue(lam, words, indices, m)
            entropy = protocol2.code_ensemble_entropy(cb)
        checks.check_hiding(bound, entropy, words, m)


# Session kinds of one mix: (kind, verification mode, count).  A protocol-2
# cheat counts one session per member of its cheat set.
MIX = (
    ("honest1", "exact", 4),
    ("honest1", "sampled", 4),
    ("wrong1", "exact", 2),
    ("wrong1", "sampled", 2),
    ("honest2", "exact", 4),
    ("honest2", "sampled", 4),
    ("wrong2", "exact", 2),
    ("wrong2", "sampled", 2),
    ("cheat1", "sampled", 4),
    ("cheat2", "sampled", 2),
)
N1 = 8
CHEAT_SET_SIZE = 3


def _bits(rng, n: int) -> str:
    return "".join(str(b) for b in rng.integers(0, 2, n).tolist())


def _flip(rng, bits: str, count: int) -> str:
    out = list(bits)
    for i in rng.choice(len(bits), size=count, replace=False).tolist():
        out[i] = "1" if out[i] == "0" else "0"
    return "".join(out)


def _through_json(tr):
    return transcript.Transcript.from_json(tr.to_json())


class Sessions:
    """Closed loop, one caller: each session starts when the last one ends.

    Honest and wrong-claim sessions serialise the transcript to canonical
    JSON and parse it back between phases, as the CLI does; cheat sessions
    compute the top-eigenvector strategy and run all phases in one call.
    The protocol-2 codebook is the pinned n=32, k=6, seed=1 one.
    """

    tag = 3
    SIZES = {"full": 4, "probe": 4, "warm": 1}  # mixes per round

    def __init__(self, size: str):
        self.mixes = self.SIZES[size]
        self.cb = codebook.generate_certified_codebook(n=32, epsilon_target=0.5, k=6, seed=1)
        self.words = checks.all_codewords(self.cb.code.generator)
        self.first: list | None = None

    def _sessions(self, rng) -> list[tuple]:
        """(kind, mode, run, facts) for one round, in a seeded order."""
        cb, k = self.cb, codebook.capacity(self.cb)
        out = []
        for _ in range(self.mixes):
            for kind, mode, count in MIX:
                for _ in range(count):
                    seed = int(rng.integers(0, 2**32))
                    theta = float(rng.uniform(0.05, 0.5))
                    if kind in ("honest1", "wrong1"):
                        bits = _bits(rng, N1)
                        claimed = bits if kind == "honest1" else _flip(rng, bits, int(rng.integers(1, 4)))
                        run = self._honest(1, bits, claimed, mode, seed, theta, None)
                        out.append((kind, mode, run, (theta, bits, claimed)))
                    elif kind in ("honest2", "wrong2"):
                        index = int(rng.integers(0, cb.size))
                        claim = index
                        if kind == "wrong2":
                            claim = (index + int(rng.integers(1, cb.size))) % cb.size
                        bits, claimed = (protocol2.index_string(i, k) for i in (index, claim))
                        run = self._honest(2, bits, claimed, mode, seed, None, cb)
                        out.append((kind, mode, run, (index, claim)))
                    elif kind == "cheat1":
                        reveal = _bits(rng, N1)
                        out.append((kind, mode, self._cheat1(theta, reveal, seed), (theta,)))
                    else:
                        members = rng.choice(cb.size, size=CHEAT_SET_SIZE, replace=False).tolist()
                        cheat_set = (len(out), tuple(members))
                        for member in members:
                            out.append((kind, mode, self._cheat2(members, member, seed), cheat_set))
        order = rng.permutation(len(out)).tolist()
        return [out[i] for i in order]

    @staticmethod
    def _honest(protocol, bits, claimed, mode, seed, theta, cb):
        def run():
            tr = harness.commit_session(protocol, bits, seed, theta=theta, codebook=cb)
            tr = harness.unveil_session(_through_json(tr), claimed)
            return harness.verify_session(_through_json(tr), mode=mode, codebook=cb).to_json()

        return run

    @staticmethod
    def _cheat1(theta, reveal, seed):
        def run():
            strategy = adversary.top_eigenvector_strategy(
                protocol1.reveal_operator(theta), bound=protocol1.binding_bound1(theta)
            )
            params = protocol1.SecurityParams(theta=theta, n=len(reveal))
            return adversary.run_cheat_session(1, strategy, reveal, seed, params=params).to_json()

        return run

    def _cheat2(self, members, member, seed):
        cb = self.cb

        def run():
            cheat_set = protocol2.cheat_set_for(cb, members)
            strategy = adversary.top_eigenvector_strategy(
                protocol2.q_operator(cb, cheat_set),
                bound=protocol2.binding_bound2(cheat_set.r, cb.epsilon_certified),
            )
            reveal = protocol2.index_string(member, codebook.capacity(cb))
            return adversary.run_cheat_session(2, strategy, reveal, seed, codebook=cb).to_json()

        return run

    def round(self, rng, tally: Tally, quiet, between) -> None:
        with quiet():
            sessions = self._sessions(rng)
        between()
        before = len(tally.times.get("session", []))
        texts = [tally.timed("session", run) for _, _, run, _ in sessions]
        latencies = tally.times.get("session", [])[before:]
        if len(latencies) > 1:
            # per-round percentiles: a median pooled over the run jumps between
            # the machine's fast and slow spells; the mean of the rounds'
            # percentiles moves smoothly with the share of each
            tally.times.setdefault("session_p50", []).append(statistics.median(latencies))
            tally.times.setdefault("session_p90", []).append(statistics.quantiles(latencies, n=10)[-1])
        cheat_sets: dict[tuple, list] = {}
        for (kind, mode, _, facts), text in zip(sessions, texts):
            if text is None:
                continue
            record = json.loads(text)
            if kind in ("honest1", "honest2"):
                checks.check_honest(record, mode)
            elif kind == "wrong1":
                theta, bits, claimed = facts
                d = sum(a != b for a, b in zip(bits, claimed))
                checks.check_wrong_claim(record, mode, math.sin(theta) ** (2 * d), rel=True)
            elif kind == "wrong2":
                d = checks.distance(self.words, *facts)
                checks.check_wrong_claim(record, mode, (1.0 - 2.0 * d / self.cb.dim) ** 2, rel=False)
            elif kind == "cheat1":
                checks.check_cheat1(record, facts[0], N1)
            else:
                cheat_sets.setdefault(facts, []).append(record)
        for (_, members), records in cheat_sets.items():
            if len(records) == len(members):
                checks.check_cheat2(records, self.words, members, self.cb.dim)
        if self.first is None:
            self.first = (sessions, texts)

    def check_replay(self, quiet) -> None:
        """The first round again: the same seeds must give the same bytes."""
        sessions, texts = self.first
        with quiet():
            again = [run() if text is not None else None for (_, _, run, _), text in zip(sessions, texts)]
        checks.check_replay(texts, again)


STAGES = {"sweep": Sweep, "certify": Certify, "sessions": Sessions}


def build(workload: str) -> dict:
    return {name: cls("full" if name == workload else "probe") for name, cls in STAGES.items()}


def probe_chunks(stages: dict, workload: str) -> list[list]:
    """The other stages' probe rounds, spread evenly over the chunks."""
    chunks = [[] for _ in range(PROBE_CHUNKS)]
    for name, rounds in PROBES[workload].items():
        for index in range(rounds):
            chunks[index * PROBE_CHUNKS // rounds].append((stages[name], index))
    return chunks


def _skip() -> None:
    pass


def execute(stages: dict, workload: str, seed: int, seconds: float, tracer=None):
    """Rounds of the workload's own stage for ``seconds`` (at least one).

    The probe rounds of the other stages come in ``PROBE_CHUNKS`` chunks, due at
    even steps through ``seconds``.  Due chunks run at the next point between two
    timed operations of the own stage, so the probes sample the machine
    through the whole run; chunks still waiting when the own rounds end
    run after them.  Returns the tally and, when traced, the per-layer
    totals of the first own round plus all probe rounds.
    """
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    tally = Tally()
    own = stages[workload]
    chunks = probe_chunks(stages, workload)
    recorded = []
    index = 0

    def flush(keep: bool) -> None:
        if tracer is not None:
            stats = tracer.take()
            if keep:
                recorded.append(stats)

    def probe(chunk) -> None:
        flush(index == 0)
        for stage, i in chunk:
            stage.round(inputs(seed, stage.tag, PROBE, i), tally, quiet, _skip)
        flush(True)

    def between() -> None:
        while chunks and time.perf_counter() - start >= (PROBE_CHUNKS - len(chunks)) * seconds / PROBE_CHUNKS:
            probe(chunks.pop(0))

    start = time.perf_counter()
    while True:
        own.round(inputs(seed, own.tag, MAIN, index), tally, quiet, between)
        flush(index == 0)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    for chunk in chunks:
        probe(chunk)
    stages["sessions"].check_replay(quiet)
    flush(True)
    return tally, tracing.merge(*recorded) if tracer is not None else None


def set_up(workload: str, seed: int) -> tuple[dict, float]:
    """Build the stages and warm them up with one small round each, several
    times over; returns the last build and the median time."""
    times = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        stages = build(workload)
        for stage in (cls("warm") for cls in STAGES.values()):
            stage.round(inputs(seed, stage.tag, WARM, repeat), Tally(), contextlib.nullcontext, _skip)
        times.append(time.perf_counter() - start)
    return stages, statistics.median(times)


def end_to_end(tally: Tally, setup_s: float) -> dict:
    for name in ("sweep_s", "certify_s", "audit_s", "session", "session_p50", "session_p90"):
        checks.require(bool(tally.times.get(name)), f"no {name} operation succeeded, so it has no time")
    latencies = tally.times["session"]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sweep_s": statistics.median(tally.times["sweep_s"]),
        "certify_s": statistics.median(tally.times["certify_s"]),
        "audit_s": statistics.median(tally.times["audit_s"]),
        "sessions_per_s": len(latencies) / math.fsum(latencies),
        "session_p50_ms": statistics.fmean(tally.times["session_p50"]) * 1e3,
        "session_p90_ms": statistics.fmean(tally.times["session_p90"]) * 1e3,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, import_s: float):
    """One benchmark run: its result and its end-to-end metrics, which a
    traced run does not report but which show the tracing overhead.
    Raises :class:`checks.CheckFailed` on a wrong output."""
    stages, setup_s = set_up(workload, seed)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        tally, layers = execute(stages, workload, seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    measured = end_to_end(tally, import_s + setup_s)
    metrics = tracing.per_layer_metrics(layers) if trace else measured
    result = {"correct": True, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return result, measured
