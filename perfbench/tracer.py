"""Per-layer spans, recorded from outside the library.

:meth:`Tracer.install` wraps every public function and public method of the
layer modules of ``qbsc``.  A module that imported a function by name holds
its own reference, so the wrapper replaces that name in every ``qbsc``
module that holds the same object; methods are replaced on their class.
Nothing under ``src/`` changes.

Each span adds its wall time to its name's total and to its parent span's
child time, so a span's self time is its total minus the time its traced
callees took.  A few spans also record a figure computed from the result.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("linalg", "protocol1", "protocol2", "codebook", "adversary", "transcript", "harness")

# span -> (figure, how it folds over calls, how it is read from a result)
RESULT_FIGURES = {
    "protocol1.uniform_commitment_state": ("bytes", max, lambda rho: rho.mat.nbytes),
    "codebook.BinaryCode.nonzero_codeword_weights": ("codewords", sum, len),
    "protocol2.q_operator": ("dim", max, lambda op: op.dim),
    "transcript.Transcript.to_json": ("bytes", sum, len),
}

# metric -> (span, figure, unit); the names are the benchmark's per-layer metrics
PER_LAYER = {
    "protocol1.uniform_commitment_state.calls": ("protocol1.uniform_commitment_state", "calls", "count"),
    "protocol1.uniform_commitment_state.s": ("protocol1.uniform_commitment_state", "s", "s"),
    "protocol1.uniform_commitment_state.bytes": ("protocol1.uniform_commitment_state", "bytes", "bytes"),
    "protocol1.binding_bound1.s": ("protocol1.binding_bound1", "s", "s"),
    "protocol1.top_reveal_eigenvalue.calls": ("protocol1.top_reveal_eigenvalue", "calls", "count"),
    "linalg.von_neumann_entropy.s": ("linalg.von_neumann_entropy", "s", "s"),
    "adversary.guess_all_oracle.s": ("adversary.guess_all_oracle", "s", "s"),
    "protocol2.equality_configuration.s": ("protocol2.equality_configuration", "s", "s"),
    "harness.BoundReport.to_json.s": ("harness.BoundReport.to_json", "s", "s"),
    "harness.BoundReport.to_csv.s": ("harness.BoundReport.to_csv", "s", "s"),
    "harness.bound_sweep.self_s": ("harness.bound_sweep", "self_s", "s"),
    "codebook.nonzero_codeword_weights.calls": ("codebook.BinaryCode.nonzero_codeword_weights", "calls", "count"),
    "codebook.nonzero_codeword_weights.s": ("codebook.BinaryCode.nonzero_codeword_weights", "s", "s"),
    "codebook.nonzero_codeword_weights.codewords": ("codebook.BinaryCode.nonzero_codeword_weights", "codewords", "count"),
    "codebook.generate_code.calls": ("codebook.generate_code", "calls", "count"),
    "codebook.generate_code.s": ("codebook.generate_code", "s", "s"),
    "codebook.rank_gf2.s": ("codebook.rank_gf2", "s", "s"),
    "codebook.verify_epsilon.calls": ("codebook.verify_epsilon", "calls", "count"),
    "codebook.verify_epsilon.s": ("codebook.verify_epsilon", "s", "s"),
    "codebook.Codebook.from_json.s": ("codebook.Codebook.from_json", "s", "s"),
    "protocol2.q_operator.calls": ("protocol2.q_operator", "calls", "count"),
    "protocol2.q_operator.s": ("protocol2.q_operator", "s", "s"),
    "protocol2.q_operator.dim": ("protocol2.q_operator", "dim", "count"),
    "protocol2.code_ensemble_entropy.s": ("protocol2.code_ensemble_entropy", "s", "s"),
    "harness.commit_session.s": ("harness.commit_session", "s", "s"),
    "harness.unveil_session.s": ("harness.unveil_session", "s", "s"),
    "harness.verify_session.s": ("harness.verify_session", "s", "s"),
    "transcript.Transcript.to_json.s": ("transcript.Transcript.to_json", "s", "s"),
    "transcript.Transcript.from_json.s": ("transcript.Transcript.from_json", "s", "s"),
    "transcript.bytes": ("transcript.Transcript.to_json", "bytes", "bytes"),
    "protocol1.verify_unveil.s": ("protocol1.verify_unveil", "s", "s"),
    "protocol2.verify_unveil2.s": ("protocol2.verify_unveil2", "s", "s"),
    "codebook.Codebook.state.calls": ("codebook.Codebook.state", "calls", "count"),
    "adversary.top_eigenvector_strategy.s": ("adversary.top_eigenvector_strategy", "s", "s"),
    "adversary.run_cheat_session.s": ("adversary.run_cheat_session", "s", "s"),
}


class Tracer:
    """Span totals per public function of the library's layer modules."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.recording = True
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "qbsc" or name.startswith("qbsc.")]
        for layer in LAYERS:
            module = importlib.import_module(f"qbsc.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{name}", obj)
                    for holder in modules:
                        for attr, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{name}", obj)

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            span = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(span, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(span, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run library calls that belong to the benchmark, not the workload."""
        previous, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = previous

    def take(self) -> dict[str, dict]:
        """The totals recorded since the last call, which start afresh."""
        stats, self.stats = self.stats, {}
        return stats

    def _wrap(self, span: str, fn):
        figure = RESULT_FIGURES.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                stat = self.stats.setdefault(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
                stat["calls"] += 1
                stat["s"] += elapsed
                stat["self_s"] += elapsed - children
            if figure is not None:
                key, fold, read = figure
                stat[key] = fold((stat.get(key, 0), read(result)))
            return result

        return traced


def merge(*parts: dict[str, dict]) -> dict[str, dict]:
    """Totals of several recordings; result figures fold as they do per call."""
    out: dict[str, dict] = {}
    for part in parts:
        for span, stat in part.items():
            into = out.setdefault(span, {})
            figure = RESULT_FIGURES.get(span)
            for key, value in stat.items():
                fold = figure[1] if figure is not None and figure[0] == key else sum
                into[key] = fold((into.get(key, 0), value))
    return out


def per_layer_metrics(stats: dict[str, dict]) -> dict[str, dict]:
    metrics = {}
    for name, (span, figure, unit) in PER_LAYER.items():
        value = stats.get(span, {}).get(figure, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
