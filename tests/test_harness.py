import math

import pytest

from qbsc import InputError, protocol1, uniform_commitment_state, von_neumann_entropy
from qbsc import harness
from qbsc.harness import bound_sweep


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


class TestSweepLimits:
    @pytest.mark.parametrize("ns, rs", [((2,), (0,)), ((2,), (2, -1)), ((0, 2), (1,))])
    def test_rejects_n_or_r_below_one(self, ns, rs):
        with pytest.raises(InputError):
            bound_sweep((0.2,), ns, rs)

    def test_r_above_n_kept(self):
        report = bound_sweep((0.2,), (2,), (10,))
        assert report.rows[0]["r"] == 10 and report.rows[0]["n"] == 2
