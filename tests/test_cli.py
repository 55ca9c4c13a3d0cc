import argparse
import contextlib
import copy
import inspect
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsc import adversary, harness, protocol1, protocol2
from qbsc import codebook as codebook_module
from qbsc import cli
from qbsc.cli import build_parser, main
from qbsc.codebook import MAX_GENERATE_M, PRNG_ID
from qbsc.errors import InputError


MISSING = object()


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def codebook_path(tmp_path):
    path = tmp_path / "codebook.json"
    assert (
        run(
            "codebook", "gen", "--n", 32, "--k", 6, "--epsilon", 0.5,
            "--seed", 1, "--out", path,
        )
        == 0
    )
    return path


class TestSessionFlow:
    def test_honest_protocol1(self, tmp_path, capsys):
        t = tmp_path / "session.json"
        assert run("commit", "--bits", "1010", "--theta", 0.2, "--seed", 3,
                   "--transcript", t) == 0
        assert run("unveil", "--transcript", t, "--bits", "1010") == 0
        assert run("verify", "--transcript", t, "--mode", "exact") == 0
        out = capsys.readouterr().out
        assert "acceptance probability: 1" in out
        record = json.loads(t.read_text())
        assert record["phase"] == "verified"
        assert record["verify"]["accept_probability"] == 1.0

    def test_single_flip_probability(self, tmp_path, capsys):
        t = tmp_path / "session.json"
        run("commit", "--bits", "1010", "--theta", 0.1, "--seed", 3,
            "--transcript", t)
        run("unveil", "--transcript", t, "--bits", "1011")
        assert run("verify", "--transcript", t, "--mode", "exact") == 0
        record = json.loads(t.read_text())
        assert record["verify"]["accept_probability"] == pytest.approx(
            math.sin(0.1) ** 2, rel=1e-12
        )

    def test_verify_before_unveil_phase_error(self, tmp_path):
        t = tmp_path / "session.json"
        run("commit", "--bits", "10", "--theta", 0.2, "--seed", 1,
            "--transcript", t)
        assert run("verify", "--transcript", t) == 3

    def test_malformed_transcript_input_error(self, tmp_path):
        t = tmp_path / "session.json"
        t.write_text("{broken")
        assert run("verify", "--transcript", t) == 2

    def test_missing_transcript_input_error(self, tmp_path):
        assert run("verify", "--transcript", tmp_path / "absent.json") == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--transcript"),
            ("codebook", "verify", "--codebook"),
            ("bounds", "--theta", 0.2, "--n", 2, "--r", 1, "--out", "report",
             "--codebook"),
        ],
        ids=["verify", "codebook-verify", "bounds"],
    )
    def test_directory_path_input_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run(*argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_protocol2_flow(self, tmp_path, codebook_path):
        t = tmp_path / "session2.json"
        assert run("commit", "--protocol", 2, "--bits", "101101",
                   "--codebook", codebook_path, "--seed", 4,
                   "--transcript", t) == 0
        assert run("unveil", "--transcript", t, "--bits", "101101") == 0
        assert run("verify", "--transcript", t, "--codebook", codebook_path,
                   "--mode", "sampled") == 0
        record = json.loads(t.read_text())
        assert record["verify"]["accept_probability"] == 1.0
        assert record["verify"]["verdict"] is True

    def test_unveiled_without_unveil_record_input_error(self, tmp_path, capsys):
        t = tmp_path / "session.json"
        run("commit", "--bits", "10", "--theta", 0.2, "--seed", 1,
            "--transcript", t)
        run("unveil", "--transcript", t, "--bits", "10")
        payload = json.loads(t.read_text())
        for unveil in (None, {"claim_matches_commit": True}, {"claimed": 10}):
            payload["unveil"] = unveil
            t.write_text(json.dumps(payload))
            assert run("verify", "--transcript", t) == 2
            assert "unveil" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "qubit", [[1], [[1, 0], [0]], [[float("nan"), 0.0], [0.0, 0.0]]]
    )
    def test_malformed_qubit_entry_input_error(self, tmp_path, capsys, qubit):
        t = tmp_path / "session.json"
        run("commit", "--bits", "10", "--theta", 0.2, "--seed", 1,
            "--transcript", t)
        run("unveil", "--transcript", t, "--bits", "10")
        payload = json.loads(t.read_text())
        payload["commit"]["message"]["qubits"][0] = qubit
        t.write_text(json.dumps(payload))
        assert run("verify", "--transcript", t) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("message", [{"kind": "qubit_amplitudes", "qubits": 5},
                                         {"kind": "qubit_density_matrices"},
                                         "qubits", None])
    def test_malformed_protocol1_message_input_error(self, tmp_path, capsys, message):
        t = tmp_path / "session.json"
        run("commit", "--bits", "10", "--theta", 0.2, "--seed", 1,
            "--transcript", t)
        run("unveil", "--transcript", t, "--bits", "10")
        payload = json.loads(t.read_text())
        payload["commit"]["message"] = message
        t.write_text(json.dumps(payload))
        assert run("verify", "--transcript", t) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "commit.message" in err

    @pytest.mark.parametrize("seeds", [{}, {"session": None}, {"session": "4"}])
    def test_sampled_verify_without_session_seed_input_error(
        self, tmp_path, codebook_path, capsys, seeds
    ):
        t = tmp_path / "session2.json"
        run("commit", "--protocol", 2, "--bits", "101101",
            "--codebook", codebook_path, "--seed", 4, "--transcript", t)
        run("unveil", "--transcript", t, "--bits", "101101")
        payload = json.loads(t.read_text())
        payload["seeds"] = seeds
        t.write_text(json.dumps(payload))
        assert run("verify", "--transcript", t, "--codebook", codebook_path,
                   "--mode", "sampled") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seeds.session" in err
        assert run("verify", "--transcript", t, "--codebook", codebook_path) == 0

    @pytest.mark.parametrize(
        "protocol, path, value",
        [
            (2, ("commit", "message", "index"), 1.5),
            (2, ("commit", "message", "index"), True),
            (1, ("params", "n"), 4.7),
            (1, ("params", "r"), 1.9),
            (1, ("params", "theta"), True),
            (2, ("commit", "message", "index"), None),
            (2, ("commit", "message", "index"), MISSING),
            (2, ("params", "codebook_id"), MISSING),
            (2, ("commit", "message"), {"kind": "state_amplitudes"}),
            (1, ("params", "theta"), MISSING),
            (1, ("params", "r"), None),
            (1, ("params",), []),
            (1, ("params", "theta"), 10**400),
        ],
        ids=[
            "index-1.5", "index-true", "n-4.7", "r-1.9", "theta-true",
            "index-null", "index-missing", "codebook_id-missing",
            "amplitudes-missing", "theta-missing", "r-null", "params-list",
            "theta-huge-int",
        ],
    )
    def test_mistyped_or_missing_field_input_error(
        self, tmp_path, codebook_path, capsys, protocol, path, value
    ):
        t = tmp_path / "session.json"
        if protocol == 1:
            run("commit", "--bits", "1010", "--theta", 0.2, "--seed", 1,
                "--transcript", t)
            run("unveil", "--transcript", t, "--bits", "1010")
        else:
            run("commit", "--protocol", 2, "--bits", "000001",
                "--codebook", codebook_path, "--seed", 1, "--transcript", t)
            run("unveil", "--transcript", t, "--bits", "000001")
        payload = json.loads(t.read_text())
        *parents, key = path
        record = payload
        for name in parents:
            record = record[name]
        if value is MISSING:
            del record[key]
        else:
            record[key] = value
        t.write_text(json.dumps(payload))
        assert run("verify", "--transcript", t, "--codebook", codebook_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert key in err

    @pytest.mark.parametrize(
        "protocol, key, value",
        [
            (1, "theta", "abc"),
            (1, "n", 4.7),
            (1, "r", None),
            (2, "codebook_id", MISSING),
            (1, "theta", -(10**400)),
            (2, "epsilon", "0.375"),
            (2, "dim", 32.0),
            (2, "capacity", None),
        ],
        ids=[
            "theta-abc", "n-4.7", "r-null", "codebook_id-missing", "theta-huge-int",
            "epsilon-string", "dim-float", "capacity-null",
        ],
    )
    def test_unveil_reads_params_strictly(
        self, tmp_path, codebook_path, capsys, protocol, key, value
    ):
        t = tmp_path / "session.json"
        if protocol == 1:
            bits = "1010"
            run("commit", "--bits", bits, "--theta", 0.2, "--seed", 1,
                "--transcript", t)
        else:
            bits = "000001"
            run("commit", "--protocol", 2, "--bits", bits,
                "--codebook", codebook_path, "--seed", 1, "--transcript", t)
        payload = json.loads(t.read_text())
        if value is MISSING:
            del payload["params"][key]
        else:
            payload["params"][key] = value
        t.write_text(json.dumps(payload))
        before = t.read_bytes()
        assert run("unveil", "--transcript", t, "--bits", bits) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert t.read_bytes() == before

    @pytest.mark.parametrize(
        "salt", [MISSING, 5, None, "zz"], ids=["missing", "int", "null", "non-hex"]
    )
    def test_unveil_reads_salt_strictly(self, tmp_path, capsys, salt):
        t = tmp_path / "session.json"
        run("commit", "--bits", "1010", "--theta", 0.2, "--seed", 1,
            "--transcript", t)
        payload = json.loads(t.read_text())
        assert payload["commit"]["string_sha256"] is not None
        if salt is MISSING:
            del payload["commit"]["salt"]
        else:
            payload["commit"]["salt"] = salt
        t.write_text(json.dumps(payload))
        before = t.read_bytes()
        assert run("unveil", "--transcript", t, "--bits", "1010") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "salt" in err
        assert "Traceback" not in err
        assert t.read_bytes() == before

    @pytest.mark.parametrize(
        "key, value", [("epsilon", 0.01), ("dim", 7), ("capacity", 99)]
    )
    def test_protocol2_params_must_match_the_codebook(
        self, tmp_path, codebook_path, capsys, key, value
    ):
        t = tmp_path / "session2.json"
        run("commit", "--protocol", 2, "--bits", "101101",
            "--codebook", codebook_path, "--seed", 4, "--transcript", t)
        payload = json.loads(t.read_text())
        assert payload["params"][key] != value
        payload["params"][key] = value
        t.write_text(json.dumps(payload))
        if key == "capacity":
            # the claim is read against the recorded capacity, as verify reads it
            command, refusal = ("unveil", "--bits", "101101"), "expected a 99-bit string"
        else:
            assert run("unveil", "--transcript", t, "--bits", "101101") == 0
            command, refusal = ("verify", "--codebook", codebook_path), f"transcript's {key}"
        before = t.read_bytes()
        assert run(command[0], "--transcript", t, *command[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and refusal in err
        assert t.read_bytes() == before

    def test_protocol2_verify_needs_matching_codebook(self, tmp_path, codebook_path):
        other = tmp_path / "other.json"
        run("codebook", "gen", "--n", 32, "--k", 6, "--epsilon", 0.5,
            "--seed", 7, "--out", other)
        t = tmp_path / "session2.json"
        run("commit", "--protocol", 2, "--bits", "000000",
            "--codebook", codebook_path, "--seed", 4, "--transcript", t)
        run("unveil", "--transcript", t, "--bits", "000000")
        assert run("verify", "--transcript", t, "--codebook", other) == 2

    def test_deterministic_reruns(self, tmp_path):
        def session(path):
            run("commit", "--bits", "110010", "--theta", 0.1, "--seed", 17,
                "--transcript", path)
            run("unveil", "--transcript", path, "--bits", "110011")
            run("verify", "--transcript", path, "--mode", "sampled")
            return path.read_text()

        assert session(tmp_path / "a.json") == session(tmp_path / "b.json")


class TestCodebookCommands:
    def test_gen_writes_certificate(self, codebook_path):
        payload = json.loads(codebook_path.read_text())
        assert payload["epsilon_certified"] <= 0.5
        assert payload["k"] == 6 and payload["dim"] == 32

    def test_info(self, codebook_path, capsys):
        assert run("codebook", "info", "--codebook", codebook_path) == 0
        out = capsys.readouterr().out
        assert "capacity (k): 6" in out
        assert "epsilon_certified: 0.375" in out
        # the receiver's exact whole-string guess, 26 distinct columns of 32
        assert "\nguess_string_exact: 0.39619690184059703\n" in out

    def test_info_of_one_state_guesses_surely(self, tmp_path, capsys):
        # k = 0, m = 5: sqrt(5) squared rounds above 5
        cb = codebook_module.fingerprint_states(
            codebook_module.BinaryCode(np.zeros((0, 5), dtype=np.uint8)), 0
        )
        path = tmp_path / "one_state.json"
        path.write_text(cb.to_json())
        assert run("codebook", "info", "--codebook", path) == 0
        assert "\nguess_string_exact: 1\n" in capsys.readouterr().out

    def test_verify_ok(self, codebook_path):
        assert run("codebook", "verify", "--codebook", codebook_path) == 0

    def test_verify_tampered_row(self, tmp_path, codebook_path):
        payload = json.loads(codebook_path.read_text())
        row = list(payload["generator"][2])
        row[-1] = "f" if row[-1] != "f" else "e"
        payload["generator"][2] = "".join(row)
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(payload))
        assert run("codebook", "verify", "--codebook", bad) == 4

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda row: "f" + row,  # wide: the old parser dropped the extra digit
            lambda row: "-" + row[1:],  # negative
            lambda row: row[1:],  # short
            lambda row: row.upper(),  # uppercase
        ],
        ids=["wide", "negative", "short", "uppercase"],
    )
    @pytest.mark.parametrize("action", ["verify", "info"])
    def test_non_canonical_generator_rows_input_error(
        self, tmp_path, codebook_path, capsys, rewrite, action
    ):
        payload = json.loads(codebook_path.read_text())
        assert any(c in "abcdef" for row in payload["generator"] for c in row)
        payload["generator"] = [rewrite(row) for row in payload["generator"]]
        bad = tmp_path / "noncanonical.json"
        bad.write_text(json.dumps(payload))
        assert run("codebook", action, "--codebook", bad) == 2
        captured = capsys.readouterr()
        assert "generator row" in captured.err and "content_id" not in captured.out

    @pytest.mark.parametrize(
        "key, value",
        [
            ("epsilon_certified", "0.375"),
            ("attempts", 1.0),
            ("seed", 1.0),
            ("version", True),
            ("dim", 999),
            ("k", MISSING),
            ("generator", "00"),
            ("prng_id", 7),
            ("prng_id", "mt19937"),
            ("epsilon_certified", 10**400),
        ],
        ids=["epsilon-string", "attempts-float", "seed-float", "version-true",
             "dim-999", "k-missing", "generator-string", "prng_id-int",
             "prng_id-unknown", "epsilon-huge-int"],
    )
    @pytest.mark.parametrize("action", ["verify", "info"])
    def test_mistyped_or_unknown_field_input_error(
        self, tmp_path, codebook_path, capsys, key, value, action
    ):
        payload = json.loads(codebook_path.read_text())
        if value is MISSING:
            del payload[key]
        else:
            payload[key] = value
        bad = tmp_path / "mistyped.json"
        bad.write_text(json.dumps(payload))
        assert run("codebook", action, "--codebook", bad) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and key in captured.err
        assert "Traceback" not in captured.err
        assert "content_id" not in captured.out

    @pytest.mark.parametrize("m", [MAX_GENERATE_M + 1, 10**9])
    @pytest.mark.parametrize("action", ["verify", "info"])
    def test_oversized_length_input_error(self, tmp_path, capsys, m, action):
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps({
            "version": 1, "dim": m, "k": 0, "m": m, "seed": 0,
            "prng_id": PRNG_ID, "generator": [], "epsilon_certified": 0.0,
            "attempts": 1,
        }))
        assert run("codebook", action, "--codebook", bad) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "codebook.m" in captured.err
        assert "Traceback" not in captured.err
        assert "content_id" not in captured.out

    def test_gen_beyond_exhaustive_regime_rejected_before_enumeration(
        self, tmp_path, monkeypatch
    ):
        from qbsc.codebook import BinaryCode

        def never(self):
            raise AssertionError("weights enumerated for an unsupported k")

        monkeypatch.setattr(BinaryCode, "nonzero_codeword_weights", never)
        out = tmp_path / "never.json"
        assert run("codebook", "gen", "--n", 64, "--k", 17, "--epsilon", 1.0,
                   "--out", out) == 2
        assert not out.exists()

    def test_gen_infeasible_exit_code(self, tmp_path):
        out = tmp_path / "never.json"
        assert run("codebook", "gen", "--n", 4, "--k", 3, "--epsilon", 0.01,
                   "--seed", 2, "--out", out) == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ("codebook", "info"),
            ("commit", "--protocol", 2, "--bits", "101101", "--transcript", "s.json"),
        ],
        ids=["info", "commit"],
    )
    def test_failed_pair_check_on_load_numerical_error(
        self, tmp_path, codebook_path, capsys, monkeypatch, argv
    ):
        original = codebook_module._amplitudes

        sides = []

        def flip_first_sign_of_i_side(words):
            amps = original(words)
            if not sides:
                amps[0, 0] = -amps[0, 0]
            sides.append(words)
            return amps

        monkeypatch.setattr(codebook_module, "_amplitudes", flip_first_sign_of_i_side)
        monkeypatch.chdir(tmp_path)
        assert run(*argv, "--codebook", codebook_path) == 5
        captured = capsys.readouterr()
        assert re.match(r"error: overlap identity violated for pair \(\d+, \d+\)",
                        captured.err)
        assert captured.out == "" and not (tmp_path / "s.json").exists()


class TestBoundsCommand:
    def test_writes_json_and_csv(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert run("bounds", "--theta", "0.05:0.5:5", "--n", "2,8", "--r", "2",
                   "--epsilon", "0.1", "--seed", 0, "--out", out) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["summary"]["sound_pass"] is True
        assert report["summary"]["max_sound_violation"] <= 1e-8
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.splitlines()[0].startswith("kind,theta,n,r")
        assert len(csv_text.splitlines()) == 1 + report["summary"]["rows"]
        assert "sound pass: True" in capsys.readouterr().out

    def test_equality_rows_hit_cap(self, tmp_path):
        out = tmp_path / "report"
        run("bounds", "--theta", "0.2", "--n", "4", "--r", "3",
            "--epsilon", "0.1", "--out", out)
        report = json.loads((tmp_path / "report.json").read_text())
        rows = [r for r in report["rows"] if r["kind"] == "equality"]
        assert rows and all(r["pass"] for r in rows)
        assert rows[0]["lambda_max"] == pytest.approx(1.2, abs=1e-9)

    def test_infeasible_equality_rows_marked_not_fatal(self, tmp_path):
        out = tmp_path / "report"
        assert run("bounds", "--theta", "0.2", "--n", "4", "--r", "2,10",
                   "--epsilon", "0.1,0.3", "--out", out) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        rows = [r for r in report["rows"] if r["kind"] == "equality"]
        flags = {(r["r"], r["epsilon"]): r["infeasible"] for r in rows}
        assert flags[(10, 0.3)] is True  # (r-1)*eps = 2.7
        assert flags[(2, 0.1)] is False

    def test_overlap_outside_unit_interval_infeasible_at_r_one(self, tmp_path):
        out = tmp_path / "report"
        assert run("bounds", "--theta", "0.2", "--n", "2", "--r", "1",
                   "--epsilon", "5,-0.5", "--out", out) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        rows = [r for r in report["rows"] if r["kind"] == "equality"]
        assert [(r["epsilon"], r["infeasible"]) for r in rows] == [(5, True), (-0.5, True)]

    def test_codebook_row_samples_cheat_sets(self, tmp_path, codebook_path):
        out = tmp_path / "report"
        assert run("bounds", "--theta", "0.2", "--n", "4", "--r", "2",
                   "--codebook", codebook_path, "--cheat-samples", 50,
                   "--seed", 5, "--out", out) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        rows = [r for r in report["rows"] if r["kind"] == "cheat_sets"]
        assert rows[0]["violations"] == 0
        assert rows[0]["samples"] == 50

    def test_deterministic_reports(self, tmp_path):
        for name in ("x", "y"):
            run("bounds", "--theta", "0.1,0.3", "--n", "2,6", "--r", "2",
                "--seed", 9, "--out", tmp_path / name)
        assert (tmp_path / "x.json").read_text() == (tmp_path / "y.json").read_text()
        assert (tmp_path / "x.csv").read_text() == (tmp_path / "y.csv").read_text()

    @pytest.mark.parametrize("samples", [0, -3])
    def test_cheat_samples_below_one_rejected_before_any_row(
        self, tmp_path, codebook_path, monkeypatch, capsys, samples
    ):
        from qbsc import harness

        def never(*args):
            raise AssertionError("row computed before the flags were checked")

        monkeypatch.setattr(harness, "_protocol1_row", never)
        out = tmp_path / "report"
        assert run("bounds", "--theta", "0.2", "--n", "4", "--r", "2",
                   "--codebook", codebook_path, "--cheat-samples", samples,
                   "--out", out) == 2
        assert "cheat_samples" in capsys.readouterr().err
        assert not list(tmp_path.glob("report*"))

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0.1,-inf", "0.1,nan"])
    def test_non_finite_equality_epsilon_rejected_before_any_row(
        self, tmp_path, monkeypatch, capsys, epsilon
    ):
        from qbsc import harness

        def never(*args):
            raise AssertionError("row computed before the flags were checked")

        monkeypatch.setattr(harness, "_protocol1_row", never)
        out = tmp_path / "report"
        assert run("bounds", "--theta", "0.2", "--n", "4", "--r", "2",
                   "--epsilon", epsilon, "--out", out) == 2
        assert "epsilon" in capsys.readouterr().err
        assert not list(tmp_path.glob("report*"))

    @pytest.mark.parametrize("n, r", [("2", "0"), ("2", "2,-1"), ("0,2", "1")])
    def test_n_or_r_below_one_rejected(self, tmp_path, n, r):
        out = tmp_path / "report"
        assert run("bounds", "--theta", "0.2", "--n", n, "--r", r,
                   "--out", out) == 2
        assert not list(tmp_path.glob("report*"))

    @pytest.mark.parametrize("r", ["1024", "2,5000"])
    def test_r_beyond_float_range_rejected_before_any_row(
        self, tmp_path, monkeypatch, capsys, r
    ):
        from qbsc import harness

        def never(*args):
            raise AssertionError("row computed before the flags were checked")

        monkeypatch.setattr(harness, "_protocol1_row", never)
        out = tmp_path / "report"
        assert run("bounds", "--theta", "0.2", "--n", "2", "--r", r,
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "1023" in err
        assert not list(tmp_path.glob("report*"))

    def test_largest_r_still_sweeps(self, tmp_path):
        out = tmp_path / "report"
        assert run("bounds", "--theta", "0.2", "--n", "2", "--r", "1023",
                   "--out", out) == 0
        (row,) = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert row["delta_vacuous"] is True

    def test_empty_grid_rejected(self, tmp_path):
        assert run("bounds", "--theta", "abc", "--n", "2", "--r", "1",
                   "--out", tmp_path / "r") == 2

    @pytest.mark.parametrize(
        "out, written",
        [
            ("run.v2", ("run.v2.json", "run.v2.csv")),
            ("run.v2.json", ("run.v2.json", "run.v2.csv")),
            ("run.v2.csv", ("run.v2.json", "run.v2.csv")),
            ("report", ("report.json", "report.csv")),
            ("report.json", ("report.json", "report.csv")),
        ],
    )
    def test_out_keeps_the_dots_in_its_name(self, tmp_path, out, written):
        assert run("bounds", "--theta", "0.2", "--n", "2", "--r", "1",
                   "--out", tmp_path / out) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)

    @pytest.mark.parametrize("theta", ["0", repr(math.pi / 2), "0.2,0"])
    def test_theta_outside_the_session_interval_refused(self, tmp_path, capsys, theta):
        # commit and cheat refuse these angles, so the sweep does too
        assert run("bounds", "--theta", theta, "--n", "2", "--r", "1",
                   "--out", tmp_path / "r") == 2
        assert capsys.readouterr().err.startswith("error: theta ")
        assert list(tmp_path.iterdir()) == []


class TestCheatCommand:
    def test_protocol1_cheat(self, tmp_path, capsys):
        t = tmp_path / "cheat.json"
        assert run("cheat", "--protocol", 1, "--theta", 0.2, "--reveal", "0000",
                   "--seed", 2, "--transcript", t) == 0
        record = json.loads(t.read_text())
        per_bit = (1 + math.sin(0.2)) / 2
        assert record["verify"]["accept_probability"] == pytest.approx(
            per_bit**4, rel=1e-10
        )
        assert "strategy value:" in capsys.readouterr().out

    def test_protocol2_cheat(self, tmp_path, codebook_path):
        t = tmp_path / "cheat2.json"
        assert run("cheat", "--protocol", 2, "--codebook", codebook_path,
                   "--cheat-set", "3,17,40", "--reveal", "000011",
                   "--seed", 2, "--transcript", t) == 0
        record = json.loads(t.read_text())
        assert record["strategy"]["kind"] == "top-eigenvector"
        assert record["strategy"]["achieved"] <= 1 + 2 * 0.375 + 1e-9

    def test_protocol2_custom_cheat_builds_no_reveal_operator(
        self, tmp_path, codebook_path, monkeypatch
    ):
        def never(*args):
            raise AssertionError("q_operator called on the custom-state path")

        monkeypatch.setattr(protocol2, "q_operator", never)
        t = tmp_path / "cheat2.json"
        assert run("cheat", "--protocol", 2, "--codebook", codebook_path,
                   "--cheat-set", "3,17,40", "--reveal", "000011",
                   "--strategy", "custom", "--seed", 2, "--transcript", t) == 0
        record = json.loads(t.read_text())
        assert record["strategy"]["kind"] == "custom-state"
        assert record["strategy"]["achieved"] is None

    @pytest.mark.parametrize("protocol", [1, 2])
    def test_verify_reproduces_cheat_record(self, tmp_path, codebook_path, protocol):
        t = tmp_path / "cheat.json"
        if protocol == 1:
            assert run("cheat", "--protocol", 1, "--theta", 0.2, "--reveal", "0110",
                       "--seed", 5, "--transcript", t) == 0
        else:
            assert run("cheat", "--protocol", 2, "--codebook", codebook_path,
                       "--cheat-set", "3,17,40", "--reveal", "010001",
                       "--seed", 5, "--transcript", t) == 0
        cheated = t.read_text()
        payload = json.loads(cheated)
        payload["phase"], payload["verify"] = "unveiled", None
        t.write_text(json.dumps(payload))
        assert run("verify", "--transcript", t, "--codebook", codebook_path,
                   "--mode", "sampled") == 0
        assert t.read_text() == cheated

    def test_protocol1_cheat_needs_theta(self, tmp_path, capsys):
        t = tmp_path / "cheat.json"
        assert run("cheat", "--protocol", 1, "--reveal", "0000",
                   "--transcript", t) == 2
        assert "--theta" in capsys.readouterr().err

    def test_protocol2_cheat_needs_cheat_set(self, tmp_path, codebook_path, capsys):
        t = tmp_path / "cheat2.json"
        assert run("cheat", "--protocol", 2, "--codebook", codebook_path,
                   "--reveal", "000011", "--transcript", t) == 2
        assert "--cheat-set" in capsys.readouterr().err
        assert not t.exists()


NESTED = "[" * 5000 + "]" * 5000  # json.dumps cannot write it


class TestUnreadableFiles:
    """A file only the parser can refuse exits 2 from every command that
    reads one, with an error line and no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("unveil", "--transcript", "{bad}", "--bits", "10"),
            ("verify", "--transcript", "{bad}"),
            ("verify", "--transcript", "{session}", "--codebook", "{bad}"),
            ("commit", "--protocol", 2, "--bits", "101101", "--codebook", "{bad}",
             "--transcript", "{out}"),
            ("bounds", "--theta", 0.2, "--n", 2, "--r", 1, "--codebook", "{bad}",
             "--out", "{out}"),
            ("cheat", "--protocol", 2, "--codebook", "{bad}", "--cheat-set", "3,17",
             "--reveal", "000011", "--transcript", "{out}"),
            ("codebook", "info", "--codebook", "{bad}"),
            ("codebook", "verify", "--codebook", "{bad}"),
        ],
        ids=["unveil", "verify", "verify-codebook", "commit", "bounds", "cheat",
             "codebook-info", "codebook-verify"],
    )
    def test_nested_file_exits_2(self, tmp_path, capsys, argv):
        paths = {name: tmp_path / f"{name}.json" for name in ("bad", "session", "out")}
        paths["bad"].write_text(NESTED)
        run("commit", "--bits", "10", "--theta", 0.2, "--seed", 1,
            "--transcript", paths["session"])
        run("unveil", "--transcript", paths["session"], "--bits", "10")
        capsys.readouterr()
        assert run(*(str(a).format(**paths) for a in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert paths["bad"].read_text() == NESTED
        assert not any(tmp_path.glob("out*"))


def _refusal(call) -> str:
    """The message of the one ``InputError`` a library reader raises."""
    with pytest.raises(InputError) as refused:
        call()
    return str(refused.value)


def _cli_refusal(capsys, *argv) -> str:
    """The message of the one error line a command exits 2 with."""
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err.removeprefix("error: ").rstrip("\n")


# one table per kind of session input: codebook indices for the README's
# k = 6 codebook of 64 states, and bit strings for 4-bit sessions
BAD_INDICES = {"negative": -1, "2^k": 64, "2^70": 2**70}
SET_SHAPE = "cheat set must be a non-empty 1-D sequence of int64 integers"
BAD_BITS = {"alphabet": "10x1", "too-short": "101", "too-long": "10101", "empty": ""}


class TestOneReaderPerInput:
    @pytest.mark.parametrize("name", list(BAD_INDICES))
    def test_every_index_reader_gives_one_message(self, tmp_path, codebook_path, capsys, name):
        value = BAD_INDICES[name]
        cb = codebook_module.Codebook.from_json(codebook_path.read_text())
        t = tmp_path / "session2.json"
        run("commit", "--protocol", 2, "--bits", "000001", "--codebook", codebook_path,
            "--seed", 1, "--transcript", t)
        run("unveil", "--transcript", t, "--bits", "000001")
        payload = json.loads(t.read_text())
        payload["commit"]["message"]["index"] = value
        t.write_text(json.dumps(payload))
        lookups = {
            "state": lambda: _refusal(lambda: cb.state(value)),
            "codewords": lambda: _refusal(lambda: cb.code.codewords([value])),
            "qbsc verify": lambda: _cli_refusal(
                capsys, "verify", "--transcript", t, "--codebook", codebook_path),
        }
        members = {
            "cheat_set_for": lambda: _refusal(lambda: protocol2.cheat_set_for(cb, [3, value])),
            "cheat_set_grams": lambda: _refusal(
                lambda: list(protocol2.cheat_set_grams(cb, [[3, value]]))),
            "cheat_set_grams-array": lambda: _refusal(
                lambda: list(protocol2.cheat_set_grams(cb, np.array([[3, value]])))),
            "qbsc cheat": lambda: _cli_refusal(
                capsys, "cheat", "--protocol", 2, "--codebook", codebook_path,
                "--cheat-set", f"3,{value}", "--reveal", "000011",
                "--transcript", tmp_path / "cheat.json"),
        }
        lookup = f"message {value} out of range for k=6"
        assert {read() for read in lookups.values()} == {lookup}
        # sets are stacked as int64, so a member beyond it is a set of the wrong shape
        assert {read() for read in members.values()} == {SET_SHAPE if value >= 2**63 else lookup}
        assert not (tmp_path / "cheat.json").exists()

    @pytest.mark.parametrize("name", list(BAD_BITS))
    def test_every_bit_string_reader_gives_one_message(self, tmp_path, capsys, name):
        bits = BAD_BITS[name]
        path = tmp_path / "codebook.json"
        run("codebook", "gen", "--n", 32, "--k", 4, "--epsilon", 0.5, "--seed", 1, "--out", path)
        cb = codebook_module.Codebook.from_json(path.read_text())
        params = protocol1.SecurityParams(theta=0.2, n=4)
        committed = {1: harness.commit_session(1, "1011", seed=1, theta=0.2),
                     2: harness.commit_session(2, "1011", seed=1, codebook=cb)}
        strategies = {1: adversary.CheatStrategy("custom-state", protocol1.encode_bit(0, 0.2)),
                      2: adversary.CheatStrategy("custom-state", cb.state(0))}
        verify_flags = {1: (), 2: ("--codebook", path)}
        readers = {}
        for protocol in (1, 2):
            t, claimed = tmp_path / f"p{protocol}.json", tmp_path / f"p{protocol}-claimed.json"
            t.write_text(committed[protocol].to_json())
            claimed.write_text(committed[protocol].with_unveil(bits).to_json())
            readers |= {
                f"unveil_session-{protocol}": lambda p=protocol: _refusal(
                    lambda: harness.unveil_session(committed[p], bits)),
                f"verify_session-{protocol}": lambda p=protocol: _refusal(
                    lambda: harness.verify_session(committed[p].with_unveil(bits), codebook=cb)),
                f"run_cheat_session-{protocol}": lambda p=protocol: _refusal(
                    lambda: adversary.run_cheat_session(p, strategies[p], bits, 1, params, cb)),
                f"qbsc unveil-{protocol}": lambda t=t: _cli_refusal(
                    capsys, "unveil", "--transcript", t, "--bits", bits),
                f"qbsc verify-{protocol}": lambda p=protocol, t=claimed: _cli_refusal(
                    capsys, "verify", "--transcript", t, *verify_flags[p]),
            }
        readers |= {
            "commit_session-2": lambda: _refusal(
                lambda: harness.commit_session(2, bits, seed=1, codebook=cb)),
            "qbsc commit-2": lambda: _cli_refusal(
                capsys, "commit", "--protocol", 2, "--bits", bits, "--codebook", path,
                "--transcript", tmp_path / "out.json"),
            "qbsc cheat-2": lambda: _cli_refusal(
                capsys, "cheat", "--protocol", 2, "--codebook", path, "--cheat-set", "3,5",
                "--reveal", bits, "--transcript", tmp_path / "out.json"),
        }
        if name == "alphabet":
            # protocol 1 commits and cheats take n from the string itself
            readers |= {
                "commit_session-1": lambda: _refusal(
                    lambda: harness.commit_session(1, bits, seed=1, theta=0.2)),
                "qbsc commit-1": lambda: _cli_refusal(
                    capsys, "commit", "--bits", bits, "--theta", 0.2,
                    "--transcript", tmp_path / "out.json"),
                "qbsc cheat-1": lambda: _cli_refusal(
                    capsys, "cheat", "--theta", 0.2, "--reveal", bits,
                    "--transcript", tmp_path / "out.json"),
            }
        messages = {reader: read() for reader, read in readers.items()}
        assert set(messages.values()) == {f"expected a 4-bit string over {{0,1}}, got {bits!r}"}
        assert len(messages) == (16 if name == "alphabet" else 13)
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("protocol, bits", [(1, "1010"), (2, "101101")])
    def test_bad_claim_at_unveil_leaves_the_session_open(
        self, tmp_path, codebook_path, capsys, protocol, bits
    ):
        t = tmp_path / "session.json"
        codebook = () if protocol == 1 else ("--codebook", codebook_path)
        assert run("commit", "--protocol", protocol, "--bits", bits, "--seed", 2,
                   "--theta", 0.2, "--transcript", t, *codebook) == 0
        before = t.read_bytes()
        for claim in (bits[:-1] + "x", bits[:-1], bits + "0", ""):
            assert run("unveil", "--transcript", t, "--bits", claim) == 2
            assert t.read_bytes() == before
        assert run("unveil", "--transcript", t, "--bits", bits) == 0
        capsys.readouterr()
        assert run("verify", "--transcript", t, "--mode", "exact", *codebook) == 0
        assert capsys.readouterr().out == "acceptance probability: 1\n"

    def test_each_input_rule_is_written_once(self):
        # the index range's text is counted with the cheat-set checks in test_protocol2
        package = Path(cli.__file__).parent
        source = "".join(path.read_text() for path in sorted(package.glob("*.py")))
        assert source.count("-bit string over") == 1
        assert list(inspect.signature(protocol2._cheat_sets).parameters) == ["sets"]
        for function in (protocol1.commit, protocol1.verify_unveil,
                         protocol2.string_index, harness.unveil_session):
            assert "_parse_bits(" in inspect.getsource(function), function.__name__


SESSION_FLAGS = ("--protocol", "--theta", "--r", "--codebook", "--seed", "--transcript")


def _commands():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


@pytest.mark.parametrize("flag", SESSION_FLAGS)
def test_commit_and_cheat_share_one_declaration_of_each_session_flag(flag):
    commands = _commands()
    assert commands["commit"]._option_string_actions[flag] is (
        commands["cheat"]._option_string_actions[flag]
    )


@pytest.mark.parametrize("command", ["commit", "cheat"])
def test_help_lists_every_flag(command):
    parser = _commands()[command]
    text = parser.format_help()
    flags = [flag for action in parser._actions for flag in action.option_strings]
    assert set(SESSION_FLAGS) <= set(flags)
    for flag in flags:
        assert flag in text, flag


def test_each_boundary_rule_has_one_owner():
    """One parse of JSON text and one phase-order refusal in the package, and
    one cheat-session call in the command line driver."""
    package = Path(cli.__file__).parent
    source = "".join(path.read_text() for path in sorted(package.glob("*.py")))
    assert source.count("json.loads") == 1
    assert source.count("requires phase") == 1
    assert Path(cli.__file__).read_text().count("run_cheat_session(") == 1


class TestSolverFailure:
    """A failed eigensolve exits 5 with an error line on every path."""

    BOUNDS = ("bounds", "--theta", 0.2, "--n", 2, "--r", 1, "--format", "json")

    @staticmethod
    def failing_after(monkeypatch, name, passed):
        """``np.linalg.<name>`` answering its first ``passed`` calls and
        raising LinAlgError from then on."""
        solve, calls = getattr(np.linalg, name), []

        def solver(mat):
            calls.append(mat.shape)
            if len(calls) > passed:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(mat)

        monkeypatch.setattr(np.linalg, name, solver)
        return calls

    def run_failing(self, capsys, *argv):
        assert run(*argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: eigenvalue solver failed") and "Traceback" not in err

    @pytest.mark.parametrize("extra", ["none", "epsilon", "codebook"])
    def test_bounds(self, tmp_path, codebook_path, capsys, monkeypatch, extra):
        out = ("--out", tmp_path / "report")
        # the protocol-1 rows come first: count their solves, then let the
        # added row's solve be the one that fails
        calls = self.failing_after(monkeypatch, "eigvalsh", math.inf)
        assert run(*self.BOUNDS, *out) == 0
        passed = len(calls) if extra != "none" else 0
        self.failing_after(monkeypatch, "eigvalsh", passed)
        rows = {
            "none": (),
            "epsilon": ("--epsilon", 0.3),
            "codebook": ("--codebook", codebook_path, "--cheat-samples", 2),
        }[extra]
        self.run_failing(capsys, *self.BOUNDS, *rows, *out)

    @pytest.mark.parametrize("protocol", [1, 2])
    def test_cheat(self, tmp_path, codebook_path, capsys, monkeypatch, protocol):
        self.failing_after(monkeypatch, "eigh", 0)
        if protocol == 1:
            args = ("--theta", 0.2, "--reveal", "0110")
        else:
            args = ("--codebook", codebook_path, "--cheat-set", "3,17", "--reveal", "000011")
        self.run_failing(capsys, "cheat", "--protocol", protocol, *args,
                         "--transcript", tmp_path / "cheat.json")


HUGE = 10**400
RETYPED = ("x", True, False, [], None, HUGE, -HUGE, math.nan, math.inf, -math.inf)
EXIT_CODES = {0, 2, 3, 4, 5}
BITS = {"p1": "10", "p2": "101101"}


def _paths(node, prefix=()):
    """Every path below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, data):
    """A copy of ``doc`` with one drawn mutation."""
    doc = copy.deepcopy(doc)
    kind = data.draw(
        st.sampled_from(("drop", "retype", "phase", "index", "matrix", "upper"))
    )
    if kind == "phase":
        doc["phase"] = data.draw(
            st.sampled_from(("committed", "unveiled", "verified", "", "UNVEILED"))
        )
        return doc
    if kind == "index":
        if "commit" in doc:
            parent, key = doc["commit"]["message"], "index"
        else:
            parent = doc
            key = data.draw(st.sampled_from(("attempts", "seed", "k", "m", "dim")))
        parent[key] = data.draw(st.sampled_from((-1, 0, 64, 2**63, HUGE)))
        return doc
    # a protocol-2 transcript holds no list: its matrices replace a scalar
    wanted = {"matrix": list, "upper": str}.get(kind, object)
    paths = [p for p in _paths(doc) if isinstance(_at(doc, p), wanted)]
    path = data.draw(st.sampled_from(paths or list(_paths(doc))))
    parent, key = _at(doc, path[:-1]), path[-1]
    value = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = data.draw(st.sampled_from(RETYPED))
    elif kind == "upper":
        parent[key] = value.upper()
    else:
        variants = [[], [[]]]
        if isinstance(value, list):
            variants.append(value[:-1])
            if value and isinstance(value[0], (list, str)):
                variants.append([value[0][:-1]] + value[1:])  # ragged
        parent[key] = data.draw(st.sampled_from(variants))
    return doc


LONG_INT = 7 * 10**30 + 1  # stands in for one integer, then made 5,000 digits long


def _mutated_text(doc, data):
    """The text of ``doc`` with one drawn mutation: one of ``_mutate``'s, or
    one only the parser can refuse (the document nested 5,000 levels deep,
    or one integer replaced by 5,000 digits), which json.dumps cannot write.

    Hypothesis raises the recursion limit by 2,000 frames while a test runs,
    so a document nested 1,000 levels deep would still parse here."""
    kind = data.draw(st.sampled_from(("document",) * 6 + ("nested", "long-integer")))
    if kind == "nested":
        return "[" * 5000 + json.dumps(doc) + "]" * 5000
    if kind == "long-integer":
        doc = copy.deepcopy(doc)
        path = data.draw(st.sampled_from(
            [p for p in _paths(doc) if type(_at(doc, p)) is int]
        ))
        _at(doc, path[:-1])[path[-1]] = LONG_INT
        text = json.dumps(doc)
        assert text.count(str(LONG_INT)) == 1
        return text.replace(str(LONG_INT), "7" * 5000)
    return json.dumps(_mutate(doc, data))


@pytest.fixture(scope="module")
def boundary_files(tmp_path_factory):
    """Valid committed and unveiled transcripts of both protocols and the
    pinned codebook, as parsed JSON, next to the codebook's file."""
    root = tmp_path_factory.mktemp("boundary")
    cb = root / "codebook.json"
    run("codebook", "gen", "--n", 32, "--k", 6, "--epsilon", 0.5, "--seed", 1,
        "--out", cb)
    docs = {"codebook": json.loads(cb.read_text())}
    for name, extra in (("p1", ("--theta", 0.2)), ("p2", ("--codebook", cb))):
        t = root / "session.json"
        run("commit", "--protocol", name[1], "--bits", BITS[name], "--seed", 4,
            "--transcript", t, *extra)
        docs[f"{name}-committed"] = json.loads(t.read_text())
        run("unveil", "--transcript", t, "--bits", BITS[name])
        docs[f"{name}-unveiled"] = json.loads(t.read_text())
    return root, cb, docs


class TestBoundaryFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(("p1", "p2", "codebook")), st.booleans(), st.data())
    def test_mutated_files_map_to_exit_codes(
        self, boundary_files, target, unveiled, data
    ):
        root, cb, docs = boundary_files
        bad, p2 = root / "mutated.json", root / "p2-unveiled.json"
        out = root / "out.json"
        if target == "codebook":
            doc = docs["codebook"]
            calls = [
                ("codebook", "verify", "--codebook", bad),
                ("codebook", "info", "--codebook", bad),
                ("verify", "--transcript", p2, "--codebook", bad),
                ("commit", "--protocol", 2, "--bits", BITS["p2"], "--codebook", bad,
                 "--transcript", out),
                ("bounds", "--theta", 0.2, "--n", 2, "--r", 1, "--codebook", bad,
                 "--cheat-samples", 2, "--format", "json", "--out", out),
                ("cheat", "--protocol", 2, "--codebook", bad, "--cheat-set", "3,17",
                 "--reveal", "000011", "--transcript", out),
            ]
        elif not unveiled:
            doc = docs[f"{target}-committed"]
            calls = [("unveil", "--transcript", bad, "--bits", BITS[target])]
        else:
            doc = docs[f"{target}-unveiled"]
            cb_args = ("--codebook", cb) if target == "p2" else ()
            calls = [
                ("verify", "--transcript", bad, "--mode", mode, *cb_args)
                for mode in ("exact", "sampled")
            ]
        text = _mutated_text(doc, data)
        for argv in calls:
            # the session commands write their transcript back
            bad.write_text(text)
            p2.write_text(json.dumps(docs["p2-unveiled"]))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(*argv)
            assert code in EXIT_CODES
            assert code == 0 or err.getvalue().startswith("error:")
