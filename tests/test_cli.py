import json
import math

import pytest

from qbsc import protocol2
from qbsc.cli import main
from qbsc.codebook import MAX_GENERATE_M, PRNG_ID


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
        ],
        ids=[
            "index-1.5", "index-true", "n-4.7", "r-1.9", "theta-true",
            "index-null", "index-missing", "codebook_id-missing",
            "amplitudes-missing", "theta-missing", "r-null", "params-list",
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
        ],
        ids=["theta-abc", "n-4.7", "r-null", "codebook_id-missing"],
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
        ],
        ids=["epsilon-string", "attempts-float", "seed-float", "version-true",
             "dim-999", "k-missing", "generator-string", "prng_id-int",
             "prng_id-unknown"],
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
