import json
import math

import pytest

from qbsc.cli import main


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

    @pytest.mark.parametrize("n, r", [("2", "0"), ("2", "2,-1"), ("0,2", "1")])
    def test_n_or_r_below_one_rejected(self, tmp_path, n, r):
        out = tmp_path / "report"
        assert run("bounds", "--theta", "0.2", "--n", n, "--r", r,
                   "--out", out) == 2
        assert not list(tmp_path.glob("report*"))

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
