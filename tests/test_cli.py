import json
import math
import subprocess
import sys

import numpy as np
import pytest

from treeval import optim
from treeval.cli import main, render_report
from treeval.errors import ValidationError
from treeval.io import load_cash, load_family, load_prices, load_tree_document
from treeval.risksharing import share_value

TREE = {
    "nodes": [
        {"id": "root", "parent": None, "weight": 0.2},
        {"id": "up", "parent": "root", "weight": 0.4},
        {"id": "down", "parent": "root", "weight": 0.4},
    ],
    "assets": [{"name": "s", "prices": {"root": 1.0, "up": 2.0, "down": 0.5}}],
}
CASH = {"root": 0.0, "up": 1.0, "down": -1.0}
ENTROPIC = {"family": "entropic", "gamma": 1.0}
ENTROPIC2 = {"family": "entropic", "gamma": 2.0}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in [("tree", TREE), ("cash", CASH), ("fam", ENTROPIC), ("fam2", ENTROPIC2)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return paths


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRenderReport:
    def test_floats_round_trip(self):
        for x in (0.1, 1 / 3, -1.2345678901234567e-7, 3.0, 1e300):
            assert float(render_report(x)) == x

    def test_infinities_serialize_as_strings(self):
        assert render_report(math.inf) == '"inf"'
        assert render_report(-math.inf) == '"-inf"'

    def test_sorted_keys(self):
        assert render_report({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_numpy_scalars(self):
        assert render_report(np.float64(0.5)) == "0.5"
        assert render_report(np.int64(4)) == "4"
        assert render_report(np.bool_(True)) == "true"


class TestIO:
    def test_tree_document_with_assets(self, files):
        doc = load_tree_document(files["tree"])
        assert doc.tree.depth == 1
        assert doc.market is not None
        assert doc.market.asset_names == ("s",)

    def test_unknown_fields_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nodes": [], "extra": 1}))
        with pytest.raises(ValidationError, match="unknown fields"):
            load_tree_document(bad)

    def test_node_entry_requires_weight(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nodes": [{"id": "r", "parent": None}]}))
        with pytest.raises(ValidationError, match="missing 'weight'"):
            load_tree_document(bad)

    def test_cash_total_map(self, files):
        doc = load_tree_document(files["tree"])
        balance = load_cash(files["cash"], doc.tree)
        assert balance.value_at("down") == -1.0

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
    def test_non_finite_numbers_rejected(self, files, tmp_path, token):
        doc = load_tree_document(files["tree"])
        bad = tmp_path / "cash.json"
        bad.write_text('{"root": 0.0, "up": %s, "down": 1.0}' % token)
        with pytest.raises(ValidationError, match="finite"):
            load_cash(bad, doc.tree)

    def test_family_descriptors(self, files, tmp_path):
        doc = load_tree_document(files["tree"])
        ent = load_family(files["fam"], doc.tree)
        assert ent.kind == "entropic" and ent.entropic is not None
        worst = tmp_path / "worst.json"
        worst.write_text(json.dumps({"family": "worst", "alphas": {"root": [[0.5, 0.5]]},
                                     "stopping": True}))
        assert load_family(worst, doc.tree).kind == "worst"
        ui = tmp_path / "ui.json"
        ui.write_text(json.dumps({"family": "ui", "utility": "crra", "R": 2.0, "x0": 6.0}))
        assert load_family(ui, doc.tree).kind == "ui"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"family": "entropic", "gamma": 1.0, "beta": 2}))
        with pytest.raises(ValidationError, match="unknown fields"):
            load_family(bad, doc.tree)

    def test_prices_file(self, tmp_path, files):
        doc = load_tree_document(files["tree"])
        p = tmp_path / "prices.json"
        p.write_text(json.dumps({"one_step_prices": {"root": [0.4, 0.6]}}))
        assert load_prices(p, doc.tree) == {"root": [0.4, 0.6]}


class TestVerbs:
    def test_value(self, files, capsys):
        code, out, _ = run_cli(["value", "--tree", files["tree"], "--cash", files["cash"],
                                "--family", files["fam"], "--node", "root"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["value"] == pytest.approx(-0.3607916143083083, abs=1e-12)
        assert report["command"]["verb"] == "value"
        assert "tree" in report["inputs"]

    def test_value_defaults_to_root(self, files, capsys):
        code, out, _ = run_cli(["value", "--tree", files["tree"], "--cash", files["cash"],
                                "--family", files["fam"]], capsys)
        assert code == 0
        assert json.loads(out)["results"]["node"] == "root"

    def test_dual(self, files, capsys):
        code, out, _ = run_cli(["dual", "--tree", files["tree"], "--family", files["fam"],
                                "--cash", files["cash"], "--trials", "3", "--seed", "7"], capsys)
        assert code == 0
        report = json.loads(out)
        samples = report["results"]["samples"]
        assert len(samples) == 3
        for entry in samples:
            assert abs(entry["numeric"] - entry["closed_form"]) <= 1e-5
            assert entry["recursion_residual"] <= 1e-6
        assert report["results"]["properties"]["convexity_passed"] is True
        assert report["residuals"]["round_trip_gap"] <= 1e-5

    def test_dual_of_a_worst_case_family(self, files, tmp_path, capsys):
        # both sides of the recursion are +inf off the family's polytope
        worst = tmp_path / "worst.json"
        worst.write_text(json.dumps({"family": "worst", "alphas": {"root": [[0.5, 0.5]]},
                                     "stopping": False}))
        code, out, _ = run_cli(["dual", "--tree", files["tree"], "--family", str(worst),
                                "--trials", "3", "--seed", "7"], capsys)
        assert code == 0
        assert "nan" not in out
        for entry in json.loads(out)["results"]["samples"]:
            assert entry["numeric"] == "inf" and entry["recursion_residual"] == 0.0

    def test_infinite_tolerance_exits_2(self, files, capsys):
        code, out, err = run_cli(["dual", "--tree", files["tree"], "--family", files["fam"],
                                  "--cash", files["cash"], "--tol", "inf"], capsys)
        assert code == 2
        assert out == ""
        assert "tolerance" in err

    def test_share(self, files, capsys):
        code, out, _ = run_cli(["share", "--tree", files["tree"], "--cash", files["cash"],
                                "--family", files["fam"], files["fam2"]], capsys)
        assert code == 0
        report = json.loads(out)
        res = report["results"]
        assert res["value_of_sharing"] == pytest.approx(0.0, abs=1e-8)  # same beliefs
        assert len(res["allocation"]) == 2
        total = sum(res["allocation"][0][n] + res["allocation"][1][n] for n in CASH)
        assert total == pytest.approx(sum(CASH.values()), abs=1e-8)
        assert max(report["residuals"]["stability"].values()) <= 1e-6

    def test_share_of_an_entropic_and_a_worst_case_file_runs_no_numeric_sup(self, files, tmp_path, capsys,
                                                                           monkeypatch):
        # the polytope pooling rule covers the pair once the entropic file
        # goes in as its parameters
        worst = tmp_path / "worst.json"
        worst.write_text(json.dumps({"family": "worst", "alphas": {"root": [[0.3, 0.7]]}, "stopping": True}))

        def refuse(*args, **kwargs):
            raise AssertionError("a numeric sup ran")

        monkeypatch.setattr(optim, "sup", refuse)
        monkeypatch.setattr(optim, "newton_ascent", refuse)
        code, out, _ = run_cli(["share", "--tree", files["tree"], "--cash", files["cash"],
                                "--family", files["fam"], str(worst)], capsys)
        assert code == 0
        tree = load_tree_document(files["tree"]).tree
        subs = [load_family(files["fam"], tree).entropic, load_family(str(worst), tree).family]
        expected = share_value(subs, "root", load_cash(files["cash"], tree))
        assert json.loads(out)["results"]["value"] == expected.value

    def test_share_of_a_ui_exponential_and_a_worst_case_file_runs_no_numeric_sup(self, files, tmp_path, capsys,
                                                                              monkeypatch):
        # exponential utility's one-steps are the exponential kernel, so the
        # polytope pooling rule covers the pair, and prices it as the
        # entropic file with the same gamma
        ui = tmp_path / "ui.json"
        ui.write_text(json.dumps({"family": "ui", "utility": "exponential", "gamma": 1.0, "x0": 2.0}))
        worst = tmp_path / "worst.json"
        worst.write_text(json.dumps({"family": "worst", "alphas": {"root": [[0.3, 0.7]]}, "stopping": True}))

        def refuse(*args, **kwargs):
            raise AssertionError("a numeric sup ran")

        monkeypatch.setattr(optim, "sup", refuse)
        monkeypatch.setattr(optim, "newton_ascent", refuse)
        monkeypatch.setattr(optim, "maximize_nelder_mead", refuse)
        code, out, _ = run_cli(["share", "--tree", files["tree"], "--cash", files["cash"],
                                "--family", str(ui), str(worst)], capsys)
        assert code == 0
        report = json.loads(out)
        tree = load_tree_document(files["tree"]).tree
        subs = [load_family(files["fam"], tree).entropic, load_family(str(worst), tree).family]
        expected = share_value(subs, "root", load_cash(files["cash"], tree))
        assert report["results"]["value"] == pytest.approx(expected.value, abs=1e-14)
        assert report["residuals"]["feasibility_gap"] <= 1e-12
        assert report["residuals"]["achieved_value_gap"] <= 1e-12

    def test_share_needs_two_families(self, files, capsys):
        code, _, err = run_cli(["share", "--tree", files["tree"], "--cash", files["cash"],
                                "--family", files["fam"]], capsys)
        assert code == 2
        assert "at least two" in err

    def test_hedge(self, files, capsys):
        code, out, _ = run_cli(["hedge", "--tree", files["tree"], "--cash", files["cash"],
                                "--family", files["fam"]], capsys)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["access_value"] > 0.04
        assert res["value"] == pytest.approx(res["access_value"] + res["normalized"], abs=1e-12)
        assert "root" in res["strategy"]

    def test_spd(self, files, tmp_path, capsys):
        p = tmp_path / "prices.json"
        p.write_text(json.dumps({"one_step_prices": {"root": [0.3, 0.7]}}))
        code, out, _ = run_cli(["spd", "--tree", files["tree"], "--prices", str(p)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["zeta"]["root"] == 1.0
        assert report["residuals"]["reproduction"] <= 1e-15

    def test_check_passes_and_seed_required(self, files, capsys):
        code, out, _ = run_cli(["check", "--tree", files["tree"], "--family", files["fam"],
                                "--trials", "200", "--seed", "42"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["report"]["all_passed"] is True
        code, _, err = run_cli(["check", "--tree", files["tree"], "--family", files["fam"],
                                "--trials", "10"], capsys)
        assert code == 2
        assert "--seed" in err

    def test_check_failure_exit_code(self, files, capsys):
        # an unattainable tolerance turns roundoff into a reported failure:
        # the exit code flips to 4 and the witness balance is included
        code, out, _ = run_cli(["check", "--tree", files["tree"], "--family", files["fam"],
                                "--trials", "60", "--seed", "1", "--tol", "1e-18"], capsys)
        assert code == 4
        report = json.loads(out)
        axioms = report["results"]["report"]["axioms"]
        failed = [name for name, c in axioms.items() if not c["passed"]]
        assert failed
        assert any("witness" in axioms[name] for name in failed)

    def test_counterexample(self, files, capsys):
        code, out, _ = run_cli(["counterexample", "--tree", files["tree"],
                                "--trials", "800", "--seed", "0"], capsys)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["found"] is True
        assert res["pasting_gap"] > 1e-6
        assert res["exponential_control_gap"] <= 1e-10
        assert res["translation_defect_crra"] > 1e-6
        assert res["translation_defect_exponential"] <= 1e-12

    def test_nan_in_a_family_file_exits_2(self, files, tmp_path, capsys):
        worst = tmp_path / "worst.json"
        worst.write_text(json.dumps({"family": "worst", "alphas": {"root": [[math.nan, math.nan]]}}))
        code, out, err = run_cli(["value", "--tree", files["tree"], "--cash", files["cash"],
                                  "--family", str(worst)], capsys)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_nan_in_a_prices_file_exits_2(self, files, tmp_path, capsys):
        p = tmp_path / "prices.json"
        p.write_text(json.dumps({"one_step_prices": {"root": [math.nan, 0.7]}}))
        code, out, err = run_cli(["spd", "--tree", files["tree"], "--prices", str(p)], capsys)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_validation_error_exit_code(self, files, capsys):
        code, _, err = run_cli(["value", "--tree", files["tree"], "--cash", files["cash"],
                                "--family", files["fam"], "--node", "zzz"], capsys)
        assert code == 2
        assert "unknown node" in err

    def test_pretty_goes_to_stderr(self, files, capsys):
        code, out, err = run_cli(["value", "--tree", files["tree"], "--cash", files["cash"],
                                  "--family", files["fam"], "--pretty"], capsys)
        assert code == 0
        assert "elapsed" in err
        json.loads(out)  # stdout stays pure JSON


class TestDeterminism:
    def test_byte_identical_reports(self, files, tmp_path):
        p = tmp_path / "prices.json"
        p.write_text(json.dumps({"one_step_prices": {"root": [0.3, 0.7]}}))
        commands = [
            ["value", "--tree", files["tree"], "--cash", files["cash"], "--family", files["fam"]],
            ["dual", "--tree", files["tree"], "--family", files["fam"], "--trials", "2", "--seed", "3"],
            ["share", "--tree", files["tree"], "--cash", files["cash"],
             "--family", files["fam"], files["fam2"]],
            ["hedge", "--tree", files["tree"], "--cash", files["cash"], "--family", files["fam"]],
            ["spd", "--tree", files["tree"], "--prices", str(p)],
            ["check", "--tree", files["tree"], "--family", files["fam"], "--trials", "50", "--seed", "9"],
            ["counterexample", "--tree", files["tree"], "--trials", "300", "--seed", "2"],
        ]
        for argv in commands:
            runs = [
                subprocess.run([sys.executable, "-m", "treeval.cli", *argv],
                               capture_output=True, check=False)
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout.endswith(b"\n")
