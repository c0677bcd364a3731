import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeval
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

    @pytest.mark.parametrize("second", ["fam2", "worst"])
    def test_share_builds_one_pooled_family(self, files, tmp_path, capsys, monkeypatch, second):
        # the stability map's pooled gradients sweep the family that gave
        # the value, not a second build of it
        worst = tmp_path / "worst.json"
        worst.write_text(json.dumps({"family": "worst", "alphas": {"root": [[0.3, 0.7]]}, "stopping": True}))
        paths = {**files, "worst": str(worst)}
        layouts, inner = [], treeval.risksharing._layout
        monkeypatch.setattr(treeval.risksharing, "_layout", lambda families: layouts.append(1) or inner(families))
        code, _, _ = run_cli(["share", "--tree", files["tree"], "--cash", files["cash"],
                              "--family", files["fam"], paths[second]], capsys)
        assert code == 0
        assert len(layouts) == 1

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


VERBS = ["value", "dual", "share", "hedge", "spd", "check", "counterexample"]


class TestMalformedFlags:
    """Every verb checks --seed, --trials, --tol and --max-iter before any
    work and exits 2 on a malformed one, with nothing on stdout."""

    @pytest.mark.parametrize("flag, value, name", [
        ("--seed", "-1", "seed"), ("--trials", "0", "trials"), ("--trials", "-1", "trials"),
        ("--tol", "nan", "tolerance"), ("--tol", "-1", "tolerance"), ("--max-iter", "0", "max_iterations"),
    ])
    @pytest.mark.parametrize("verb", VERBS)
    def test_exits_2_without_a_report(self, verb, flag, value, name, files, tmp_path, capsys):
        prices = tmp_path / "prices.json"
        prices.write_text(json.dumps({"one_step_prices": {"root": [0.3, 0.7]}}))
        cash, fam = ["--cash", files["cash"]], ["--family", files["fam"]]
        argv = {"value": cash + fam, "dual": cash + fam + ["--trials", "2", "--seed", "0"],
                "share": cash + fam + [files["fam2"]], "hedge": cash + fam, "spd": ["--prices", str(prices)],
                "check": fam + ["--trials", "5", "--seed", "0"],
                "counterexample": ["--trials", "50", "--seed", "0"]}[verb]
        code, out, err = run_cli([verb, "--tree", files["tree"], *argv, flag, value], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {name} must be") and "Traceback" not in err


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
        # pytest puts src on its own import path only; the child needs it too
        env = {**os.environ, "PYTHONPATH": str(Path(treeval.__file__).parents[1])}
        for argv in commands:
            runs = [
                subprocess.run([sys.executable, "-m", "treeval.cli", *argv],
                               capture_output=True, check=False, env=env)
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout.endswith(b"\n")


# Documents for the error contract: valid ones on a small tree whose nodes
# have two children or one, each then left as it is or hit by a few random
# edits (a value replaced by any JSON value, a key or element dropped, an
# unknown key added).
CONTRACT_TREE = {
    "nodes": [{"id": i, "parent": p, "weight": 1 / 6} for i, p in
              [("r", None), ("u", "r"), ("d", "r"), ("uu", "u"), ("ud", "u"), ("dd", "d")]],
    "assets": [{"name": "s", "prices": {"r": 1.0, "u": 2.0, "d": 0.5, "uu": 4.0, "ud": 1.0, "dd": 0.5}}],
}
CONTRACT_FAMILIES = [
    {"family": "entropic", "gamma": 1.0},
    {"family": "worst", "alphas": {"r": [[0.5, 0.5]], "u": [[0.3, 0.7], [0.6, 0.4]], "d": [[1.0]]},
     "stopping": True},
    {"family": "ui", "utility": "crra", "R": 2.0, "x0": 5.0},
    {"family": "ui", "utility": "exponential", "gamma": 0.7},
]
CONTRACT_NUMBERS = st.one_of(st.sampled_from([0, 1, -1, 0.5, 2.0, 1e-300, 1e300, -1e300, 5e-324]),
                             st.floats(-1e6, 1e6), st.floats(allow_nan=True, allow_infinity=True))
CONTRACT_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), CONTRACT_NUMBERS,
              st.sampled_from(["r", "u", "x", "entropic", "worst", "ui", "crra", "exponential"])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["r", "u", "d", "x"]), inner,
                                                               max_size=3),
    max_leaves=6)


def _edit(data, doc):
    """doc as it is, or after one to three random edits at random places."""
    for _ in range(data.draw(st.integers(1, 3)) if data.draw(st.booleans()) else 0):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            parent, key = node, data.draw(st.sampled_from(keys))
            node = node[key]
        action = data.draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "add" and isinstance(node, dict):
            node[data.draw(st.sampled_from(["x", "r", "extra"]))] = data.draw(CONTRACT_VALUES)
        elif action == "drop" and parent is not None:
            del parent[key]
        elif parent is not None:
            parent[key] = data.draw(CONTRACT_VALUES)
        else:
            doc = data.draw(CONTRACT_VALUES)
    return doc


def _has_nan(obj) -> bool:
    if isinstance(obj, dict):
        return any(_has_nan(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_nan(v) for v in obj)
    return obj == "nan" or (isinstance(obj, float) and math.isnan(obj))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), verb=st.sampled_from(["value", "dual", "share", "hedge", "spd", "check", "counterexample"]))
def test_malformed_documents_keep_the_exit_code_contract(data, verb):
    # exit 0, 2, 3 or 4 only, never a traceback, and no NaN in a report
    # that exits 0; the documents are valid ones with random edits
    docs = {
        "tree": _edit(data, json.loads(json.dumps(CONTRACT_TREE))),
        "cash": _edit(data, {"r": 0.0, "u": 1.0, "d": -1.0, "uu": 0.5, "ud": 2.0, "dd": -0.5}),
        "fam": _edit(data, json.loads(json.dumps(data.draw(st.sampled_from(CONTRACT_FAMILIES))))),
        "fam2": _edit(data, json.loads(json.dumps(data.draw(st.sampled_from(CONTRACT_FAMILIES))))),
        "prices": _edit(data, {"one_step_prices": {"r": [0.4, 0.6], "u": [0.5, 0.5], "d": [1.0]}}),
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        tree, cash, fam = ["--tree", paths["tree"]], ["--cash", paths["cash"]], ["--family", paths["fam"]]
        argv = {"value": cash + fam, "dual": cash + fam + ["--trials", "1", "--seed", "0"],
                "share": cash + fam + [paths["fam2"]], "hedge": cash + fam,
                "spd": ["--prices", paths["prices"]], "check": fam + ["--trials", "2", "--seed", "0"],
                "counterexample": fam + ["--trials", "1", "--seed", "0"]}[verb]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, *tree, *argv])
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 0:
        assert not _has_nan(json.loads(out.getvalue()))


@pytest.mark.parametrize("first, second", [(i, j) for i in range(len(CONTRACT_FAMILIES))
                                           for j in range(i, len(CONTRACT_FAMILIES))])
def test_share_of_every_ordered_pair_of_families_runs_and_ignores_their_order(first, second, tmp_path):
    # each node's stability residual is measured against the pooled
    # gradient there: a worst-case family with stopping has the gradient
    # e_0 at the root, zero below it, so it was no shadow for the subtree.
    # A CRRA family pools with another one by numeric one-step sups, whose
    # splits the order of the families moves within their gradient test
    # (1e-6); the residuals moved by 1e-10 at most, so 1e-8 there
    paths = {}
    cash = {"r": 0.0, "u": 1.0, "d": -1.0, "uu": 0.5, "ud": 2.0, "dd": -0.5}
    for name, doc in [("tree", CONTRACT_TREE), ("cash", cash), ("a", CONTRACT_FAMILIES[first]),
                      ("b", CONTRACT_FAMILIES[second])]:
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    reports = []
    for pair in (("a", "b"), ("b", "a")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["share", "--tree", paths["tree"], "--cash", paths["cash"],
                         "--family", *(paths[p] for p in pair)])
        assert code == 0, err.getvalue()
        reports.append(json.loads(out.getvalue()))
    one, other = reports
    assert abs(one["results"]["value"] - other["results"]["value"]) <= 1e-12
    stability = [report["residuals"]["stability"] for report in reports]
    assert stability[0].keys() == stability[1].keys() == {"r", "u", "d", "uu", "ud", "dd"}
    numeric = first != second and "crra" in (CONTRACT_FAMILIES[first].get("utility"),
                                             CONTRACT_FAMILIES[second].get("utility"))
    assert all(abs(stability[0][node] - stability[1][node]) <= (1e-8 if numeric else 1e-12) for node in stability[0])
