import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kpacking.cli
import kpacking.families
import kpacking.graphs
import kpacking.perfection
import kpacking.recognition
import kpacking.solver
from kpacking import (
    BinaryMatrix,
    closed_neighbourhood_matrix,
    complete,
    cycle,
    format_graph,
    format_matrix,
    parse_graph,
    parse_matrix,
    three_sun,
    web,
    wheel,
)
from kpacking.cli import main

from helpers import every_row_of_size

SOLVE_KPF = kpacking.solver.solve_kpf
# "kpacking [command] --help" -> its text at COLUMNS=80 under Python 3.11's
# argparse; a changed flag, default or help string shows up here
HELP_TEXTS = json.loads(
    (Path(__file__).parent / "data" / "cli_help.json").read_text(encoding="utf-8")
)


def short_solve_kpf(g, k):
    """solve_kpf with its optimum lowered by one, to force a scaling violation."""
    res = SOLVE_KPF(g, k)
    return dataclasses.replace(res, optimum=res.optimum - 1)


def cocktail_party_matrix(t: int) -> BinaryMatrix:
    """2t x 2t matrix whose rows are transversals of the t column pairs
    (1, 2), (3, 4), ...: row p takes the first column of pair p and the
    second of every other pair, row t + p the complement.  For t >= 3 any
    two columns of different pairs share a row, so the column intersection
    graph is the cocktail-party graph, with 2**t maximal cliques.
    """
    rows = []
    for flip in (0, 1):
        for p in range(t):
            rows.append("".join(
                str(int((q == p) != (side ^ flip))) for q in range(t) for side in (0, 1)
            ))
    return parse_matrix(f"{2 * t} {2 * t}\n" + "\n".join(rows) + "\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out), err


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "square.graph"
    path.write_text(format_graph(cycle(4)))
    return str(path)


@pytest.fixture
def octahedron(tmp_path):
    path = tmp_path / "octahedron.graph"
    path.write_text(format_graph(web(6, 2)))
    return str(path)


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            if kwargs.get("prog") == "kpacking":
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _ in range(2):
            assert run(capsys, "gen", "cycle", "5")[0] == 0
        assert len(built) <= 1

    @pytest.mark.parametrize("prog", sorted(HELP_TEXTS))
    def test_help_text(self, capsys, monkeypatch, prog):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run(capsys, *prog.split()[1:], "--help")
        assert code == 0
        assert out == HELP_TEXTS[prog]


class TestGen:
    def test_graph_output(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "5")
        assert code == 0
        assert parse_graph(out) == cycle(5)

    def test_matrix_flag_emits_neighbourhoods(self, capsys):
        code, out, _ = run(capsys, "gen", "three_sun", "--matrix")
        assert code == 0
        assert parse_matrix(out) == closed_neighbourhood_matrix(three_sun())

    def test_matrix_family(self, capsys):
        code, out, _ = run(capsys, "gen", "circulant", "5", "2")
        assert code == 0
        assert parse_matrix(out).rows == 5

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.graph"
        code, out, _ = run(capsys, "gen", "wheel", "6", "--output", str(target))
        assert code == 0
        assert out == ""
        assert parse_graph(target.read_text()).n == 6

    def test_bad_parameters(self, capsys):
        code, _, err = run(capsys, "gen", "cycle", "2")
        assert code == 2
        assert "cycle" in err

    def test_unknown_family(self, capsys):
        code, _, _ = run(capsys, "gen", "moebius", "5")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [("gen", "web", "100000", "1"), ("gen", "clique_cycle", "256"),
         ("analyze", "--family", "cycle", "100000")],
        ids=["gen-web", "gen-clique-cycle", "analyze-family"],
    )
    def test_members_above_the_node_cap(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "error: family members are capped at 1024 nodes\n"

    def test_member_at_the_node_cap(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "1024")
        assert code == 0
        assert parse_graph(out) == cycle(1024)


class TestSolve:
    def test_kpf_with_oracle(self, capsys, square):
        payload, _ = run_json(capsys, "solve", square, "--k", "4", "--oracle")
        assert payload["schema"] == 1
        assert payload["variant"] == "kpf"
        assert payload["optimum"] == 5
        assert payload["witness"]["values"] == [2, 1, 1, 1]
        assert payload["oracle"] == {"agrees": True, "optimum": 5}
        assert len(payload["input"]["sha256"]) == 64

    def test_limited(self, capsys, square):
        payload, _ = run_json(capsys, "solve", square, "--k", "3", "--variant", "limited")
        assert payload["optimum"] == 4
        assert payload["witness"]["values"] == [1, 1, 1, 1]

    def test_lp(self, capsys, square):
        payload, _ = run_json(capsys, "solve", square, "--k", "1", "--variant", "lp")
        assert payload["optimum"] == "4/3"
        assert payload["witness"]["unit_vertex"] == ["1/3"] * 4

    def test_oracle_disagreement_still_writes_the_report(self, capsys, square, monkeypatch):
        def wrong_oracle(g, k):
            res = kpacking.solver.solve_kpf_bruteforce(g, k)
            return dataclasses.replace(res, optimum=res.optimum + 1)

        monkeypatch.setattr(kpacking.cli, "solve_kpf_bruteforce", wrong_oracle)
        code, out, err = run(capsys, "solve", square, "--k", "4", "--oracle")
        assert code == 1
        payload = json.loads(out)
        assert payload["optimum"] == 5
        assert payload["oracle"] == {"agrees": False, "optimum": 6}
        assert err == "error: solver found 5, oracle found 6\n"

    def test_lp_refuses_oracle(self, capsys, square):
        code, _, _ = run(capsys, "solve", square, "--k", "1", "--variant", "lp", "--oracle")
        assert code == 2

    def test_zero_k(self, capsys, square):
        code, _, _ = run(capsys, "solve", square, "--k", "0")
        assert code == 2

    def test_node_cap_exit(self, capsys, tmp_path):
        big = tmp_path / "big.graph"
        code, out, _ = run(capsys, "gen", "wheel", "30", "--output", str(big))
        assert code == 0
        code, _, err = run(capsys, "solve", str(big), "--k", "2")
        assert code == 3
        assert "cap" in err.lower()

    def test_explored_cap_exit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(kpacking.solver, "SOLVER_EXPLORED_CAP", 1000)
        path = tmp_path / "c5.graph"
        path.write_text(format_graph(cycle(5)))
        code, _, _ = run(capsys, "solve", str(path), "--k", "10")
        assert code == 0
        code, out, err = run(capsys, "solve", str(path), "--k", "20")
        assert code == 3
        assert out == ""
        assert "explored" in err


class TestRecognize:
    def test_all_methods_on_graph(self, capsys, octahedron):
        payload, _ = run_json(capsys, "recognize", "--graph", octahedron, "--method", "all")
        assert payload["exact_methods_agree"] is True
        assert payload["structural_agrees"] is False
        assert payload["methods"]["cliques"]["verdict"] is False
        assert payload["methods"]["structural"]["verdict"] is True

    def test_certificate_detail(self, capsys, octahedron):
        payload, _ = run_json(
            capsys, "recognize", "--graph", octahedron, "--method", "pattern", "--certificate"
        )
        cert = payload["methods"]["pattern"]["certificate"]
        assert cert["pattern_rows"] == [1, 2, 3]
        assert cert["pattern_zeros"] == [4, 5, 6]

    def test_matrix_input(self, capsys, tmp_path, square):
        path = tmp_path / "m.matrix"
        path.write_text(format_matrix(closed_neighbourhood_matrix(cycle(4))))
        payload, _ = run_json(capsys, "recognize", "--matrix", str(path), "--method", "cliques")
        assert payload["methods"]["cliques"]["verdict"] is False

    def test_structural_needs_a_graph(self, capsys, tmp_path):
        path = tmp_path / "m.matrix"
        path.write_text(format_matrix(closed_neighbourhood_matrix(cycle(4))))
        code, _, _ = run(capsys, "recognize", "--matrix", str(path), "--method", "structural")
        assert code == 2

    def test_zero_row_matrix_is_answered(self, capsys, tmp_path):
        # a zero row lies in no clique, so it changes neither verdict
        path = tmp_path / "zero-row.matrix"
        path.write_text("3 3\n110\n011\n000\n")
        payload, _ = run_json(capsys, "recognize", "--matrix", str(path))
        assert payload["methods"]["cliques"]["verdict"] is True
        assert payload["methods"]["pattern"]["verdict"] is True
        assert payload["exact_methods_agree"] is True

    @pytest.mark.parametrize(
        "rows, verdict",
        # the clique-node matrix of the path P4, and one whose column graph
        # has the maximal clique {1, 2, 3} that no row holds
        [("1100\n0110\n0011\n", True), ("1100\n0110\n1011\n", False)],
    )
    def test_non_square_matrix_certificates_recheck(self, capsys, tmp_path, rows, verdict):
        path = tmp_path / "m.matrix"
        path.write_text("3 4\n" + rows)
        payload, _ = run_json(capsys, "recognize", "--matrix", str(path), "--certificate")
        assert payload["exact_methods_agree"] is True
        assert list(payload["methods"]) == ["cliques", "pattern"]
        for method, entry in payload["methods"].items():
            assert entry["verdict"] is verdict
            cert = entry["certificate"]
            if not verdict and method == "cliques":
                assert cert["uncovered_clique"] == [1, 2, 3]
            cert_path = tmp_path / f"{method}.json"
            cert_path.write_text(json.dumps(cert))
            code, out, _ = run(capsys, "verify-certificate", str(cert_path), "--matrix", str(path))
            assert (code, json.loads(out)["valid"]) == (0, True)

    def test_zero_column_matrix_is_refused(self, capsys, tmp_path):
        path = tmp_path / "zero-column.matrix"
        path.write_text("3 4\n1100\n0100\n1000\n")
        code, out, err = run(capsys, "recognize", "--matrix", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: recognizers expect no zero columns\n"

    def test_oversize_graph_file(self, capsys, tmp_path):
        path = tmp_path / "huge.graph"
        path.write_text("100000 0\n")
        code, _, err = run(capsys, "recognize", "--graph", str(path))
        assert code == 3
        assert "cap" in err.lower()

    def test_structural_screen_cap(self, capsys, tmp_path):
        path = tmp_path / "c25.graph"
        path.write_text(format_graph(cycle(25)))
        code, _, err = run(capsys, "recognize", "--graph", str(path))
        assert code == 3
        assert "structural screen capped" in err
        payload, _ = run_json(capsys, "recognize", "--graph", str(path), "--method", "cliques")
        assert payload["methods"]["cliques"]["verdict"] is True

    def test_pattern_work_cap_exit(self, capsys, tmp_path, monkeypatch):
        # N[C16] costs the pattern search 560 units: its 560 row triples
        monkeypatch.setattr(kpacking.recognition, "PATTERN_WORK_CAP", 559)
        path = tmp_path / "c16.matrix"
        path.write_text(format_matrix(closed_neighbourhood_matrix(cycle(16))))
        code, out, err = run(capsys, "recognize", "--matrix", str(path), "--method", "pattern")
        assert code == 3
        assert out == ""
        assert "pattern recognizer did more than 559" in err
        payload, _ = run_json(capsys, "recognize", "--matrix", str(path), "--method", "cliques")
        assert payload["methods"]["cliques"]["verdict"] is True

    @pytest.mark.parametrize("rows", [300, 200_000])
    def test_repeated_rows_are_read_once(self, capsys, tmp_path, rows):
        # one distinct row: no row triple for the pattern search to visit
        path = tmp_path / "ones.matrix"
        path.write_text(f"{rows} 2\n" + "11\n" * rows)
        payload, _ = run_json(capsys, "recognize", "--matrix", str(path))
        assert payload["methods"] == {"cliques": {"verdict": True},
                                      "pattern": {"verdict": True}}
        payload, _ = run_json(capsys, "recognize", "--matrix", str(path), "--method", "pattern")
        assert payload["methods"] == {"pattern": {"verdict": True}}

    def test_clique_work_cap_exit(self, capsys, tmp_path, monkeypatch):
        # the column intersection graph has 256 maximal cliques; finding them
        # costs 1259 units
        monkeypatch.setattr(kpacking.graphs, "CLIQUE_WORK_CAP", 1258)
        path = tmp_path / "cp8.matrix"
        path.write_text(format_matrix(cocktail_party_matrix(8)))
        code, out, err = run(capsys, "recognize", "--matrix", str(path))
        assert code == 3
        assert out == ""
        assert "maximal clique search did more than 1258" in err
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"method": "cliques", "verdict": False,
                                    "uncovered_clique": [1, 3, 5, 7, 9, 11, 13, 15]}))
        code, _, _ = run(capsys, "verify-certificate", str(cert), "--matrix", str(path))
        assert code == 3
        monkeypatch.setattr(kpacking.graphs, "CLIQUE_WORK_CAP", 1259)
        payload, _ = run_json(capsys, "recognize", "--matrix", str(path), "--method", "cliques")
        assert payload["methods"]["cliques"]["verdict"] is False

    def test_graph_and_matrix_are_exclusive(self, capsys, square):
        code, _, _ = run(capsys, "recognize", "--graph", square, "--matrix", square)
        assert code == 2

    def test_exact_disagreement_still_writes_the_report(self, capsys, square, monkeypatch):
        flag, pattern, *rest = kpacking.recognition.CERTIFICATE_KINDS["pattern"]

        def flipped(m):
            cert = pattern(m)
            return dataclasses.replace(cert, verdict=not cert.verdict)

        monkeypatch.setitem(
            kpacking.recognition.CERTIFICATE_KINDS, "pattern", (flag, flipped, *rest)
        )
        code, out, err = run(capsys, "recognize", "--graph", square, "--method", "all")
        assert code == 1
        payload = json.loads(out)
        methods = payload["methods"]
        assert methods["pattern"]["verdict"] is not methods["cliques"]["verdict"]
        assert payload["exact_methods_agree"] is False
        assert err == "error: the exact recognizers disagree\n"


class TestPerfection:
    def test_fractional_witness(self, capsys, tmp_path):
        path = tmp_path / "m.matrix"
        path.write_text(format_matrix(closed_neighbourhood_matrix(cycle(4))))
        payload, _ = run_json(capsys, "perfection", "--matrix", str(path), "--emit-vertices")
        assert payload["matrix_perfect"] is False
        assert payload["fractional_vertex"] == ["1/3"] * 4
        assert ["1/3"] * 4 in payload["vertices"]
        assert ["0/1"] * 4 in payload["vertices"]

    def test_dimension_cap(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m.matrix"
        path.write_text(format_matrix(closed_neighbourhood_matrix(cycle(11))))
        code, _, _ = run(capsys, "perfection", "--matrix", str(path))
        assert code == 3
        # the cap has no command line override
        code, _, _ = run(
            capsys, "perfection", "--matrix", str(path), "--max-vertex-dim", "11"
        )
        assert code == 2
        monkeypatch.setattr(kpacking.perfection, "VERTEX_ENUMERATION_COLUMN_CAP", 11)
        code, _, _ = run(capsys, "perfection", "--matrix", str(path))
        assert code == 0


    def test_support_pass_budget(self, capsys, tmp_path):
        # a full pass over all 120 three-column rows of 10 columns would try
        # about 1.2e14 bases
        path = tmp_path / "m.matrix"
        path.write_text(format_matrix(every_row_of_size(10, 3)))
        code, out, err = run(capsys, "perfection", "--matrix", str(path))
        assert code == 3
        assert out == ""
        cap = kpacking.perfection.SUPPORT_PASS_BASIS_CAP
        assert err == f"error: support pass capped at {cap} bases\n"


class TestAnalyze:
    @pytest.mark.parametrize(
        "family, k, packing, verdicts",
        [
            (
                ["three_sun"], "3",
                {"l1": 1, "unit_relaxation": "3/2", "per_k": {"3": {
                    "kpf": 4, "limited": 4, "k_times_l1": 3, "relaxation": "9/2",
                    "scaling_equality": False}}},
                {"extended_clique_node": False, "neighbourhood_matrix_perfect": False,
                 "structural_agrees": True},
            ),
            # a non-member with a perfect clique graph, and an extended
            # clique-node N[G] whose clique graph has an odd hole
            (
                ["cycle", "4"], "2",
                {"l1": 1, "unit_relaxation": "4/3", "per_k": {"2": {
                    "kpf": 2, "limited": 2, "k_times_l1": 2, "relaxation": "8/3",
                    "scaling_equality": True}}},
                {"extended_clique_node": False, "clique_graph_perfect": True,
                 "neighbourhood_matrix_perfect": False, "structural_verdict": False},
            ),
            (
                ["clique_cycle", "2"], "2",
                {"l1": 2, "unit_relaxation": "5/2", "per_k": {"2": {
                    "kpf": 5, "limited": 5, "k_times_l1": 4, "relaxation": "5/1",
                    "scaling_equality": False}}},
                {"extended_clique_node": True, "clique_graph_perfect": False,
                 "neighbourhood_matrix_perfect": False, "structural_verdict": True},
            ),
        ],
        ids=["three_sun", "cycle-4", "clique_cycle-2"],
    )
    def test_family_report(self, capsys, family, k, packing, verdicts):
        payload, err = run_json(capsys, "analyze", "--family", *family, "--k", k)
        assert payload["packing"] == packing
        assert {name: payload["verdicts"][name] for name in verdicts} == verdicts
        # stderr is the timing line and nothing else
        seconds = json.loads(err)["timing"]["seconds"]
        assert err == json.dumps({"timing": {"seconds": seconds}}) + "\n"
        assert type(seconds) is float and seconds >= 0

    def test_graph_file_input(self, capsys, square):
        payload, _ = run_json(capsys, "analyze", square, "--k", "2,3")
        assert set(payload["packing"]["per_k"]) == {"2", "3"}
        assert payload["packing"]["per_k"]["3"]["kpf"] == 4

    def test_repeated_k_is_solved_and_reported_once(self, capsys, square, monkeypatch):
        asked = []
        real = kpacking.cli.scaling_reports

        def recorded(g, ks, rep):
            asked.append(tuple(ks))
            return real(g, ks, rep)

        monkeypatch.setattr(kpacking.cli, "scaling_reports", recorded)
        code, repeated, _ = run(capsys, "analyze", square, "--k", "3,2,3")
        assert code == 0
        code, once, _ = run(capsys, "analyze", square, "--k", "3,2")
        assert code == 0
        assert repeated == once
        assert asked == [(3, 2), (3, 2)]

    def test_deterministic_output(self, capsys, octahedron):
        first, _ = run_json(capsys, "analyze", octahedron, "--k", "2")
        second, _ = run_json(capsys, "analyze", octahedron, "--k", "2")
        assert first == second

    def test_file_and_family_are_exclusive(self, capsys, square):
        code, out, err = run(capsys, "analyze", square, "--family", "three_sun")
        assert code == 2
        assert out == ""
        assert "argument --family: not allowed with argument input" in err

    @pytest.mark.parametrize(
        "params",
        [("5", "FILE"), ("x",)],
        ids=["file-after-family", "word-parameter"],
    )
    def test_family_parameters_are_integers(self, capsys, square, params):
        # --family takes every later word, so a FILE there is a parameter
        params = tuple(square if p == "FILE" else p for p in params)
        code, out, err = run(capsys, "analyze", "--family", "cycle", *params)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: kpacking analyze")
        assert err.endswith(
            f"error: argument --family: parameter {params[-1]!r} is not an integer\n"
        )

    def test_file_or_family_is_required(self, capsys):
        code, out, err = run(capsys, "analyze", "--k", "2")
        assert code == 2
        assert out == ""
        assert "one of the arguments input --family is required" in err

    def test_matrix_family_is_refused(self, capsys):
        code, out, err = run(capsys, "analyze", "--family", "circulant", "7", "3")
        assert code == 2
        assert out == ""
        assert err == "error: analyze expects a graph family, not a matrix family\n"

    def test_scaling_violation_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(kpacking.solver, "solve_kpf", short_solve_kpf)
        code, out, err = run(capsys, "analyze", "--family", "wheel", "6", "--k", "2,3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: k=2: integer optimum")


class TestVerify:
    def test_recognizers_pass_below_divergence(self, capsys):
        code, out, _ = run(capsys, "verify", "recognizers", "--max-n", "5")
        assert code == 0
        assert "result: PASS" in out

    def test_recognizers_fail_at_divergence(self, capsys):
        code, out, _ = run(capsys, "verify", "recognizers", "--max-n", "6")
        assert code == 1
        assert "result: FAIL" in out
        assert out.count("counterexample") == 2

    def test_census_counts(self, capsys):
        code, out, _ = run(capsys, "verify", "census", "--max-n", "6")
        assert code == 0

    def test_polytope_cross_check(self, capsys):
        code, out, _ = run(capsys, "verify", "polytope", "--max-n", "4")
        assert code == 0

    def test_scaling(self, capsys):
        code, out, _ = run(capsys, "verify", "scaling", "--max-n", "4", "--k", "2,3")
        assert code == 0

    def test_scaling_drops_repeated_k(self, capsys):
        code, out, _ = run(capsys, "verify", "scaling", "--max-n", "3", "--k", "3,2,3")
        assert code == 0
        assert "checked: 4 connected graphs with at most 3 nodes, k in {3,2}\n" in out

    def test_scaling_builds_one_report_per_graph(self, capsys, monkeypatch):
        calls = []
        real = kpacking.perfection.perfection_report

        def counted(g, *args, **kwargs):
            calls.append(g)
            return real(g, *args, **kwargs)

        for module in (kpacking.cli, kpacking.solver):
            monkeypatch.setattr(module, "perfection_report", counted)
        code, out, _ = run(capsys, "verify", "scaling")
        assert code == 0
        assert "checked: 996 connected graphs with at most 7 nodes, k in {2,3,4}" in out
        assert len(calls) == 996

    def test_scaling_counterexample_names_k(self, capsys, monkeypatch):
        monkeypatch.setattr(kpacking.solver, "solve_kpf", short_solve_kpf)
        code, out, _ = run(capsys, "verify", "scaling", "--max-n", "3", "--k", "2")
        assert code == 1
        lines = [line for line in out.splitlines() if line.startswith("counterexample")]
        assert len(lines) == 4
        assert all(" k=2: " in line and " edges=[" in line for line in lines)
        assert lines[0].startswith("counterexample: n=1 edges=[] k=2: ")

    def test_webs(self, capsys):
        code, out, _ = run(capsys, "verify", "webs", "--max-n", "8", "--k", "1,2")
        assert code == 0

    def test_webs_membership_counterexample_fails_the_suite(self, capsys, monkeypatch):
        real = kpacking.cli.perfection_report

        def wrong_on_the_4_cycle(g):
            rep = real(g)
            if g.n != 4:
                return rep
            return dataclasses.replace(rep, neighbourhood_matrix_perfect=True)

        monkeypatch.setattr(kpacking.cli, "perfection_report", wrong_on_the_4_cycle)
        code, out, _ = run(capsys, "verify", "webs", "--max-n", "4", "--k", "1")
        assert code == 1
        assert out == (
            "suite: webs\n"
            "counterexample: web(4,1) membership=True expected=False\n"
            "checked: 3 webs plus 2 column graph identities\n"
            "result: FAIL\n"
        )

    def test_webs_column_graph_counterexamples_fail_the_suite(self, capsys, monkeypatch):
        monkeypatch.setattr(kpacking.cli, "is_isomorphic", lambda g, h: False)
        code, out, _ = run(capsys, "verify", "webs", "--max-n", "4", "--k", "1")
        assert code == 1
        assert out == (
            "suite: webs\n"
            "counterexample: column graph of the 5-cycle matrix is not complete\n"
            "counterexample: column graph of the 6-cycle matrix is not web(6,2)\n"
            "checked: 3 webs plus 2 column graph identities\n"
            "result: FAIL\n"
        )

    def test_census_count_counterexample_fails_the_suite(self, capsys, monkeypatch):
        monkeypatch.setitem(kpacking.cli.KNOWN_CENSUS_COUNTS, 3, 3)
        code, out, _ = run(capsys, "verify", "census", "--max-n", "3")
        assert code == 1
        assert out == (
            "suite: census\n"
            "census(1): 1 classes\n"
            "census(2): 1 classes\n"
            "counterexample: census(3) has 2 classes, expected 3\n"
            "census(3): 2 classes\n"
            "result: FAIL\n"
        )

    def test_census_connectivity_counterexample_fails_the_suite(self, capsys, monkeypatch):
        monkeypatch.setattr(kpacking.cli, "is_connected", lambda g: g.n != 2)
        code, out, _ = run(capsys, "verify", "census", "--max-n", "2")
        assert code == 1
        assert out == (
            "suite: census\n"
            "census(1): 1 classes\n"
            "counterexample: disconnected census member n=2 [1-2]\n"
            "census(2): 1 classes\n"
            "result: FAIL\n"
        )

    def test_webs_beyond_the_odd_hole_cap_is_refused_before_any_work(
        self, capsys, monkeypatch
    ):
        def unused(g):
            raise AssertionError(f"web with {g.n} nodes built for a refused --max-n")

        monkeypatch.setattr(kpacking.cli, "perfection_report", unused)
        code, out, err = run(capsys, "verify", "webs", "--max-n", "17")
        assert code == 3
        assert out == ""
        assert err == "error: odd hole search capped at 16 nodes\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "webs", "--k", "0"), "k values must be positive integers"),
            (("analyze", "--family", "cycle", "5", "--k", "x"), "bad k list 'x'"),
            (("verify", "scaling", "--k", "-1"), "k values must be positive integers"),
            (("verify", "scaling", "--k", "x"), "bad k list 'x'"),
            (("verify", "scaling", "--k", ","), "k values must be positive integers"),
            (("analyze", "--family", "cycle", "5", "--k", "0"), "k values must be positive integers"),
            (("analyze", "--family", "cycle", "5", "--k", "-1"), "k values must be positive integers"),
            (("analyze", "--family", "cycle", "5", "--k", "2,0"), "k values must be positive integers"),
        ],
        ids=[
            "verify-zero", "analyze-not-an-integer", "verify-negative", "verify-not-an-integer",
            "verify-empty", "analyze-zero", "analyze-negative", "analyze-zero-in-a-list",
        ],
    )
    def test_bad_k_names_the_rule(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.endswith(f"error: argument --k: {message}\n")

    def test_parallel_jobs(self, capsys):
        code, _, _ = run(capsys, "verify", "recognizers", "--max-n", "5", "--jobs", "2")
        assert code == 0

    def test_jobs_clamped_to_cpu_count(self, capsys, monkeypatch):
        requested = []

        class InProcessPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        argv = ("verify", "recognizers", "--max-n", "4")
        serial = run(capsys, *argv, "--jobs", "1")
        wide = run(capsys, *argv, "--jobs", "100000")
        assert len(requested) == 1
        assert requested[0] <= (os.cpu_count() or 1)
        assert wide == serial

    def test_import_leaves_the_pool_unloaded(self):
        # only --jobs above 1 needs the process pool, so importing the CLI
        # must not pay for it
        probe = (
            "import sys, kpacking.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} "
            "& set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(kpacking.cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        assert done.stdout == "[]\n"

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "everything")
        assert code == 2

    @pytest.mark.parametrize("suite", ["census", "polytope", "recognizers"])
    def test_k_is_refused_by_suites_without_budgets(self, capsys, suite):
        code, out, err = run(capsys, "verify", suite, "--max-n", "3", "--k", "5")
        assert code == 2
        assert out == ""
        assert err == f"error: the {suite} suite takes no --k\n"

    @pytest.mark.parametrize(
        "suite, max_n, least",
        [
            ("census", "0", 1),
            ("census", "-3", 1),
            ("polytope", "0", 1),
            ("recognizers", "0", 1),
            ("scaling", "0", 1),
            ("webs", "1", 2),
        ],
    )
    def test_empty_range_is_refused(self, capsys, suite, max_n, least):
        code, out, err = run(capsys, "verify", suite, "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert err == f"error: the {suite} suite needs --max-n of at least {least}\n"

    @pytest.mark.parametrize("suite", ["census", "polytope", "recognizers", "scaling"])
    def test_census_beyond_its_size_is_refused_before_any_work(
        self, capsys, monkeypatch, suite
    ):
        def unused(n):
            raise AssertionError(f"census({n}) built for a refused --max-n")

        monkeypatch.setattr(kpacking.families, "_census", unused)
        code, out, err = run(capsys, "verify", suite, "--max-n", "9")
        assert code == 2
        assert out == ""
        assert err == "error: census supports 1 <= n <= 8\n"

    @pytest.mark.parametrize(
        "flag, value", [("--max-n", "x"), ("--max-n", "2.5"), ("--jobs", "x")]
    )
    def test_non_integer_count_is_a_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "verify", "census", flag, value)
        assert code == 2
        assert out == ""
        assert err.endswith(f"error: argument {flag}: invalid int value: '{value}'\n")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_refused(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "census", "--max-n", "2", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err == "error: --jobs must be at least 1\n"


class TestVerifyCertificate:
    def test_round_trip(self, capsys, tmp_path, octahedron):
        code, out, _ = run(
            capsys, "recognize", "--graph", octahedron, "--method", "pattern", "--certificate"
        )
        assert code == 0
        cert = json.loads(out)["methods"]["pattern"]["certificate"]
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, out, _ = run(capsys, "verify-certificate", str(cert_path), "--graph", octahedron)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_tampered(self, capsys, tmp_path, octahedron):
        code, out, _ = run(
            capsys, "recognize", "--graph", octahedron, "--method", "pattern", "--certificate"
        )
        cert = json.loads(out)["methods"]["pattern"]["certificate"]
        cert["pattern_zeros"] = [1, 2, 3]
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, out, _ = run(capsys, "verify-certificate", str(cert_path), "--graph", octahedron)
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_certificate_that_is_not_json(self, capsys, tmp_path, square):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text("{not json")
        code, out, err = run(capsys, "verify-certificate", str(cert_path), "--graph", square)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad certificate JSON: ")

    def test_deeply_nested_certificate_is_bad_json(self, capsys, tmp_path, square):
        # the decoder recurses once per level and runs out of stack here; the
        # failure is a bad input (2), not a failed verification (1)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text("[" * 200_000)
        code, out, err = run(capsys, "verify-certificate", str(cert_path), "--graph", square)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad certificate JSON: ")
        assert err.count("\n") == 1

    def test_one_instance_per_recheck(self, capsys, tmp_path):
        # both column graphs are K6, but only the wheel has a row holding
        # all six columns, the hub's row that the certificate names
        paths = {}
        for name, argv in {"wheel.graph": ("wheel", "6"), "sun.graph": ("three_sun",),
                           "wheel.matrix": ("wheel", "6", "--matrix")}.items():
            paths[name] = str(tmp_path / name)
            assert run(capsys, "gen", *argv, "--output", paths[name])[0] == 0
        _, out, _ = run(
            capsys, "recognize", "--graph", paths["wheel.graph"], "--method", "cliques",
            "--certificate",
        )
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(json.loads(out)["methods"]["cliques"]["certificate"]))
        for flags, code in (
            (("--graph", paths["wheel.graph"]), 0),
            (("--matrix", paths["wheel.matrix"]), 0),
            (("--graph", paths["sun.graph"]), 1),
        ):
            assert run(capsys, "verify-certificate", str(cert_path), *flags)[0] == code
        code, out, err = run(
            capsys, "verify-certificate", str(cert_path), "--graph", paths["sun.graph"],
            "--matrix", paths["wheel.matrix"],
        )
        assert code == 2
        assert out == ""
        assert "argument --matrix: not allowed with argument --graph" in err

    def test_an_instance_is_required(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"method": "cliques", "verdict": True}))
        code, out, err = run(capsys, "verify-certificate", str(cert_path))
        assert code == 2
        assert out == ""
        assert "one of the arguments --graph --matrix is required" in err

    def test_forged_structural_certificate(self, capsys, tmp_path):
        # every recognizer accepts K3, so it has no undominated 3-cycle to show
        graph_path = tmp_path / "k3.graph"
        graph_path.write_text(format_graph(complete(3)))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({
            "method": "structural",
            "verdict": False,
            "obstruction_kind": "cycle3",
            "obstruction_nodes": [1, 2, 3],
        }))
        code, out, _ = run(capsys, "verify-certificate", str(cert_path), "--graph", str(graph_path))
        assert code == 1
        assert json.loads(out)["valid"] is False

    @pytest.mark.parametrize(
        "payload",
        [
            {"method": "cliques", "verdict": True, "cover": [{"row": 1}]},
            {
                "method": "pattern",
                "verdict": False,
                "pattern_rows": [1, 2, "x"],
                "pattern_zeros": [1, 2, 3],
                "pattern_columns": [1, 2, 3],
            },
            [{"method": "cliques", "verdict": True}],
            {
                "method": "structural",
                "verdict": False,
                "obstruction_kind": "cycle5",
                "obstruction_nodes": [True, 2, 3, 4, 5],
            },
            {"method": "cliques", "verdict": True, "cover": [{"clique": [1, 2], "row": True}]},
        ],
        ids=[
            "cover-without-clique", "non-integer-row", "top-level-list",
            "boolean-label", "boolean-cover-row",
        ],
    )
    def test_malformed_payload_is_a_parse_error(self, capsys, tmp_path, payload):
        graph_path = tmp_path / "c5.graph"
        graph_path.write_text(format_graph(cycle(5)))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify-certificate", str(cert_path), "--graph", str(graph_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: certificate")

    @pytest.mark.parametrize(
        "dominated, code",
        [
            ([{"kind": "sun", "nodes": [1, 2], "dominator": 99}], 1),
            ("garbage", 2),
            (None, 1),
        ],
        ids=["forged-entry", "not-a-list", "missing"],
    )
    def test_forged_positive_structural_certificate(self, capsys, tmp_path, dominated, code):
        # the screen accepts the wheel: its rim is dominated by the hub
        graph_path = tmp_path / "w5.graph"
        graph_path.write_text(format_graph(wheel(5)))
        _, out, _ = run(
            capsys, "recognize", "--graph", str(graph_path), "--method", "structural",
            "--certificate",
        )
        cert = json.loads(out)["methods"]["structural"]["certificate"]
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        args = ("verify-certificate", str(cert_path), "--graph", str(graph_path))
        assert run(capsys, *args)[0] == 0
        if dominated is None:
            del cert["dominated"]
        else:
            cert["dominated"] = dominated
        cert_path.write_text(json.dumps(cert))
        got, out, err = run(capsys, *args)
        assert got == code
        if code == 1:
            assert json.loads(out)["valid"] is False
        else:
            assert out == "" and err.startswith("error: certificate dominated")

    def test_non_boolean_verdict_is_a_parse_error(self, capsys, tmp_path):
        # a valid cover of the wheel; read by truthiness, "no" would recheck it
        graph_path = tmp_path / "w6.graph"
        graph_path.write_text(format_graph(wheel(6)))
        code, out, _ = run(
            capsys, "recognize", "--graph", str(graph_path), "--method", "cliques",
            "--certificate",
        )
        assert code == 0
        cert = json.loads(out)["methods"]["cliques"]["certificate"]
        assert cert["verdict"] is True
        cert["verdict"] = "no"
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, out, err = run(capsys, "verify-certificate", str(cert_path), "--graph", str(graph_path))
        assert code == 2
        assert out == ""
        assert err == "error: certificate field 'verdict' must be a JSON boolean\n"


    @pytest.mark.parametrize("method", [[], {}, None, 1, "CLIQUES"], ids=repr)
    def test_a_method_of_any_json_type_is_bad_input(self, capsys, tmp_path, square, method):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"method": method, "verdict": True}))
        code, out, err = run(capsys, "verify-certificate", str(cert_path), "--graph", square)
        assert code == 2
        assert out == ""
        assert err == f"error: unknown certificate method {method!r}\n"

    @pytest.mark.parametrize(
        "payload",
        [
            {"method": "pattern", "verdict": False, "cover": "x"},
            {"method": "cliques", "verdict": True, "dominated": 3},
        ],
        ids=["pattern-with-cover", "cliques-with-dominated"],
    )
    def test_witness_fields_of_other_kinds_are_bad_input(self, capsys, tmp_path, square, payload):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify-certificate", str(cert_path), "--graph", square)
        assert code == 2
        assert out == ""
        assert err.startswith("error: certificate ")


class TestErrorPaths:
    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("not a graph\n")
        code, _, err = run(capsys, "solve", str(path), "--k", "1")
        assert code == 2
        assert "line" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "solve", "/nonexistent/g.graph", "--k", "1")
        assert code == 4

    def test_no_arguments(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["recognize", "perfection", "verify-certificate"])
    def test_matrix_files_above_the_column_cap(self, capsys, tmp_path, command):
        # one all-ones row: its column intersection graph would be complete
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"method": "cliques", "verdict": True}))
        path = tmp_path / "wide.matrix"
        path.write_text(f"1 1025\n{'1' * 1025}\n")
        certificate = [str(cert_path)] if command == "verify-certificate" else []
        code, out, err = run(capsys, command, *certificate, "--matrix", str(path))
        assert code == 3
        assert out == ""
        assert err == "error: line 1: matrix files are capped at 1024 columns\n"

    def test_matrix_file_at_the_column_cap(self, capsys, tmp_path):
        path = tmp_path / "wide.matrix"
        path.write_text(f"1 1024\n{'1' * 1024}\n")
        payload, _ = run_json(capsys, "recognize", "--matrix", str(path))
        assert payload["methods"]["cliques"]["verdict"] is True
