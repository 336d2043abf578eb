import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    """Run ``scripts/<name>`` as ``__main__`` in this process; return
    (exit code, stdout, stderr)."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


class TestFindGapWitness:
    def test_first_witnesses(self, monkeypatch, capsys):
        code, out, _ = run_script(
            monkeypatch, capsys, "find_gap_witness.py", "--max-n", "4", "--limit", "3"
        )
        assert code == 0
        assert out.splitlines() == [
            "n=2 k=3 weighted=3 binary=2 edges=[1-2] witness=(3,0)",
            "n=2 k=4 weighted=4 binary=2 edges=[1-2] witness=(4,0)",
            "n=3 k=4 weighted=4 binary=3 edges=[1-2 1-3] witness=(4,0,0)",
        ]

    def test_empty_range(self, monkeypatch, capsys):
        # at k = 1 both variants are the same problem, so nothing can differ
        code, out, _ = run_script(
            monkeypatch, capsys, "find_gap_witness.py",
            "--min-n", "1", "--max-n", "1", "--k", "1",
        )
        assert code == 1
        assert out == "no gap witnesses in range\n"

    @pytest.mark.parametrize("args", [("--k", "0", "--max-n", "2"), ("--k", "x")])
    def test_bad_budgets_are_usage_errors(self, monkeypatch, capsys, args):
        code, out, err = run_script(monkeypatch, capsys, "find_gap_witness.py", *args)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: find_gap_witness.py")
        assert "argument --k: expected comma-separated positive integers" in err

    @pytest.mark.parametrize(
        "flag, value", [("--min-n", "0"), ("--max-n", "9"), ("--max-n", "x")]
    )
    def test_node_bounds_outside_the_census_are_usage_errors(
        self, monkeypatch, capsys, flag, value
    ):
        code, out, err = run_script(monkeypatch, capsys, "find_gap_witness.py", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: find_gap_witness.py")
        assert f"argument {flag}: expected a node count from 1 to 8" in err

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_a_usage_error(self, monkeypatch, capsys, limit):
        code, out, err = run_script(
            monkeypatch, capsys, "find_gap_witness.py", "--max-n", "2", "--limit", limit
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage: find_gap_witness.py")
        assert "argument --limit: expected a positive integer" in err


class TestFamilyReport:
    def test_table(self, monkeypatch, capsys):
        code, out, _ = run_script(monkeypatch, capsys, "family_report.py", "--k", "2")
        assert code == 0
        lines = [line.split() for line in out.splitlines()]
        assert lines[0] == [
            "family", "accepted", "gq_perf", "member", "screen", "l1", "kpf", "k*l1", "lp"
        ]
        assert len(lines) == 18
        assert lines[3] == ["cycle(4)", "no", "yes", "no", "no", "1", "2", "2", "8/3"]
        assert lines[-1] == ["clique_cycle(2)", "yes", "no", "no", "yes", "2", "5", "4", "5"]

    @pytest.mark.parametrize("k", ["0", "-1", "x"])
    def test_bad_budget_is_a_usage_error(self, monkeypatch, capsys, k):
        code, out, err = run_script(monkeypatch, capsys, "family_report.py", "--k", k)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: family_report.py")
        assert "argument --k: expected a positive integer" in err
