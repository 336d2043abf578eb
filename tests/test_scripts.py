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
