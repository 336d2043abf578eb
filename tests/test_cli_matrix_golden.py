"""Byte-identical CLI output on the matrix-input and recognizer-suite paths.

The benchmark's golden commands (``tests/test_cli_golden.py``) read graphs
only.  This file replays ``recognize --matrix`` under every ``--method``,
``verify-certificate --matrix`` on the exact recognizers' certificates and
``verify recognizers --max-n 6``, and compares each exit code and the sha256
of its standard output and standard error with
``tests/data/cli_matrix_golden.json``.

To rewrite the golden file after an intended output change::

    PYTHONPATH=src python tests/test_cli_matrix_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from kpacking.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "cli_matrix_golden.json"
# graph members written as closed neighbourhood matrices, and a matrix family
MEMBERS = (
    ("cycle", "5"),
    ("cycle", "6"),
    ("web", "6", "2"),
    ("three_sun",),
    ("wheel", "5"),
    ("circulant", "7", "3"),
)
METHODS = ("all", "cliques", "pattern", "structural")
RECHECKED = ("cliques", "pattern")


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "exit": code,
        "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


def member_results(member, work: Path) -> dict:
    """Case name -> digest for one member's matrix, in command order."""
    family, *params = member
    name = "-".join(member)
    matrix = str(work / f"{name}.matrix")
    assert run(["gen", family, *params, "--matrix", "--output", matrix])["exit"] == 0
    results = {}
    for method in METHODS:
        results[f"matrix/{name}/recognize-{method}"] = run(
            ["recognize", "--matrix", matrix, "--method", method, "--certificate"]
        )
    report = work / f"{name}.recognize.json"
    argv = ["recognize", "--matrix", matrix, "--certificate", "--output", str(report)]
    assert run(argv)["exit"] == 0
    methods = json.loads(report.read_text(encoding="utf-8"))["methods"]
    for method in RECHECKED:
        cert = work / f"{name}.{method}.cert.json"
        cert.write_text(json.dumps(methods[method]["certificate"]), encoding="utf-8")
        results[f"matrix/{name}/verify-certificate-{method}"] = run(
            ["verify-certificate", str(cert), "--matrix", matrix]
        )
    return results


def suite_results() -> dict:
    return {"verify/recognizers-6": run(["verify", "recognizers", "--max-n", "6"])}


def all_results(work: Path) -> dict:
    results = {}
    for member in MEMBERS:
        results.update(member_results(member, work))
    results.update(suite_results())
    return results


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_lists_every_case():
    assert len(_golden()) == len(MEMBERS) * (len(METHODS) + len(RECHECKED)) + 1


@pytest.mark.parametrize("member", MEMBERS, ids="-".join)
def test_matrix_paths_match_golden(tmp_path, member):
    golden = _golden()
    for case, got in member_results(member, tmp_path).items():
        assert got == golden[case], case


def test_recognizers_suite_matches_golden():
    golden = _golden()
    for case, got in suite_results().items():
        assert got == golden[case], case


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_cli_matrix_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        results = all_results(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {GOLDEN_PATH.name}")
