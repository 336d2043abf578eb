"""Byte-identical CLI output on a golden input set.

Replays the benchmark's ``cli`` commands in-process and compares each exit
code and the sha256 of each report with ``bench/data/cli_golden.json``.
Inputs and reports live under the test's temporary directory; the golden
file is only read.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from kpacking.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "data" / "cli_golden.json")
    .read_text(encoding="utf-8")
)
MEMBERS = (
    ("cycle", "5"),
    ("cycle", "6"),
    ("web", "6", "2"),
    ("web", "8", "3"),
    ("web", "9", "2"),
    ("wheel", "8"),
    ("three_sun",),
    ("pyramid", "2"),
    ("clique_cycle", "2"),
)
CERTIFICATE_METHODS = ("cliques", "pattern", "structural")


def run(argv):
    out = io.StringIO()
    # stderr carries analyze's timing line, which is not reproducible
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def commands(family, params, graph, matrix, work):
    """(name, argv, report file or None) in the order the reports depend on."""
    report = work / "recognize.json"
    yield "solve-kpf-k2", ["solve", graph, "--k", "2"], None
    yield "solve-limited-k2", ["solve", graph, "--k", "2", "--variant", "limited"], None
    yield "solve-lp-k2", ["solve", graph, "--k", "2", "--variant", "lp"], None
    yield "solve-kpf-k1-oracle", ["solve", graph, "--k", "1", "--oracle"], None
    yield (
        "solve-limited-k3-oracle",
        ["solve", graph, "--k", "3", "--variant", "limited", "--oracle"],
        None,
    )
    yield (
        "recognize",
        ["recognize", "--graph", graph, "--certificate", "--output", str(report)],
        report,
    )
    for method in CERTIFICATE_METHODS:
        cert = work / f"{method}.cert.json"
        payload = json.loads(report.read_text(encoding="utf-8"))
        cert.write_text(json.dumps(payload["methods"][method]["certificate"]), encoding="utf-8")
        yield (
            f"verify-certificate-{method}",
            ["verify-certificate", str(cert), "--graph", graph],
            None,
        )
    yield "perfection-graph", ["perfection", "--graph", graph, "--emit-vertices"], None
    yield "perfection-matrix", ["perfection", "--matrix", matrix, "--emit-vertices"], None
    yield "analyze", ["analyze", "--family", family, *params, "--certificates"], None


def test_golden_file_lists_every_command():
    assert len(GOLDEN) == len(MEMBERS) * 12


@pytest.mark.parametrize("member", MEMBERS, ids="-".join)
def test_cli_output_matches_golden_digests(tmp_path, member):
    family, *params = member
    name = "-".join(member)
    graph, matrix = str(tmp_path / "g.graph"), str(tmp_path / "g.matrix")
    assert run(["gen", family, *params, "--output", graph])[0] == 0
    assert run(["gen", family, *params, "--matrix", "--output", matrix])[0] == 0
    seen = 0
    for command, argv, report in commands(family, params, graph, matrix, tmp_path):
        code, stdout = run(argv)
        text = stdout if report is None else report.read_text(encoding="utf-8")
        expected = GOLDEN[f"cli/{name}/{command}"]
        got = {"exit": code, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
        assert got == expected, f"{command}: {argv}"
        seen += 1
    assert seen == 12
