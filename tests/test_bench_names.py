"""The library names the benchmark looks up by ``getattr``.

``bench/tracing.py`` wraps each function in ``TRACED`` by name, and the
benchmark reads ``KNOWN_CENSUS_COUNTS`` through ``kpacking.cli``; renaming or
moving one breaks the traced bench run, which the tests do not otherwise run.
"""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

import kpacking.cli
from kpacking.recognition import CERTIFICATE_KINDS

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _traced():
    traced = runpy.run_path(str(TRACING))["TRACED"]
    return [(module, name) for module, names in traced.items() for name in names]


@pytest.mark.parametrize("module, name", _traced(), ids=lambda part: part)
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"kpacking.{module}"), name, None))


def test_census_counts_reachable_through_the_cli():
    assert kpacking.cli.KNOWN_CENSUS_COUNTS[1] == 1


def test_bench_certificate_methods_are_the_kind_table():
    """``recognize --method all`` writes one entry per ``CERTIFICATE_KINDS``
    row and the bench hashes 9 such reports, so a new row is a benchmark change.
    """
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    methods = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["CERTIFICATE_METHODS"]
    )
    assert methods == tuple(CERTIFICATE_KINDS)
