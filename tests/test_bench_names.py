"""The library names the benchmark looks up by ``getattr`` or reads off
its results.

``bench/tracing.py`` wraps each function in ``TRACED`` by name, the
benchmark reads ``KNOWN_CENSUS_COUNTS`` through ``kpacking.cli``, it calls
the package's exports as ``kp.<name>``, and its checks in
``bench/workloads.py`` read report fields; renaming or moving one breaks
the bench run, which the tests do not otherwise run. The repository paths
that ``README.md`` names and the values its library tour states are
checked here too.
"""

import ast
import dataclasses
import importlib
import io
import re
import runpy
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import kpacking
import kpacking.cli
from kpacking import PackingFunction, PerfectionReport, ScalingReport, SolveResult
from kpacking.recognition import CERTIFICATE_KINDS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
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


def _package_lookups():
    """(the attributes read on ``kp``, the ``SOLVERS`` values, the names
    imported from ``kpacking.*`` as ``(module, name)``) in the bench scripts
    that call the library."""
    attrs, solvers, imported = set(), set(), set()
    for script in ("workloads.py", "make_references.py"):
        tree = ast.parse((BENCH / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "kp":
                attrs.add(node.attr)
            elif (isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["SOLVERS"]):
                solvers.update(ast.literal_eval(node.value).values())
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kpacking"):
                imported.update((node.module, alias.name) for alias in node.names)
    return attrs, solvers, imported


def test_bench_package_lookups_resolve():
    """Every ``kp.<name>`` the bench reads, every solver it fetches with
    ``getattr(kp, SOLVERS[...])`` and every name it imports from a
    ``kpacking`` module exists, so dropping an export from
    ``kpacking/__init__.py`` fails here rather than in the bench run.
    """
    attrs, solvers, imported = _package_lookups()
    assert {
        "Graph", "check_scaling_identity", "clique_cycle_family", "cycle",
        "enumerate_connected_graphs", "is_connected", "perfection_report",
        "solve_kpf_bruteforce", "solve_limited_bruteforce", "web", "wheel",
    } <= attrs
    assert solvers == {"solve_kpf", "solve_limited_packing"}
    assert {name for _, name in imported} >= {"KNOWN_CENSUS_COUNTS", "BRUTEFORCE_STATE_CAP"}
    assert sorted(name for name in attrs if not hasattr(kpacking, name)) == []
    assert sorted(name for name in solvers if not callable(getattr(kpacking, name, None))) == []
    missing = [
        (module, name) for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_readme_paths_exist():
    """Every repository file path ``README.md`` names exists, so deleting or
    renaming a file that the README points readers to fails here."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    pattern = r"\b(?:tests|bench|src|scripts)/[\w./-]*\.(?:py|json|md)\b"
    paths = set(re.findall(pattern, readme))
    assert "tests/test_domination.py" in paths
    assert sorted(path for path in paths if not (ROOT / path).is_file()) == []


def test_readme_library_tour_values():
    """The README's library tour runs, and each expression in it that ends
    in a comment evaluates to the value that comment states."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("```python\n", readme.index("## Library tour")) + len("```python\n")
    source = readme[start:readme.index("```", start)]
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {"Fraction": Fraction}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        stated = comments[stmt.end_lineno]
        assert got == eval(stated, namespace), stated
        checked.append(stated)
    assert checked == [
        "5", "4", "(Fraction(4, 3), (Fraction(1, 3),) * 4)", "(False, (Fraction(1, 3),) * 4)",
        "False", "Fraction(3, 2)", "[(2, 3, 2), (3, 4, 3)]",
    ]


def _own_nodes(func: ast.FunctionDef):
    """The nodes of ``func``'s own body, not of the functions it defines."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, ast.FunctionDef):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _result_reads(func: ast.FunctionDef):
    """The attributes ``func`` reads off a library result: its parameters
    ``rep`` and ``res`` when unannotated (an annotated one is of a bench
    type, such as ``CliResult``), and any name bound to an attribute of one,
    as ``w = res.witness`` is."""
    results = {a.arg for a in func.args.args if a.arg in ("rep", "res") and a.annotation is None}
    nodes = list(_own_nodes(func))
    for node in nodes:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute)
                and getattr(node.value.value, "id", None) in results):
            results.update(t.id for t in node.targets if isinstance(t, ast.Name))
    for node in nodes:
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in results:
            yield node.attr


def test_bench_checks_read_library_fields():
    """Every attribute a bench check reads off a report, a solve result or its
    witness is a field or method of a library result class, so renaming or
    dropping one fails here rather than in the bench run.
    """
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    reads = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            reads.update(_result_reads(func))
    assert {"certificates", "kpf_value", "optimum", "witness", "is_feasible"} <= reads
    known = set()
    for cls in (PerfectionReport, ScalingReport, SolveResult, PackingFunction):
        known.update(field.name for field in dataclasses.fields(cls))
        known.update(name for name in vars(cls) if callable(getattr(cls, name)))
    assert sorted(reads - known) == []


def test_readme_names_every_cap():
    """Every ``*_CAP`` constant of the library is named, with its module, in
    the README's resource-caps section, so a new cap is documented there."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("Resource caps, each defined once")
    section = readme[start:readme.index("\n## ", start)]
    caps = [
        f"{path.stem}.{name}"
        for path in (ROOT / "src" / "kpacking").glob("*.py")
        for name in re.findall(r"^([A-Z][A-Z_]*_CAP) =", path.read_text(encoding="utf-8"), re.M)
    ]
    assert len(caps) == 10
    assert sorted(cap for cap in caps if f"`{cap}`" not in section) == []
