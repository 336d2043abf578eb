"""Command line front end.

Exit codes: 0 success, 1 verification or consistency failure, 2 bad input or
parameters, 3 a desk-scale cap was exceeded, 4 I/O failure.  Reports are JSON
on standard output with a schema marker; rationals are "p/q" strings; the
analyze timing goes to standard error so reports stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from .errors import CapExceededError, ConsistencyError, KpackingError, ParseError
from .families import (
    FAMILIES,
    KNOWN_CENSUS_COUNTS,
    FamilySpec,
    _check_census_size,
    cycle,
    enumerate_connected_graphs,
    web,
)
from .graphs import (
    BinaryMatrix,
    Graph,
    closed_neighbourhood_matrix,
    format_graph,
    format_matrix,
    is_connected,
    is_isomorphic,
    parse_graph,
    parse_matrix,
)
from .perfection import (
    PerfectionReport,
    _check_odd_hole_cap,
    is_perfect_matrix,
    perfection_report,
    polytope_vertices,
)
from .recognition import CERTIFICATE_KINDS, clique_graph, kind_inputs, recheck_certificate
from .solver import (
    lp_relaxation,
    scaling_reports,
    solve_kpf,
    solve_kpf_bruteforce,
    solve_limited_bruteforce,
    solve_limited_packing,
)

SCHEMA = 1


def _rat(x: Fraction | None) -> str | None:
    return None if x is None else f"{x.numerator}/{x.denominator}"


def _point(p) -> list[str] | None:
    return None if p is None else [_rat(x) for x in p]


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str, parse) -> tuple:
    """Parse the file at ``path`` and describe it by the digest of its text."""
    text = _read(path)
    return parse(text), {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def _load_instance(args) -> tuple:
    """(graph or matrix, descriptor) from ``--graph`` or ``--matrix``."""
    if args.graph is not None:
        return _load(args.graph, parse_graph)
    return _load(args.matrix, parse_matrix)


def _emit(args, command: str, descriptor: dict, body: dict) -> None:
    """Write one report: the schema envelope around ``body``."""
    report = {"schema": SCHEMA, "command": command, "input": descriptor, **body}
    _write(_dump(report), args.output)


def _add_instance_options(p: argparse.ArgumentParser) -> None:
    """The required choice of one input file, ``--graph`` or ``--matrix``."""
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--graph")
    grp.add_argument("--matrix")


class _FamilyAction(argparse.Action):
    """Store ``--family NAME PARAM ...`` as a ``FamilySpec``.  ``nargs="+"``
    takes every later word, a trailing FILE too, so a parameter that is not
    an integer is refused here, as a usage error that names the flag."""

    def __call__(self, parser, namespace, values, option_string=None):
        for raw in values[1:]:
            try:
                int(raw)
            except ValueError:
                raise argparse.ArgumentError(self, f"parameter {raw!r} is not an integer") from None
        setattr(namespace, self.dest, FamilySpec(values[0], tuple(map(int, values[1:]))))


def _parse_k_list(raw: str) -> list[int]:
    try:
        ks = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {raw!r}") from None
    if not ks or any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError("k values must be positive integers")
    # a repeated k would be solved again and reported once
    return list(dict.fromkeys(ks))


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> int:
    spec = FamilySpec(args.family, tuple(args.parameters))
    obj = spec.build()
    if isinstance(obj, BinaryMatrix):
        text = format_matrix(obj)
    elif args.matrix:
        text = format_matrix(closed_neighbourhood_matrix(obj))
    else:
        text = format_graph(obj)
    _write(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args) -> int:
    g, descriptor = _load(args.input, parse_graph)
    body: dict = {"variant": args.variant, "k": args.k}
    if args.variant == "lp":
        if args.oracle:
            raise ValueError("--oracle applies to the integer variants only")
        value, point = lp_relaxation(g, args.k)
        body["optimum"] = _rat(value)
        body["witness"] = {"unit_vertex": _point(point)}
    else:
        solve, brute = {
            "kpf": (solve_kpf, solve_kpf_bruteforce),
            "limited": (solve_limited_packing, solve_limited_bruteforce),
        }[args.variant]
        result = solve(g, args.k)
        body["optimum"] = result.optimum
        body["witness"] = {"k": args.k, "values": list(result.witness.values)}
        body["node_order"] = list(result.node_order)
        body["explored"] = result.explored
        if args.oracle:
            oracle = brute(g, args.k).optimum
            body["oracle"] = {"optimum": oracle, "agrees": oracle == result.optimum}
    _emit(args, "solve", descriptor, body)
    if body.get("oracle", {}).get("agrees") is False:
        raise ConsistencyError(
            f"solver found {body['optimum']}, oracle found {body['oracle']['optimum']}"
        )
    return 0


# ---------------------------------------------------------------------------
# recognize


# report field -> the two kinds whose verdicts it compares, when both ran
_AGREEMENTS = {
    "exact_methods_agree": ("cliques", "pattern"),
    "structural_agrees": ("structural", "cliques"),
}


def _cmd_recognize(args) -> int:
    instance, descriptor = _load_instance(args)
    inputs = kind_inputs(instance)
    # in table order, so that the same cap fires first; a matrix input skips
    # the kinds that read the graph under "all" and refuses them by name
    certs = {}
    for name, (_, recognize, *_) in CERTIFICATE_KINDS.items():
        if args.method == name and inputs[name] is None:
            raise ValueError(f"the {name} method needs a graph input")
        if args.method in (name, "all") and inputs[name] is not None:
            certs[name] = recognize(inputs[name])
    body: dict = {"methods": {}}
    for name, cert in certs.items():
        entry = body["methods"][name] = {"verdict": cert.verdict}
        if args.certificate:
            entry["certificate"] = cert.to_payload()
    for field, (a, b) in _AGREEMENTS.items():
        if a in certs and b in certs:
            body[field] = certs[a].verdict == certs[b].verdict
    _emit(args, "recognize", descriptor, body)
    if body.get("exact_methods_agree") is False:
        raise ConsistencyError("the exact recognizers disagree")
    return 0


# ---------------------------------------------------------------------------
# perfection


def _verdict_sections(rep: PerfectionReport) -> dict:
    witness = None
    if rep.clique_graph_witness is not None:
        kind, nodes = rep.clique_graph_witness
        witness = {"kind": kind, "nodes": list(nodes)}
    return {
        "verdicts": {
            "extended_clique_node": rep.extended_clique_node,
            "clique_graph_perfect": rep.clique_graph_perfect,
            "matrix_perfect": rep.matrix_perfect,
            "structural_verdict": rep.structural_verdict,
            "structural_agrees": rep.structural_agrees,
            "neighbourhood_matrix_perfect": rep.neighbourhood_matrix_perfect,
        },
        "witnesses": {
            "clique_graph": witness,
            "fractional_vertex": _point(rep.fractional_vertex),
        },
    }


def _cmd_perfection(args) -> int:
    instance, descriptor = _load_instance(args)
    if isinstance(instance, Graph):
        body = _verdict_sections(perfection_report(instance))
        m = closed_neighbourhood_matrix(instance)
    else:
        m = instance
        verdict, fractional = is_perfect_matrix(m)
        body = {"matrix_perfect": verdict, "fractional_vertex": _point(fractional)}
    if args.emit_vertices:
        body["vertices"] = [_point(p) for p in polytope_vertices(m)]
    _emit(args, "perfection", descriptor, body)
    return 0


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args) -> int:
    started = time.monotonic()
    if args.family is not None:
        spec = args.family
        g = spec.build()
        if isinstance(g, BinaryMatrix):
            raise ValueError("analyze expects a graph family, not a matrix family")
        descriptor = {"family": spec.family, "parameters": list(spec.parameters)}
    else:
        g, descriptor = _load(args.input, parse_graph)

    rep = perfection_report(g)
    scaling = scaling_reports(g, args.k, rep)
    per_k = {
        str(r.k): {
            "kpf": r.kpf_value,
            "limited": r.limited_value,
            "k_times_l1": r.k_times_l1,
            "relaxation": _rat(r.lp_value),
            "scaling_equality": r.equality,
        }
        for r in scaling
    }

    body = {
        "graph": {"nodes": g.n, "edges": [list(e) for e in g.edges()]},
        **_verdict_sections(rep),
        "packing": {
            "l1": scaling[0].l1_value,
            "unit_relaxation": _rat(rep.unit_relaxation),
            "per_k": per_k,
        },
    }
    if args.certificates:
        body["certificates"] = {
            name: cert.to_payload() for name, cert in sorted(rep.certificates.items())
        }
    _emit(args, "analyze", descriptor, body)
    elapsed = time.monotonic() - started
    sys.stderr.write(json.dumps({"timing": {"seconds": round(elapsed, 6)}}) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify suites


def _edge_text(g: Graph) -> str:
    return " ".join(f"{u}-{v}" for u, v in g.edges())


def _counterexample(g: Graph, detail) -> str:
    return f"counterexample: n={g.n} edges=[{_edge_text(g)}] {detail}"


def _recognizer_failure(g: Graph, ks: tuple[int, ...]) -> str | None:
    inputs = kind_inputs(g)
    verdicts = {
        name: recognize(inputs[name]).verdict
        for name, (_, recognize, *_) in CERTIFICATE_KINDS.items()
    }
    if len(set(verdicts.values())) == 1:
        return None
    return _counterexample(g, " ".join(f"{name}={v}" for name, v in verdicts.items()))


def _inconsistency(g: Graph, run) -> str | None:
    """The counterexample line for ``g`` if ``run()`` finds its verdict paths
    inconsistent, else None."""
    try:
        run()
    except ConsistencyError as exc:
        return _counterexample(g, exc)
    return None


def _polytope_failure(g: Graph, ks: tuple[int, ...]) -> str | None:
    return _inconsistency(g, lambda: perfection_report(g))


def _scaling_failure(g: Graph, ks: tuple[int, ...]) -> str | None:
    # a violation's message names its k
    return _inconsistency(g, lambda: scaling_reports(g, ks, perfection_report(g)))


def _map_tasks(worker, tasks, jobs: int):
    if jobs <= 1:
        return [worker(t) for t in tasks]
    # imported here: the pool machinery costs every importer of this module
    # about 2 MB and 15 ms, and only --jobs above 1 uses it
    from concurrent.futures import ProcessPoolExecutor

    # under the fork start method the pool starts all its workers at once
    with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
        return list(pool.map(worker, tasks, chunksize=8))


def _census_suite(check):
    """The runner of a suite that calls ``check(g, ks)`` on every census
    graph up to ``--max-n``; each non-None result is a failure line.  The
    summary lists ``--k`` when the suite takes one."""

    def run(args, out) -> bool:
        graphs = [g for n in range(args.max_n) for g in enumerate_connected_graphs(n + 1)]
        worker = functools.partial(check, ks=tuple(args.k))
        failures = [f for f in _map_tasks(worker, graphs, args.jobs) if f]
        for line in failures:
            out(line)
        summary = f"checked: {len(graphs)} connected graphs with at most {args.max_n} nodes"
        if args.k:
            summary += f", k in {{{','.join(map(str, args.k))}}}"
        out(summary)
        return not failures

    return run


def _suite_webs(args, out) -> bool:
    ok = True
    checked = 0
    for k in args.k:
        for n in range(2, args.max_n + 1):
            g = web(n, k)
            member = perfection_report(g).neighbourhood_matrix_perfect
            expected = n <= 2 * k + 1
            checked += 1
            if member != expected:
                ok = False
                out(
                    f"counterexample: web({n},{k}) membership={member} "
                    f"expected={expected}"
                )
    # web(5, 2) is K5, which the message calls complete
    for n, expected in ((5, "complete"), (6, "web(6,2)")):
        gq = clique_graph(closed_neighbourhood_matrix(cycle(n)))
        if not is_isomorphic(gq, web(n, 2)):
            ok = False
            out(f"counterexample: column graph of the {n}-cycle matrix is not {expected}")
    out(f"checked: {checked} webs plus 2 column graph identities")
    return ok


def _suite_census(args, out) -> bool:
    ok = True
    for n in range(1, args.max_n + 1):
        graphs = list(enumerate_connected_graphs(n))
        expected = KNOWN_CENSUS_COUNTS[n]
        if len(graphs) != expected:
            ok = False
            out(f"counterexample: census({n}) has {len(graphs)} classes, expected {expected}")
        for g in graphs:
            if not is_connected(g):
                ok = False
                out(f"counterexample: disconnected census member n={n} [{_edge_text(g)}]")
        out(f"census({n}): {len(graphs)} classes")
    return ok


# suite -> (runner, default --max-n, default --k or None when it takes none,
# least --max-n, check of --max-n against the suite's cap).  Webs start at
# web(2, k) and web(n, k) has n nodes; the other suites walk the census.
_SUITES = {
    "recognizers": (_census_suite(_recognizer_failure), 7, None, 1, _check_census_size),
    "polytope": (_census_suite(_polytope_failure), 7, None, 1, _check_census_size),
    "scaling": (_census_suite(_scaling_failure), 7, [2, 3, 4], 1, _check_census_size),
    "webs": (_suite_webs, 12, [1, 2, 3, 4], 2, _check_odd_hole_cap),
    "census": (_suite_census, 7, None, 1, _check_census_size),
}


def _cmd_verify(args) -> int:
    runner, default_n, default_k, least_n, check_cap = _SUITES[args.suite]
    if args.max_n is None:
        args.max_n = default_n
    # a suite with an empty range would pass unchecked
    if args.max_n < least_n:
        raise ValueError(f"the {args.suite} suite needs --max-n of at least {least_n}")
    # refuse a range beyond the suite's cap before building any graph of it
    check_cap(args.max_n)
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    if default_k is None and args.k is not None:
        raise ValueError(f"the {args.suite} suite takes no --k")
    if args.k is None:
        args.k = default_k or []
    lines: list[str] = []
    ok = runner(args, lines.append)
    sys.stdout.write(f"suite: {args.suite}\n")
    for line in lines:
        sys.stdout.write(line + "\n")
    sys.stdout.write(f"result: {'PASS' if ok else 'FAIL'}\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify-certificate


def _cmd_verify_certificate(args) -> int:
    try:
        payload = json.loads(_read(args.certificate))
    # the decoder recurses per nesting level, so a deep enough file exhausts
    # the stack rather than failing to decode
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad certificate JSON: {exc}") from None
    valid = recheck_certificate(payload, _load_instance(args)[0])
    sys.stdout.write(_dump({"schema": SCHEMA, "command": "verify-certificate", "valid": valid}))
    return 0 if valid else 1


# ---------------------------------------------------------------------------
# parser


# built on first use and then reused: parsing leaves no state in the parser,
# and no command mutates a parsed default
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpacking",
        description="Exact packing-function solvers and perfection recognizers.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="materialize a named family member")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("parameters", nargs="*", type=int)
    p.add_argument("--matrix", action="store_true",
                   help="emit the closed neighbourhood matrix instead of the graph")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve a packing instance from a graph file")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=["kpf", "limited", "lp"], default="kpf")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the exhaustive oracle")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("recognize", help="run extended clique-node recognizers")
    _add_instance_options(p)
    p.add_argument("--method", choices=[*CERTIFICATE_KINDS, "all"], default="all")
    p.add_argument("--certificate", action="store_true",
                   help="include re-checkable witnesses in the report")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("perfection", help="perfection verdicts for a graph or matrix")
    _add_instance_options(p)
    p.add_argument("--emit-vertices", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_perfection)

    p = sub.add_parser("analyze", help="full report: recognizers, perfection, packing")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("input", nargs="?")
    grp.add_argument("--family", nargs="+", metavar=("NAME", "PARAM"),
                     action=_FamilyAction,
                     help="analyze a generated family member instead of a file")
    p.add_argument("--k", type=_parse_k_list, default=[2, 3])
    p.add_argument("--certificates", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--k", type=_parse_k_list, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("verify-certificate", help="recheck an emitted certificate")
    p.add_argument("certificate", help="certificate JSON file")
    _add_instance_options(p)
    p.set_defaults(func=_cmd_verify_certificate)

    return parser


# exit code of each error class that is not bad input (exit 2)
_EXIT_CODES = ((CapExceededError, 3), (ConsistencyError, 1), (OSError, 4))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (KpackingError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), 2)


if __name__ == "__main__":
    sys.exit(main())
