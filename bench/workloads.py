"""Workloads of the kpacking benchmark.

Each workload is a list of ops.  An op is one library call (one graph, one
``(graph, k)`` pair or one CLI command) that the harness times on its own,
plus a check of its output.  Inputs are built from the workload seed only, so
the same seed always gives the same ops.  The library is reached only through
attribute lookups on the ``kpacking`` package and ``kpacking.cli.main`` at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import kpacking as kp
import kpacking.cli
from kpacking.cli import KNOWN_CENSUS_COUNTS

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
WORK_DIR = BENCH_DIR / ".work"

# Per-op deadline in seconds.  The slowest op that is expected to finish,
# solve_kpf(cycle(16), 5), takes about 8 s on a 2-core x86-64 VM.
OP_DEADLINE_S = 30.0

# The census part covers every connected graph up to this size.
CENSUS_MAX_N = 7
SCALING_MAX_N = 6
SCALING_KS = (2, 3, 4)


@dataclass
class Op:
    """One timed call.  ``check(output, memo)`` returns a failure reason or
    None; ``memo`` maps the names of this pass's earlier ops to their outputs.
    ``prepare`` runs untimed right before the call."""

    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], str | None]
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    ops: list[Op]
    # set-up checks that failed; each one counts as a failed op
    setup_failures: list[str] = field(default_factory=list)
    setup_checks: int = 0
    work_dir: Path | None = None

    def close(self) -> None:
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)
            self.work_dir = None


def random_connected_graph(rng: random.Random, n: int, p: float):
    """G(n, p) conditioned on being connected (rejection sampling)."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    while True:
        g = kp.Graph.from_edges(n, [e for e in pairs if rng.random() < p])
        if kp.is_connected(g):
            return g


def _census(max_n: int, wl: Workload) -> list:
    graphs = []
    for n in range(1, max_n + 1):
        members = list(kp.enumerate_connected_graphs(n))
        wl.setup_checks += 1
        if len(members) != KNOWN_CENSUS_COUNTS[n]:
            wl.setup_failures.append(
                f"census({n}) has {len(members)} classes, "
                f"expected {KNOWN_CENSUS_COUNTS[n]}"
            )
        graphs.extend(members)
    return graphs


# ---------------------------------------------------------------------------
# census: every verdict path of perfection_report, no solver


def _check_report(rep, memo) -> str | None:
    certs = rep.certificates
    if certs["cliques"].verdict != certs["pattern"].verdict:
        return "exact recognizers disagree"
    if rep.matrix_perfect is None:
        return "polytope verdict missing"
    if rep.matrix_perfect != rep.neighbourhood_matrix_perfect:
        return "polytope verdict differs from the combined verdict"
    return None


# Few and dense: at edge probability 0.65 a 10-node graph can take over 1 s
# in vertex enumeration, so the pass time would depend on the seed; at 0.8
# the seeded part costs 0.21-0.31 s over seeds 11-20 on a 2-core x86-64 VM.
CENSUS_SEEDED_GRAPHS = 16
CENSUS_SEEDED_EDGE_P = 0.8


def build_census(seed: int) -> Workload:
    wl = Workload(ops=[])
    graphs = _census(CENSUS_MAX_N, wl)
    rng = random.Random(f"census-{seed}")
    graphs += [
        random_connected_graph(rng, rng.randint(8, 10), CENSUS_SEEDED_EDGE_P)
        for _ in range(CENSUS_SEEDED_GRAPHS)
    ]
    for i, g in enumerate(graphs):
        wl.ops.append(
            Op(f"census/{i}/n{g.n}", lambda g=g: kp.perfection_report(g), _check_report)
        )
    return wl


# ---------------------------------------------------------------------------
# scaling: check_scaling_identity over the census, once per k


def _check_scaling(rep, memo) -> str | None:
    if rep.kpf_value < rep.k_times_l1:
        return "integer optimum below k times the binary optimum"
    if rep.limited_value > rep.kpf_value:
        return "binary optimum above the integer optimum"
    if rep.lp_value is None or rep.kpf_value > rep.lp_value:
        return "relaxation missing or below the integer optimum"
    if rep.neighbourhood_perfect and not rep.equality:
        return "perfect neighbourhood matrix but the scaling identity failed"
    return None


def build_scaling(seed: int) -> Workload:
    wl = Workload(ops=[])
    for i, g in enumerate(_census(SCALING_MAX_N, wl)):
        for k in SCALING_KS:
            wl.ops.append(
                Op(
                    f"scaling/{i}/k{k}",
                    lambda g=g, k=k: kp.check_scaling_identity(g, k),
                    _check_scaling,
                )
            )
    return wl


# ---------------------------------------------------------------------------
# packing: branch-and-bound on a named grid plus seeded random graphs

PACKING_REFERENCES = DATA_DIR / "packing_references.json"
PACKING_SEEDED_GRAPHS = 12
PACKING_SEEDED_KS = (1, 2, 3)
SOLVERS = {"kpf": "solve_kpf", "limited": "solve_limited_packing"}


def packing_grid() -> list:
    """Named (label, graph, k) instances; the references file is keyed by
    ``"<label>,k=<k>"``."""
    grid = [(f"cycle({n})", kp.cycle(n), k) for n in range(5, 17) for k in range(1, 6)]
    grid += [(f"web({n},2)", kp.web(n, 2), k) for n in range(5, 15) for k in (1, 2, 3)]
    grid += [(f"wheel({n})", kp.wheel(n), k) for n in range(4, 15) for k in (1, 2, 3)]
    grid += [
        (f"clique_cycle({j})", kp.clique_cycle_family(j), k)
        for j in (1, 2, 3)
        for k in (1, 2, 3)
    ]
    # cost grows with k here; k = 80 takes about 5 s and is left out
    grid += [("cycle(5)", kp.cycle(5), k) for k in (10, 20, 40)]
    return grid


def _solve_op(name: str, g, k: int, variant: str, check) -> Op:
    solver = SOLVERS[variant]
    return Op(name, lambda: getattr(kp, solver)(g, k), check)


def _check_witness(g, k: int, variant: str, expected: int | None):
    def check(res, memo) -> str | None:
        w = res.witness
        if w.k != k or not w.is_feasible(g):
            return "witness infeasible"
        if w.objective() != res.optimum:
            return "witness objective differs from the reported optimum"
        if variant == "limited" and not w.is_binary():
            return "binary variant returned a non-binary witness"
        if expected is not None and res.optimum != expected:
            return f"optimum {res.optimum}, reference {expected}"
        return None

    return check


def _check_seeded(g, k: int, variant: str, prefix: str):
    """The solver-side cross-checks of check_scaling_identity, made across
    this graph's earlier ops in the same pass."""
    base = _check_witness(g, k, variant, None)

    def check(res, memo) -> str | None:
        reason = base(res, memo)
        if reason is not None:
            return reason
        l1 = memo.get(f"{prefix}/k1/limited")
        kpf = memo.get(f"{prefix}/k{k}/kpf")
        if variant == "limited" and kpf is not None and res.optimum > kpf.optimum:
            return "binary optimum above the integer optimum"
        if variant == "kpf" and l1 is not None and res.optimum < k * l1.optimum:
            return "integer optimum below k times the binary optimum"
        if k == 1 and variant == "limited" and kpf is not None and res.optimum != kpf.optimum:
            return "k = 1 optima of the two variants differ"
        return None

    return check


def load_packing_references() -> dict:
    return json.loads(PACKING_REFERENCES.read_text(encoding="utf-8"))


def build_packing(seed: int) -> Workload:
    refs = load_packing_references()
    units = []  # ops that stay adjacent: one instance, or one seeded graph
    for label, g, k in packing_grid():
        key = f"{label},k={k}"
        units.append([
            _solve_op(
                f"packing/{key}/{variant}", g, k, variant,
                _check_witness(g, k, variant, refs[key][variant]["optimum"]),
            )
            for variant in SOLVERS
        ])
    rng = random.Random(f"packing-{seed}")
    for i in range(PACKING_SEEDED_GRAPHS):
        g = random_connected_graph(rng, rng.randint(10, 12), 0.3)
        prefix = f"packing/seeded{i}"
        units.append([
            _solve_op(
                f"{prefix}/k{k}/{variant}", g, k, variant,
                _check_seeded(g, k, variant, prefix),
            )
            for k in PACKING_SEEDED_KS
            for variant in SOLVERS
        ])
    # A fixed shuffle spreads cheap and expensive ops over the pass, so each
    # latency percentile samples the whole pass rather than a few seconds.
    random.Random("packing-order").shuffle(units)
    return Workload(ops=[op for unit in units for op in unit])


def build_deadline(seed: int) -> Workload:
    """The instance that outlives the deadline, then one that must still pass:
    solve_kpf(cycle(20), 5) ran for more than 600 s without finishing."""
    refs = load_packing_references()
    g20, g5 = kp.cycle(20), kp.cycle(5)
    return Workload(
        ops=[
            _solve_op("deadline/cycle(20),k=5/kpf", g20, 5, "kpf",
                      _check_witness(g20, 5, "kpf", None)),
            _solve_op("deadline/cycle(5),k=10/kpf", g5, 10, "kpf",
                      _check_witness(g5, 10, "kpf", refs["cycle(5),k=10"]["kpf"]["optimum"])),
        ]
    )


# ---------------------------------------------------------------------------
# cli: in-process kpacking.cli.main on files that `gen` writes during set-up

CLI_GOLDEN = DATA_DIR / "cli_golden.json"
CLI_MEMBERS = (
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


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    output: Path | None = None  # the --output file, for commands that write one

    def digest(self) -> str:
        text = self.stdout if self.output is None else self.output.read_text(encoding="utf-8")
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv: list[str], output: Path | None = None) -> CliResult:
    out = io.StringIO()
    # stderr carries analyze's timing line, which is not reproducible
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = kpacking.cli.main(argv)
    return CliResult(code, out.getvalue(), output)


def _check_cli(expected: dict | None):
    def check(res: CliResult, memo) -> str | None:
        if expected is None:
            return "no golden output recorded"
        if res.code != expected["exit"]:
            return f"exit code {res.code}, golden {expected['exit']}"
        if res.digest() != expected["sha256"]:
            return "output differs from the golden digest"
        return None

    return check


def _extract_certificate(report: Path, method: str, dest: Path):
    def prepare() -> None:
        payload = json.loads(report.read_text(encoding="utf-8"))
        cert = payload["methods"][method]["certificate"]
        dest.write_text(json.dumps(cert), encoding="utf-8")

    return prepare


def build_cli(seed: int) -> Workload:
    golden = json.loads(CLI_GOLDEN.read_text(encoding="utf-8")) if CLI_GOLDEN.exists() else {}
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK_DIR))
    wl = Workload(ops=[], work_dir=work)

    def add(name: str, argv: list[str], output: Path | None = None, prepare=None):
        name = f"cli/{name}"
        wl.ops.append(
            Op(name, lambda: run_cli(argv, output), _check_cli(golden.get(name)), prepare)
        )

    for family, *params in CLI_MEMBERS:
        member = "-".join([family, *params])
        graph, matrix = str(work / f"{member}.graph"), str(work / f"{member}.matrix")
        for extra, path in (([], graph), (["--matrix"], matrix)):
            wl.setup_checks += 1
            res = run_cli(["gen", family, *params, *extra, "--output", path])
            if res.code != 0:
                wl.setup_failures.append(f"gen {member} {extra} exited {res.code}")

        add(f"{member}/solve-kpf-k2", ["solve", graph, "--k", "2"])
        add(f"{member}/solve-limited-k2", ["solve", graph, "--k", "2", "--variant", "limited"])
        add(f"{member}/solve-lp-k2", ["solve", graph, "--k", "2", "--variant", "lp"])
        add(f"{member}/solve-kpf-k1-oracle", ["solve", graph, "--k", "1", "--oracle"])
        add(f"{member}/solve-limited-k3-oracle",
            ["solve", graph, "--k", "3", "--variant", "limited", "--oracle"])
        report = work / f"{member}.recognize.json"
        add(f"{member}/recognize",
            ["recognize", "--graph", graph, "--certificate", "--output", str(report)],
            output=report)
        for method in CERTIFICATE_METHODS:
            cert = work / f"{member}.{method}.cert.json"
            add(f"{member}/verify-certificate-{method}",
                ["verify-certificate", str(cert), "--graph", graph],
                prepare=_extract_certificate(report, method, cert))
        add(f"{member}/perfection-graph", ["perfection", "--graph", graph, "--emit-vertices"])
        add(f"{member}/perfection-matrix", ["perfection", "--matrix", matrix, "--emit-vertices"])
        add(f"{member}/analyze", ["analyze", "--family", family, *params, "--certificates"])
    return wl


WORKLOADS = {
    "census": build_census,
    "scaling": build_scaling,
    "packing": build_packing,
    "cli": build_cli,
    "deadline": build_deadline,
}
