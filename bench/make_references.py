"""Regenerate the stored expectations of the benchmark.

    python3 bench/make_references.py packing   # optima for the packing grid
    python3 bench/make_references.py cli       # sha256 of each CLI op's output

``packing`` takes each optimum from the library's brute-force oracle wherever
``(top + 1) ** n`` fits ``BRUTEFORCE_STATE_CAP`` (top is k, or 1 for the
binary variant) and from the branch-and-bound solver elsewhere; the source is
stored next to each value.  On a 2-core x86-64 VM it takes about 30 minutes.
``cli`` records the current outputs as golden; run it only when a change of
CLI output is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import kpacking as kp  # noqa: E402
from kpacking.solver import BRUTEFORCE_STATE_CAP  # noqa: E402

import workloads  # noqa: E402


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def make_packing() -> None:
    oracles = {"kpf": kp.solve_kpf_bruteforce, "limited": kp.solve_limited_bruteforce}
    jobs = []
    for label, g, k in workloads.packing_grid():
        for variant in workloads.SOLVERS:
            top = k if variant == "kpf" else 1
            jobs.append(((top + 1) ** g.n, f"{label},k={k}", variant, g, k))
    refs: dict = {}
    # cheapest first, saving after each, so an interrupted run keeps its work
    for states, key, variant, g, k in sorted(jobs, key=lambda j: j[0]):
        if states <= BRUTEFORCE_STATE_CAP:
            optimum, source = oracles[variant](g, k).optimum, "bruteforce"
        else:
            solver = getattr(kp, workloads.SOLVERS[variant])
            optimum, source = solver(g, k).optimum, "solver"
        refs.setdefault(key, {})[variant] = {"optimum": optimum, "source": source}
        _write(workloads.PACKING_REFERENCES, refs)
        print(f"{key} {variant}: {optimum} ({source}, {states} states)", flush=True)


def make_cli() -> None:
    wl = workloads.build_cli(0)
    try:
        golden = {}
        for op in wl.ops:
            if op.prepare is not None:
                op.prepare()
            out = op.call()
            if out.code != 0:
                sys.exit(f"{op.name} exited {out.code}; refusing to record it")
            golden[op.name] = {"exit": out.code, "sha256": out.digest()}
        _write(workloads.CLI_GOLDEN, golden)
    finally:
        wl.close()


if __name__ == "__main__":
    if sys.argv[1:] == ["packing"]:
        make_packing()
    elif sys.argv[1:] == ["cli"]:
        make_cli()
    else:
        sys.exit("usage: make_references.py packing|cli")
