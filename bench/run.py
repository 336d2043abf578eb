"""Run one workload of the kpacking benchmark and print its metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the library from ``src/``.  The
timed section repeats whole passes over the workload's ops, in one process
and one thread, until ``--seconds`` have passed.  Every output is checked; wrong outputs, exceptions and deadline hits count as
failed ops.  With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, with times taken to a reference machine speed (see
``speed.py``); with ``--trace 1`` the run alternates untraced and traced
passes and carries the per-layer metrics, unscaled.  The last line of standard output
is the result as one JSON object; the lines before it repeat the metrics for
reading, with the run's metadata.
"""

from __future__ import annotations

import time

PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# fresh processes whose set-up time is measured; setup_s is their median
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120


def _die(message: str) -> None:
    sys.stderr.write(f"error: {message}\n")
    sys.exit(2)


def _import_library():
    """Import kpacking from this checkout's src/ and nowhere else."""
    if not (SRC / "kpacking" / "__init__.py").is_file():
        _die(f"no kpacking package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import kpacking

    if SRC.resolve() not in Path(kpacking.__file__).resolve().parents:
        _die(f"imported kpacking from {kpacking.__file__}, not from {SRC}")
    return kpacking


class DeadlineExceeded(Exception):
    """Raised from SIGALRM when an op outlives OP_DEADLINE_S."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class PassResult:
    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    timeouts: int = 0


def run_op(op, memo: dict, deadline_s: float) -> tuple[float, str | None]:
    """Time one op under the deadline; return (latency, failure reason)."""
    latency = 0.0
    try:
        if op.prepare is not None:
            op.prepare()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            out = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            latency = time.perf_counter() - start
        memo[op.name] = out
        return latency, op.check(out, memo)
    except DeadlineExceeded:
        return latency, "timeout"
    except Exception as exc:  # any exception fails this op, not the run
        return latency, f"{type(exc).__name__}: {exc}"


def run_pass(ops, deadline_s: float, probe: SpeedProbe | None = None) -> PassResult:
    """Run every op once.  Speed-probe slices between ops are left out of
    the pass time."""
    gc.collect()
    result = PassResult()
    memo: dict = {}
    probing = 0.0
    start = time.perf_counter()
    for op in ops:
        latency, reason = run_op(op, memo, deadline_s)
        result.latencies.append(latency)
        if reason is not None:
            result.failures.append((op.name, reason))
            result.timeouts += reason == "timeout"
        if probe is not None:
            probing += probe.tick()
    result.seconds = time.perf_counter() - start - probing
    return result


def _setup_samples(args) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only", repr(time.monotonic()),
        ]
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90 by tens) of ``values``."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def _end_to_end(passes: list[PassResult], setup, scale: float) -> dict[str, float]:
    """Times are multiplied by ``scale`` to take them to the reference speed;
    the ``raw_`` entries are as measured."""
    latencies = [x for p in passes for x in p.latencies]
    busy = sum(p.seconds for p in passes)
    completed = sum(len(p.latencies) - p.timeouts for p in passes)
    attempted = sum(len(p.latencies) for p in passes)
    raw = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.seconds for p in passes),
        "ops_per_s": completed / busy,
        "op_p50_ms": 1000 * _quantile(latencies, 50),
        "op_p90_ms": 1000 * _quantile(latencies, 90),
    }
    out = {
        "setup_s": raw["setup_s"] * scale,
        "wall_s": raw["wall_s"] * scale,
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_p50_ms": raw["op_p50_ms"] * scale,
        "op_p90_ms": raw["op_p90_ms"] * scale,
        "fail_ratio": sum(len(p.failures) for p in passes) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speed_scale": scale,
    }
    out.update({f"raw_{name}": value for name, value in raw.items()})
    return out


def _per_layer(tracing, setup_stats, pass_stats, traced, untraced) -> dict[str, float]:
    """Set-up plus one traced pass: times are medians over the traced passes,
    counts come from the first (they repeat exactly from pass to pass)."""
    out: dict[str, float] = {}
    empty = tracing.FunctionStats()
    for module, functions in tracing.TRACED.items():
        for fn in functions:
            name = f"{module}.{fn}"
            s = setup_stats.get(name, empty)
            first = pass_stats[0].get(name, empty)
            calls = s.calls + first.calls
            self_ns = s.self_ns + statistics.median(
                p.get(name, empty).self_ns for p in pass_stats
            )
            out[f"{name}.self_s"] = self_ns / 1e9
            out[f"{name}.calls"] = calls
            out[f"{name}.distinct_ratio"] = (
                len(s.inputs | first.inputs) / calls if calls else 0.0
            )
            if name in tracing.EXPLORING:
                out[f"{name}.explored"] = s.explored + first.explored
    out["solver.deadline_hits"] = traced[0].timeouts
    traced_wall = statistics.median(p.seconds for p in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_ratio"] = traced_wall / statistics.median(
        p.seconds for p in untraced
    ) - 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the workload in this fresh process, print the time
    # since the parent's monotonic clock read this value, and exit
    parser.add_argument("--setup-only", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_library()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]

    if args.setup_only is not None:
        build(args.seed).close()
        print(json.dumps({"setup_s": time.monotonic() - args.setup_only}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = workloads.OP_DEADLINE_S

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    wl = build(args.seed)
    own_setup_s = time.monotonic() - PROCESS_START
    try:
        if tracer is not None:
            setup_stats = tracer.take()
            tracer.uninstall()
        untraced: list[PassResult] = []
        traced: list[PassResult] = []
        pass_stats = []
        probe = SpeedProbe()
        started = time.perf_counter()
        while True:
            untraced.append(run_pass(wl.ops, deadline, probe))
            if tracer is not None:
                tracer.install()
                traced.append(run_pass(wl.ops, deadline, probe))
                pass_stats.append(tracer.take())
                tracer.uninstall()
            if time.perf_counter() - started >= args.seconds:
                break
    finally:
        wl.close()

    passes = untraced + traced
    attempted = sum(len(p.latencies) for p in passes) + wl.setup_checks
    failures = [f for p in passes for f in p.failures]
    failed = len(failures) + len(wl.setup_failures)
    for reason in wl.setup_failures:
        sys.stderr.write(f"FAILED set-up: {reason}\n")
    for name, reason in failures[:20]:
        sys.stderr.write(f"FAILED {name}: {reason}\n")

    if tracer is None:
        values = _end_to_end(untraced, _setup_samples(args), probe.scale())
    else:
        values = _per_layer(tracing, setup_stats, pass_stats, traced, untraced)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(untraced), "traced_passes": len(traced),
        "ops_per_pass": len(wl.ops), "timeouts": sum(p.timeouts for p in passes),
        "op_deadline_s": deadline, "this_process_setup_s": own_setup_s,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)), "git_commit": _git_commit(),
    }
    for name, value in sorted(values.items()):
        print(f"{name:60s} {value if isinstance(value, int) else f'{value:.6g}'}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed,
         "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
