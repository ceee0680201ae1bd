"""Benchmark for steinerk: runs one workload from a seed and prints its metrics.

    python3 perfbench/run.py --workload steiner-query --seed 7 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` first runs the same workload untraced in a child process,
then repeats the same operations with per-layer spans and reports the per-layer
metrics. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads  # the benchmark's own module, next to this file

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
DEFAULT_SEED = 7
SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median of 1 + 4
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def check_environment() -> None:
    overrides = sorted(k for k in os.environ if k.startswith("STEINERK_"))
    if overrides:
        raise BenchError(f"unset {', '.join(overrides)}: guard overrides change the route taken")
    if not (SRC / "steinerk" / "__init__.py").is_file():
        raise BenchError(f"no steinerk package under {SRC}; run from a full checkout")


def setup(wl, seed: int, after_import=None):
    """Import steinerk and build the workload's calls; returns (sk, calls, seconds)."""
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sk = importlib.import_module("steinerk")
    if Path(sk.__file__).resolve().parent != SRC / "steinerk":
        raise BenchError(f"imported steinerk from {sk.__file__}, not from {SRC}")
    if after_import is not None:
        after_import(sk)
    calls = wl.build(sk, seed)
    return sk, calls, time.perf_counter() - t0


def run_calls(sk, wl, calls, seconds: float, stop_at_ops: int | None = None, tracer=None):
    """Execute calls in order: the workload's digested prefix, then more until
    `seconds` have passed and MIN_OPS operations are done; or, given stop_at_ops,
    until that many operations are done. A call that raises yields None and
    counts as one failed operation."""
    done = []
    ops = 0
    t0 = time.perf_counter()
    for i, call in enumerate(calls):
        if stop_at_ops is not None:
            if ops >= stop_at_ops:
                break
        elif (i >= wl.prefix_calls and ops >= workloads.MIN_OPS
              and time.perf_counter() - t0 >= seconds):
            break
        if tracer is not None:
            tracer.op = i
        try:
            out = wl.execute(sk, call)
        except Exception:  # a failing call must not end the run; it is counted
            traceback.print_exc(file=sys.stderr)
            out = None
        done.append((call, out))
        ops += len(out) if out else 1
    return done, time.perf_counter() - t0


def call_digest(out) -> str:
    text = json.dumps([rec for _, rec in out], separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def gate(sk, wl, done, seed: int) -> tuple[int, int, list[str]]:
    """Independent correctness checks after the timed loop: (attempted, failed, notes)."""
    notes = []
    expected = None
    if seed == DEFAULT_SEED and DIGESTS.is_file():
        expected = json.loads(DIGESTS.read_text()).get(wl.name)
        if expected is None:
            notes.append(f"no recorded digest for {wl.name}")
    attempted = failed = 0
    mismatched = 0
    for idx, (call, out) in enumerate(done):
        if not out:
            attempted += 1
            failed += 1
            continue
        ok = wl.check(sk, call, [rec for _, rec in out])
        if expected is not None and idx < len(expected) and call_digest(out) != expected[idx]:
            ok = [False] * len(out)
            mismatched += 1
        attempted += len(out)
        failed += ok.count(False)
    if expected is not None:
        notes.append(f"digest: {len(expected) - mismatched}/{len(expected)} calls match")
    return attempted, failed, notes


def environment(sk) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "dp_limit": sk.config.dp_limit(),
        "oracle_guard": sk.config.oracle_guard(),
        "spectrum_limit": sk.config.spectrum_limit(),
    }


def _child(args: argparse.Namespace, *extra: str) -> str:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child run failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, wl) -> dict:
    sk, calls, setup_s = setup(wl, args.seed)
    print(json.dumps({"env": environment(sk)}))
    done, wall = run_calls(sk, wl, calls, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [lat for _, out in done if out for lat, _ in out]
    attempted, failed, notes = gate(sk, wl, done, args.seed)
    setups = [setup_s] + [float(_child(args, "--setup-probe")) for _ in range(SETUP_PROBES)]
    print(f"calls: {len(done)}; latency samples: {len(latencies)}; wall: {wall:.3f} s; "
          f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}; " + "; ".join(notes))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": _metric(attempted / wall, "1/s"),
            "op_p50_ms": _metric(statistics.median(latencies) * 1000.0, "ms"),
            "op_p90_ms": _metric(statistics.quantiles(latencies, n=10)[8] * 1000.0, "ms"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "ok_ops_share": _metric((attempted - failed) / attempted, "share"),
        },
    }


def run_traced(args, wl) -> dict:
    from spans import Tracer

    untraced = json.loads(_child(args, "--trace", "0"))
    untraced_wall = untraced["attempted"] / untraced["metrics"]["ops_per_s"]["value"]
    holder = {}

    def install(sk):
        holder["tracer"] = tracer = Tracer(sk.config.spectrum_limit())
        tracer.install()
        tracer.start()

    sk, calls, _ = setup(wl, args.seed, after_import=install)
    tracer = holder["tracer"]
    env = environment(sk)
    print(json.dumps({"env": env}))
    try:
        done, wall = run_calls(sk, wl, calls, args.seconds,
                               stop_at_ops=untraced["attempted"], tracer=tracer)
    finally:
        tracer.stop()
        tracer.restore()
    attempted, failed, notes = gate(sk, wl, done, args.seed)
    metrics = tracer.metrics(wall - untraced_wall)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({"workload": wl.name, "seed": args.seed, "env": env,
                                      "traced_wall_s": wall, "untraced_wall_s": untraced_wall,
                                      **tracer.dump()}))
    print(f"calls: {len(done)}; spans: {len(tracer.spans)}; traced wall: {wall:.3f} s; "
          f"untraced wall: {untraced_wall:.3f} s; spans written to {trace_file}; "
          + "; ".join(notes))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: _metric(v, unit) for name, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    try:
        check_environment()
        if args.setup_probe:
            print(setup(wl, args.seed)[2])
            return 0
        result = run_traced(args, wl) if args.trace else run_untraced(args, wl)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
