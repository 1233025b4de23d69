#!/usr/bin/env python3
"""tvspec benchmark.

Runs one workload in this process, on one thread, through
``tvspec.cli.main(argv)``: the way users run tvspec.  Every request
writes its answer with ``--out`` into ``.bench_scratch/`` at the root of
the checkout; after each request its output is checked (outside the
timed region) against an independent route.

    python3 perfbench/run.py --workload qpoly --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 1

``--trace 0`` makes ``MIN_PASSES`` full passes over the workload's
requests, and more while another pass still fits in ``--seconds``, and
reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced passes the same way, counting a pair of them as one pass, and
reports the per-layer metrics as medians over the traced passes.  ``--workload all`` runs each workload in a process of
its own.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
Exit code 2 means the benchmark could not run (no tvspec sources).
"""

from __future__ import annotations

import os

# pin the environment before numpy is imported, here and in children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TVSPEC_THREADS", None)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

WORKLOADS = ("qpoly", "bands", "unitary", "premodular")
SETUP_RUNS = 7
SETUP_CODE = ("import tvspec.cli\n"
              "from tvspec.elliptic import make_lattice\n"
              "make_lattice(1j)\n")

# a pass of bands or premodular takes 17-27 s on a 2-core machine; two
# passes make each request a median of two, so those runs last longer
# than --seconds
MIN_PASSES = 2


def units(kind: str) -> dict:
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer"),
    as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def result(metrics: dict, kind: str, attempted: int, failed: int,
           correct: bool) -> dict:
    """The result line; every metric of ``kind``, printed with its unit."""
    u = units(kind)
    for name, unit in u.items():
        print(f"  {name:<26} {metrics[name]:14.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": v}
                        for k, v in u.items()}}


def body(text: str) -> bytes:
    """Output below its timestamp line (the first line naming
    'generated'): the part that is deterministic for fixed argv."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if "generated" in line:
            return "\n".join(lines[i + 1:]).encode()
    return text.encode()


def provenance(args) -> dict:
    import numpy as np

    try:
        # the ceiling keeps git from reporting an enclosing repository
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": sha}


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing tvspec.cli and
    building one lattice."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Failure:
    index: int      # the request's place in the workload
    argv: list
    problems: list
    stderr: str
    known: bool     # one of the seed commit's refusals, not a wrong answer

    def __str__(self):
        why = "; ".join(self.problems + self.stderr.splitlines())
        return f"FAILED {' '.join(self.argv)}: {why}"


class Pass:
    """One full pass over a workload's requests."""

    def __init__(self):
        self.times = []          # seconds per request
        self.bodies = []         # sha256 of each output below the timestamp
        self.failures = []       # Failure per failed request
        self.unresolved = 0
        self.bytes_out = 0


def run_pass(requests, cli, scratch: Path, tracer=None) -> Pass:
    p = Pass()
    for index, req in enumerate(requests):
        for old in scratch.glob("out.*"):
            old.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer)
            stack.enter_context(contextlib.redirect_stdout(stdout))
            stack.enter_context(contextlib.redirect_stderr(stderr))
            t0 = perf_counter()
            code = cli.main(req.argv)
            p.times.append(perf_counter() - t0)
        outs = sorted(scratch.glob("out.*"))
        data = outs[0].read_bytes() if outs else b""
        text = data.decode()
        outcome = req.check(code, text, stdout.getvalue())
        if outcome.problems:
            known = (outcome.problems == [f"exit code {code}"]
                     and req.known_refusal(code, stderr.getvalue()))
            p.failures.append(Failure(index, req.argv, outcome.problems,
                                      stderr.getvalue(), known))
        p.unresolved += outcome.unresolved
        p.bytes_out += len(data) + len(stdout.getvalue().encode())
        p.bodies.append(hashlib.sha256(
            body(text) + b"\0" + body(stdout.getvalue())).hexdigest())
    return p


def tally(passes) -> tuple:
    """Requests attempted, requests failed, and whether every failure is
    one of the seed commit's known refusals, with no more of them in a
    pass than it had.  Each request of the workload counts once however
    many passes ran it, and fails if it failed in any of them, so both
    counts depend on the seed alone, not on how many passes fitted.
    Prints every failed request once."""
    from workloads import KNOWN_REFUSALS_MAX

    failures = [f for p in passes for f in p.failures]
    seen = {}
    for f in failures:
        seen.setdefault(f.index, []).append(f)
    for same in seen.values():
        print(f"{same[0]} ({len(same)} of {len(passes)} passes)")
    correct = all(f.known for f in failures)
    known = max(sum(f.known for f in p.failures) for p in passes)
    if known > KNOWN_REFUSALS_MAX:
        print(f"{known} known refusals in one pass, more than the "
              f"{KNOWN_REFUSALS_MAX} of the seed commit")
        correct = False
    return len(passes[0].times), len(seen), correct


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from tvspec import cli
    import workloads

    prov = provenance(args)
    print("provenance " + json.dumps(prov))
    scratch = ROOT / ".bench_scratch" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        requests = workloads.make(args.workload, args.seed, str(scratch))
        if args.trace:
            return traced(args, requests, cli, scratch)
        return untraced(args, requests, cli, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):   # another run may still use it
            scratch.parent.rmdir()


def request_medians(passes) -> list:
    """Each request's time at its median over the passes, which drops
    one-off stalls from other processes."""
    return [statistics.median(ts) for ts in zip(*(p.times for p in passes))]


def untraced(args, requests, cli, scratch: Path) -> int:
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(requests, cli, scratch))
        last = perf_counter() - t0
        if (len(passes) >= MIN_PASSES
                and perf_counter() - start + last > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = measure_setup()
    attempted, failed, correct = tally(passes)
    lat_ms = [t * 1e3 for t in request_medians(passes)]
    metrics = {
        "wall_s": sum(lat_ms) / 1e3,
        "req_ms.p50": statistics.median(lat_ms),
        "req_ms.p95": statistics.quantiles(lat_ms, n=20, method="inclusive")[18],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{args.workload}: {len(passes)} passes of {len(requests)} requests, "
          f"{len(lat_ms)} latency samples (request medians), {failed}/{attempted} failed "
          f"(fail_frac {failed / attempted:.4f}), "
          f"{sum(p.unresolved for p in passes)} unresolved")
    print(f"  {'fail_frac':<26} {failed / attempted:14.6g} 1")
    print(json.dumps(result(metrics, "end_to_end", attempted, failed, correct)))
    return 0


def traced(args, requests, cli, scratch: Path) -> int:
    from layertrace import HEAVY, Tracer

    plains, traces, tracers = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        plains.append(run_pass(requests, cli, scratch))
        tracers.append(Tracer())
        traces.append(run_pass(requests, cli, scratch, tracers[-1]))
        last = perf_counter() - t0
        if (len(plains) >= MIN_PASSES
                and perf_counter() - start + last > args.seconds):
            break
    attempted, failed, correct = tally(plains + traces)
    broken = []
    for p in plains[1:] + traces:
        for req, a, b in zip(requests, plains[0].bodies, p.bodies):
            if a != b:
                broken.append(f"output differs between passes: "
                              f"{' '.join(req.argv)}")
    for layer in HEAVY[args.workload]:
        if any(t.layer_calls(layer) == 0 for t in tracers):
            broken.append(f"layer {layer} saw no calls on {args.workload}")
    # each metric at its median over the traced passes
    per_pass = [t.metrics() for t in tracers]
    metrics = {k: statistics.median(m[k] for m in per_pass)
               for k in per_pass[0]}
    metrics["cli.bytes_out"] = statistics.median(p.bytes_out for p in traces)
    metrics["spectral.unresolved"] = statistics.median(
        p.unresolved for p in traces)
    plain_s = sum(request_medians(plains))
    traced_s = sum(request_medians(traces))
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    for line in broken:
        print(f"TRACE {line}")
    print(f"{args.workload} traced: {len(traces)} pairs of passes, wall "
          f"{traced_s:.4f} s traced against {plain_s:.4f} s untraced "
          f"(request medians), {failed}/{attempted} failed")
    print(json.dumps(result(metrics, "per_layer", attempted, failed,
                            correct and not broken)))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; relays their output."""
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=1800)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            summary["metrics"][f"{name}.{k}"] = v
    if status == 0:
        print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tvspec" / "cli.py").is_file():
        print(f"no tvspec sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
