"""Benchmark of perronlab through its CLI and its public Python API.

Run from the repository root:

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Workloads are ``spectrum``, ``suites`` and ``probes`` (see README.md).  A run
sets up three times (import in a fresh interpreter, inputs written from the
seed, a warm-up), then
repeats the workload's fixed call list in a closed loop, one call at a time,
until the next pass would end after ``--seconds`` (at least one pass).  Each
call's output is checked by the oracle outside the timed interval.  With
``--trace 1`` the first half of the time runs untraced and the same number of
passes then runs traced, which gives the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr

# The benchmark's own modules (oracle, tracing, workloads) import numpy, so
# they are imported inside the functions that use them, after
# pin_environment() has run.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spectrum", "suites", "probes")
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """One BLAS/OpenMP thread, so the suites' thread pool stays within nproc;
    PERRONLAB_THREADS unset, so the program's default worker count applies.
    Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PERRONLAB_THREADS", None)


SRC = os.path.join(ROOT, "src")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import perronlab.cli; "
                "print(time.perf_counter() - t)")


def import_program() -> None:
    """Import perronlab from this checkout's src/.  Raises ImportError when
    src/ does not hold the package."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import perronlab
    import perronlab.cli  # noqa: F401

    if not os.path.abspath(perronlab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"perronlab imported from {perronlab.__file__}, "
                          f"not from {SRC}")


def import_seconds() -> float:
    """Time to import perronlab (numpy and scipy included) in a fresh
    interpreter, as a user of the CLI pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "perronlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": openblas, "git_sha": _git_sha(),
            "src_sha256": digest.hexdigest(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "PERRONLAB_THREADS": os.environ.get("PERRONLAB_THREADS")}


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Tally:
    """Latencies, verdict counts and failures of one phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.verdicts = 0
        self.failed = 0
        self.known: Counter[str] = Counter()
        self.unexpected: list[str] = []
        self.output_bytes = 0
        self.pass_rates: list[float] = []

    @property
    def passes(self) -> int:
        return len(self.pass_rates)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def execute(call):
    """Run one call; returns (latency_s, exit code, parsed output, API result,
    standard error).  A call that raises is timed and returns exit code None
    and no output."""
    from perronlab import cli, semigroup

    if call.out and os.path.exists(call.out):
        os.remove(call.out)
    rc = result = None
    err = io.StringIO()
    with redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if call.argv is None:
                grid, t, f, interp = call.args
                result = semigroup.semigroup_apply(grid, t, f, interp=interp)
            else:
                rc = cli.main(call.argv)
        except Exception as exc:  # a raised call is a failed verdict
            print(f"raised {exc!r}", file=err)
        latency = time.perf_counter() - t0
    out = None
    if call.out and os.path.exists(call.out):
        with open(call.out) as fh:
            out = json.load(fh)
    return latency, rc, out, result, err.getvalue()


def run_passes(calls, tally: Tally, budget_s: float, min_passes: int,
               max_passes: int | None = None, tracer=None) -> None:
    import oracle

    start = time.monotonic()
    while max_passes is None or tally.passes < max_passes:
        pass_start = time.monotonic()
        first = len(tally.latencies)
        for call in calls:
            if tracer is not None:
                tracer.active = True
            latency, rc, out, result, err = execute(call)
            if tracer is not None:
                tracer.active = False
            tally.latencies.append(latency)
            tally.verdicts += call.verdicts
            if call.out and out is not None:
                tally.output_bytes += os.path.getsize(call.out)
            failed, reasons = oracle.check(call, rc, out, result, err)
            if failed:
                tally.failed += failed
                key = oracle.classify(call, reasons)
                if key is None:
                    tally.unexpected.append(f"{call.label}: {'; '.join(reasons)}")
                else:
                    tally.known[key] += failed
        tally.pass_rates.append(sum(c.verdicts for c in calls)
                                / sum(tally.latencies[first:]))
        now = time.monotonic()
        if tally.passes >= min_passes and now - start + (now - pass_start) > budget_s:
            break


def setup(workload: str, seed: int, workdir: str, tiny: bool):
    """Import, write the inputs and warm up, SETUP_REPEATS times; returns the
    call list and the set-up durations."""
    from workloads import BUILDERS

    durations = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        import_s = import_seconds()
        t0 = time.perf_counter()
        calls, warm = BUILDERS[workload](seed, workdir, tiny)
        for call in warm:
            execute(call)
        durations.append(import_s + time.perf_counter() - t0)
    return calls, durations


def _percentile(xs: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(xs), q))


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last
    line.  `tiny` shrinks every input for the benchmark's own tests."""
    import tracing

    rundir = os.path.join(HERE, "_run")
    workdir = os.path.join(rundir, f"{workload}-{seed}-{os.getpid()}")
    try:
        calls, durations = setup(workload, seed, workdir, tiny)
        plain = Tally()
        run_passes(calls, plain, seconds / 2 if trace else seconds, 1)
        tallies = [plain]
        if trace:
            tracer = tracing.Tracer()
            traced = Tally()
            tracer.install()
            try:
                run_passes(calls, traced, 0.0, plain.passes, plain.passes, tracer)
            finally:
                tracer.uninstall()
            tallies.append(traced)
            tracer.write(os.path.join(rundir, f"trace-{workload}-{seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {workload}: {len(calls)} calls per pass, setup "
        f"{[round(d, 3) for d in durations]} s")
    for name, t in zip(("untraced", "traced"), tallies):
        n = len(t.latencies)
        print(f"# {name}: {t.passes} passes, {n} call latencies "
            f"({n - 1 - int(0.9 * (n - 1))} beyond p90), "
            f"{t.busy_s:.3f} s in calls, "
            f"{t.verdicts} verdicts, {t.failed} failed")
    by_label: dict[str, list[float]] = {}
    for i, latency in enumerate(plain.latencies):
        by_label.setdefault(calls[i % len(calls)].label, []).append(latency)
    print("# median ms by call: " + ", ".join(
        f"{label} {1e3 * statistics.median(xs):.1f} (x{len(xs)})"
        for label, xs in sorted(by_label.items(),
                                key=lambda kv: statistics.median(kv[1]))))
    attempted = sum(t.verdicts for t in tallies)
    failed = sum(t.failed for t in tallies)
    known = sum((t.known for t in tallies), Counter())
    for key, count in sorted(known.items()):
        print(f"# known failure {key}: {count} verdicts")
    unexpected = [u for t in tallies for u in t.unexpected]
    for line in unexpected[:20]:
        print(f"# UNEXPECTED {line}")

    if trace:
        overhead = traced.busy_s / plain.busy_s - 1.0
        values = tracing.layer_metrics(tracer.spans, traced.passes,
                                       traced.output_bytes, overhead)
        metrics = {k: {"value": v, "unit": tracing.unit(k)}
                   for k, v in values.items()}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(durations), "unit": "s"},
            "verdicts_per_s": {"value": statistics.median(plain.pass_rates),
                               "unit": "1/s"},
            "call_p50_ms": {"value": 1e3 * _percentile(plain.latencies, 50),
                            "unit": "ms"},
            "call_p90_ms": {"value": 1e3 * _percentile(plain.latencies, 90),
                            "unit": "ms"},
            "ok_frac": {"value": 1.0 - plain.failed / plain.verdicts,
                        "unit": "ratio"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    return {"correct": not unexpected, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import perronlab from this checkout: {exc}",
              file=sys.stderr)
        return 2
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
