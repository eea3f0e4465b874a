"""Benchmark of the pseudoproc library: three workloads, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload kernel-desk --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/workloads.py``): kernel-desk, fn-spacedrift,
verify-suite.  One process runs one workload.  Operations run one after
another, each starting when the previous one has returned.  They cycle
through the seeded pool of inputs, and the run stops at the end of the
cycle nearest to ``--seconds`` (after one cycle at least), so that every
input runs equally often.  Every operation's output is checked outside
the timed interval.  Before each operation the process pins itself to the
quietest allowed CPU (see ``pin_quietest_cpu``).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` installs the hooks of ``perfbench/tracing.py`` and reports
the per-layer metrics instead, per operation.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The line before it is the run record: environment, generated
parameters, all six end-to-end figures (with op_s_tail and failed_frac,
which BENCHMARK.json cannot carry because they may be absent or zero), and
in a traced run the self time of every layer.  Run records and span files
go to ``perfbench/out/``.

The package is imported from ``src/`` of the same checkout; without it the
benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import os

# Cap BLAS threads before numpy loads: one client runs at a time, and a
# fixed cap keeps runs comparable across hosts.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10
CPUS = sorted(os.sched_getaffinity(0))
PIN_LOOPS = 1200          # about 3 ms per CPU


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print 'ready' and exit "
                         "(the cold-start probe behind setup_s)")
    return ap.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed) -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(CPUS),
            "blas_threads_cap": int(BLAS_THREADS), "seed": seed,
            "platform": platform.platform(),
            "load_model": "closed loop, one client"}


def _probe_seconds(loops) -> float:
    x = [float(k) for k in range(64)]
    t0 = time.perf_counter()
    for _ in range(loops):
        sum(v * v for v in x)
    return time.perf_counter() - t0


def pin_quietest_cpu():
    """Pin this process to the allowed CPU on which a short probe runs fastest.

    On a shared host one CPU is often slowed by another tenant for seconds
    at a time while the other is not.  Choosing before each operation (and
    before each set-up probe, which inherits the choice) keeps that part of
    the noise out of most operations.
    """
    best, best_s = CPUS[0], math.inf
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        _probe_seconds(PIN_LOOPS)
        seconds = _probe_seconds(PIN_LOOPS)
        if seconds < best_s:
            best, best_s = cpu, seconds
    os.sched_setaffinity(0, {best})


def cold_setup_seconds(args) -> list:
    """Wall time from spawning a fresh interpreter to a built workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_REPEATS):
        pin_quietest_cpu()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                samples.append(time.perf_counter() - t0)
                proc.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode})")
    return samples


def tail(times):
    """Highest percentile with TAIL_BEYOND samples above it.

    None below 2 * TAIL_BEYOND operations: with fewer, that percentile
    would fall below the median.
    """
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(times)
    return {"value": ordered[n - 1 - TAIL_BEYOND],
            "percentile": round(100.0 * (n - TAIL_BEYOND) / n, 1),
            "samples": n}


def describe(name, seed, summary) -> str:
    """The six end-to-end figures as an aligned table."""
    setup, p50 = summary["setup_s"], summary["op_s_p50"]
    tl = summary["op_s_tail"]
    err, fails = summary["result_err"], summary["failed_frac"]
    lines = [f"{name} seed {seed}: {p50['samples']} operations, "
             "closed loop, one client",
             f"  setup_s      {setup['value']:.4f} s    median of "
             f"{len(setup['samples'])} cold starts",
             f"  op_s_p50     {p50['value']:.4f} s    n={p50['samples']}"]
    if tl is None:
        lines.append(f"  op_s_tail    absent      needs {2 * TAIL_BEYOND} "
                     "operations")
    else:
        lines.append(f"  op_s_tail    {tl['value']:.4f} s    "
                     f"p{tl['percentile']:g}, n={tl['samples']}")
    if err["value"] is not None:
        lines.append(f"  result_err   {err['value']:.4e}  mean over "
                     f"{err['entries']} inputs (max {err['max']:.4e})")
    lines.append(f"  failed_frac  {fails['failed']}/{fails['attempted']}")
    lines.append(f"  peak_rss_mb  {summary['peak_rss_mb']['value']:.1f} MB")
    return "\n".join(lines)


def set_up(workload):
    scratch = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        workload.setup(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, workload, tracer):
    """Set up, then run whole cycles of the pool for about ``--seconds``.

    A run ends after the cycle whose end is nearest to ``--seconds``, as
    judged by the mean cycle time so far (operations plus checks), and
    after one cycle at least.  Returns (pool index, seconds, Check, error)
    per operation, with exactly one of Check and error set.
    """
    set_up(workload)
    if tracer is not None:
        tracer.install()
    ops = []
    start = time.perf_counter()
    while True:
        k = len(ops) % workload.pool_size
        outdir = tempfile.mkdtemp(prefix="op-", dir=OUT)
        seconds, check, error = math.nan, None, None
        pin_quietest_cpu()
        try:
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                output = workload.run(k, outdir)
            finally:
                seconds = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            check = workload.check(k, outdir, output)
        except Exception as err:  # a failed operation is counted, not fatal
            error = f"{type(err).__name__}: {err}"
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        ops.append((k, seconds, check, error))
        if len(ops) % workload.pool_size == 0:
            elapsed = time.perf_counter() - start
            cycle = elapsed * workload.pool_size / len(ops)
            if elapsed + cycle / 2 > args.seconds:
                break
    if tracer is not None:
        tracer.uninstall()
    return ops, start


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pseudoproc" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](np.random.default_rng(args.seed))
    OUT.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        set_up(workload)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = cold_setup_seconds(args)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    results, origin = run(args, workload, tracer)

    times = [sec for _, sec, _, _ in results]
    checks = [c for _, _, c, _ in results if c is not None]
    errors = [e for _, _, _, e in results if e is not None]
    attempted = sum(c.attempted for c in checks) + len(errors)
    failed = sum(c.failed for c in checks) + len(errors)
    ops = len(times)
    # each pool entry's error is deterministic: count it once
    by_entry = {}
    for k, _, c, _ in results:
        if c is not None and not math.isnan(c.error):
            by_entry.setdefault(k, c.error)
    errs = list(by_entry.values())
    summary = {
        "setup_s": {"value": statistics.median(setup), "unit": "s",
                    "samples": setup},
        "op_s_p50": {"value": statistics.median(times), "unit": "s",
                     "samples": ops},
        "op_s_tail": tail(times),
        "result_err": {"value": statistics.fmean(errs) if errs else None,
                       "unit": "rel", "max": max(errs) if errs else None,
                       "entries": len(errs)},
        "failed_frac": {"value": failed / attempted if attempted else None,
                        "unit": "ratio", "failed": failed,
                        "attempted": attempted},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "operations": ops,
              "op_times_s": times,
              "entry_errors": [by_entry.get(k)
                               for k in range(workload.pool_size)],
              "env": environment(args.seed),
              "params": workload.params(), "end_to_end": summary,
              "problems": [p for c in checks for p in c.problems] + errors}

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        per_op = {k: v / ops for k, v in tracer.metric_values().items()}
        record["layer_self_s_per_op"] = {
            k: v / ops for k, v in tracer.layer_self_seconds().items()}
        record["absent"] = [m["name"] for m in declared
                            if m["name"] not in per_op]
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans, origin)
        record["spans_file"] = str(spans.relative_to(ROOT))
        metrics = {m["name"]: {"value": per_op[m["name"]], "unit": m["unit"]}
                   for m in declared if m["name"] in per_op}
    else:
        metrics = {m["name"]: {"value": summary[m["name"]]["value"],
                               "unit": m["unit"]} for m in declared}

    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(describe(args.workload, args.seed, summary))
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0 and ops > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
