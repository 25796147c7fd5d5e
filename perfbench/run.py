"""Benchmark of the ghostline engine: one command, three workloads.

    python3 perfbench/run.py --workload {sweep,polygon,ranges} --seed N \
        --seconds S --trace {0,1}

Workloads (inputs are generated from --seed; see workloads.py):

* sweep   -- ``verify.run_grid`` with the 11 criterion-6 suites at default
             bounds over a seeded sample of (p, a, s_eps) triples weighted
             like the real grid, one pool of nproc workers.  The sample is
             sized to last about --seconds at the baseline.  One operation
             is one triple; its latency is the sum of its reports' elapsed.
* polygon -- ``np`` queries, each in a fresh ``python -m ghostline.cli``,
             sent one after another (closed loop, one client) for
             --seconds: perturbed, boundary and classical points.
* ranges  -- the same loop with ``ns`` and ``delta`` queries at large
             on-disk weights.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
runs a fixed list of operations untraced once and traced twice (each
traced process wraps ghostline's public functions, see tracer.py), checks
that every call count repeats exactly, and prints the per-layer metrics.
Every output is checked for correctness outside the timed region.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Spans of traced runs, one file per traced process.
SPANS_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
OP_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s": "s/op",
    "peak_rss_mb": "MB",
}


def _python_env(*paths: Path) -> dict:
    env = dict(os.environ)
    parts = [str(p) for p in paths]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def tail_latency(samples):
    """(value, percentile): the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    idx = len(ordered) - 11
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


class Run:
    """What one invocation measured and found; renders the output lines."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failures: list = []  # one reason per failed operation
        self.problems: list = []  # run-level faults: tracing changed outputs or counts
        self.metrics: dict = {}
        self.notes: list = []

    def emit(self, units: dict) -> None:
        for reason in self.problems + self.failures[:10]:
            print(f"failure: {reason}")
        for note in self.notes:
            print(note)
        for name, value in self.metrics.items():
            print(f"metric {self.workload} {name} = {value!r} {units[name]}")
        failed = len(self.failures)
        attempted = max(self.attempted, 1)
        print(f"metric {self.workload} failed_frac = {failed / attempted!r} ratio "
              f"({failed} failed of {self.attempted} attempted)")
        print(json.dumps({
            "correct": failed == 0 and not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in self.metrics.items()},
        }))


# ------------------------------------------------------------ operations


def run_query(query):
    """Run one CLI query in a fresh interpreter: (returncode, stdout, seconds)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ghostline.cli", *query.argv],
            capture_output=True, text=True, cwd=ROOT, env=_python_env(SRC),
            timeout=OP_TIMEOUT_S,
        )
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = None, ""
    return code, out, time.perf_counter() - t0


def run_child(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perfbench.child", *args],
        capture_output=True, text=True, cwd=ROOT, env=_python_env(SRC, ROOT),
        timeout=OP_TIMEOUT_S,
    )


def measure_setup(workload: str, seed: int, seconds: float, workers: int) -> float:
    """Median seconds from starting an interpreter to its first operation
    being ready: ghostline imported, contexts built, for sweep the pool up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.child", "setup", workload, str(seed),
             str(seconds), str(workers)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
            env=_python_env(SRC, ROOT),
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        _, err = proc.communicate(timeout=OP_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return statistics.median(times)


def _triple(report):
    return (report["params"]["p"], report["params"]["a"], report["params"]["s_eps"])


def check_sweep(run: Run, sample, reports) -> dict:
    """Check every triple's reports; return them grouped by triple."""
    from perfbench.checks import check_triple

    by_triple: dict = {}
    for rep in reports:
        by_triple.setdefault(_triple(rep), []).append(rep)
    for extra in sorted(set(by_triple) - set(sample)):
        run.problems.append(f"{extra}: reports for a triple outside the sample")
    for triple in sample:
        reason = check_triple(triple, by_triple.get(triple, []))
        if reason:
            run.failures.append(reason)
    return by_triple


def check_queries(run: Run, records) -> None:
    from perfbench.checks import check_query

    for query, code, out, _ in records:
        reason = check_query(query, code, out)
        if reason:
            run.failures.append(f"{' '.join(query.argv)}: {reason}")


# ---------------------------------------------------------- untraced runs


def measure_sweep(run: Run, seed: int, seconds: float) -> None:
    from perfbench import workloads
    from perfbench.checks import digest

    workers = _workers()
    setup = measure_setup("sweep", seed, seconds, workers)
    sample = workloads.sweep_sample(seed, workloads.sweep_size(seconds, workers))
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    reports = workloads.run_sampled_grid(sample, workers)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss = _peak_rss_mb()

    run.attempted = len(sample)
    by_triple = check_sweep(run, sample, reports)
    latencies = [sum(r["elapsed"] for r in by_triple.get(t, [])) for t in sample]
    run.notes.append(f"sweep: {len(sample)} triples on {workers} workers, "
                     f"{len(reports)} reports, {wall:.3f} s wall")
    run.notes.append(f"digest {digest(reports)} over {len(sample)} triples")
    _e2e(run, setup, latencies, wall, cpu, rss)


def measure_cli(run: Run, seed: int, seconds: float) -> None:
    from perfbench import workloads
    from perfbench.checks import digest

    setup = measure_setup(run.workload, seed, seconds, 1)
    stream = workloads.queries(run.workload, seed)
    records = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        query = next(stream)
        records.append((query, *run_query(query)))
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss = _peak_rss_mb()

    run.attempted = len(records)
    check_queries(run, records)
    kinds = Counter(query.kind for query, *_ in records)
    run.notes.append(f"{run.workload}: {len(records)} queries {dict(kinds)}, "
                     f"{wall:.3f} s wall")
    run.notes.append(f"digest {digest(out for _, _, out, _ in records)} "
                     f"over {len(records)} queries")
    _e2e(run, setup, [r[3] for r in records], wall, cpu, rss)


def _e2e(run: Run, setup, latencies, wall, cpu, rss) -> None:
    tail, pct = tail_latency(latencies)
    beyond = 10 if len(latencies) > 10 else 0
    run.notes.append(f"latency_tail_s is p{pct:.1f} of {len(latencies)} samples "
                     f"({beyond} samples beyond it)")
    run.metrics = {
        "setup_s": setup,
        "throughput_per_s": len(latencies) / wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "cpu_s": cpu / len(latencies),
        "peak_rss_mb": rss,
    }


# ------------------------------------------------------------ traced runs


def _child_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"traced child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def trace_cli(run: Run, seed: int, seconds: float) -> None:
    from perfbench import workloads
    from perfbench.checks import digest
    from perfbench.tracer import merge_stats

    stream = workloads.queries(run.workload, seed)
    queries = [next(stream) for _ in range(workloads.round_size(run.workload))]
    records = [(q, *run_query(q)) for q in queries]
    run.attempted = len(records)
    check_queries(run, records)
    untraced_wall = sum(r[3] for r in records)
    outputs = [(code, out) for _, code, out, _ in records]

    out_dir = SPANS_DIR / run.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    passes = []
    for n in (1, 2):
        parts, traced_outputs, wall = [], [], 0.0
        for i, query in enumerate(queries):
            spans = str(out_dir / f"query{i:03d}.spans") if n == 1 else "-"
            t0 = time.perf_counter()
            data = _child_json(run_child("traced-cli", spans, *query.argv))
            wall += time.perf_counter() - t0
            parts.append(data["stats"])
            traced_outputs.append((data["returncode"], data["stdout"]))
        if traced_outputs != outputs:
            run.problems.append(f"traced pass {n} changed a query's output")
        passes.append((merge_stats(parts), wall))
    run.notes.append(f"digest {digest(out for _, out in outputs)} "
                     f"over the {len(queries)} traced queries")
    _per_layer(run, passes, untraced_wall, suite_cpu={}, idle_s=0.0)


def trace_sweep(run: Run, seed: int, seconds: float) -> None:
    from perfbench import workloads
    from perfbench.checks import digest

    workers = _workers()
    sample = workloads.sweep_sample(seed, workloads.sweep_size(seconds, workers))
    t0 = time.perf_counter()
    reports = workloads.run_sampled_grid(sample, workers)
    wall = time.perf_counter() - t0
    run.attempted = len(sample)
    by_triple = check_sweep(run, sample, reports)
    task_s = {t: sum(r["elapsed"] for r in by_triple.get(t, [])) for t in sample}
    idle_s = workers * wall - sum(task_s.values())
    suite_cpu: dict = {}
    for rep in reports:
        suite_cpu[rep["name"]] = suite_cpu.get(rep["name"], 0.0) + rep["elapsed"]

    traced = sample[:1]  # a triple of the largest prime; about 3 s untraced
    out_dir = SPANS_DIR / "sweep"
    shutil.rmtree(out_dir, ignore_errors=True)
    args = [",".join(map(str, t)) for t in traced]
    passes = []
    for n in (1, 2):
        spans = str(out_dir / "sweep.spans") if n == 1 else "-"
        t0 = time.perf_counter()
        data = _child_json(run_child("traced-sweep", spans, *args))
        passes.append((data["stats"], time.perf_counter() - t0))
        if digest(data["reports"]) != digest(r for r in reports if _triple(r) in traced):
            run.problems.append(f"traced pass {n} changed a report")
    run.notes.append(f"digest {digest(reports)} over {len(sample)} triples; "
                     f"traced single-process: {traced}")
    _per_layer(run, passes, sum(task_s[t] for t in traced), suite_cpu, idle_s)


def _per_layer(run: Run, passes, untraced_wall, suite_cpu, idle_s) -> None:
    from perfbench import layers

    (stats1, wall1), (stats2, wall2) = passes
    for section in ("calls", "counters", "caches"):
        if stats1[section] != stats2[section]:
            diff = sorted(k for k in stats1[section]
                          if stats1[section][k] != stats2[section].get(k))
            run.problems.append(f"traced {section} differ between two identical runs: {diff[:5]}")
    run.notes.append(f"determinism: {len(stats1['calls'])} call counts, "
                     f"{len(stats1['counters'])} counters and {len(stats1['caches'])} "
                     f"cache statistics compared across two traced runs")
    self_s = {k: (v + stats2["self_s"][k]) / 2 for k, v in stats1["self_s"].items()}
    overhead = (wall1 + wall2) / 2 - untraced_wall
    run.notes.append(f"trace overhead: traced {wall1:.3f} s and {wall2:.3f} s, "
                     f"untraced {untraced_wall:.3f} s")
    run.metrics, notes = layers.per_layer_metrics(
        {**stats1, "self_s": self_s}, suite_cpu, idle_s, overhead)
    run.notes.extend(notes)


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "polygon", "ranges"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "ghostline" / "__init__.py").is_file():
        print(f"error: no ghostline package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import ghostline

    if Path(ghostline.__file__).resolve().parent != SRC / "ghostline":
        print(f"error: imported ghostline from {ghostline.__file__}", file=sys.stderr)
        return 2
    from perfbench import layers

    run = Run(args.workload)
    if args.trace:
        (trace_sweep if args.workload == "sweep" else trace_cli)(run, args.seed, args.seconds)
        units = layers.UNITS
    else:
        (measure_sweep if args.workload == "sweep" else measure_cli)(run, args.seed, args.seconds)
        units = E2E_UNITS
    run.emit(units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
