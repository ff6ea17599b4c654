"""degenbern benchmark: cold-start workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): ``verify`` and ``tables``.  The loop is closed
with one client: one single-threaded child interpreter runs at a time, and
every job starts a fresh one (child.py), so module memos are cold as they are
for every ``degenbern`` shell call.

With ``--trace 0`` the benchmark first starts a few interpreters that only
import the package.  It then runs each job of the workload twice in a row:
once on the program (the checkout's ``src``) and once on a frozen copy of the
package as it was when the benchmark was defined (``perfbench/reference``),
the two in ABBA order from one pair to the next.  It repeats the workload for
as long as the next repetition is expected, at the mean pace so far, to end
within ``--seconds``.  The copy never changes, so it does the same work at the
same cost on every commit; it measures how fast the host is during each job.
On the 2-vCPU KVM guest of a shared Xeon host this was built on, the host
slows by up to half for stretches of several seconds to a minute: over five
60-second verify runs the median of the program's own times spread by 0.11
(interquartile range over median), while its time over the copy's spread by
0.05.  It reports:

* ``wall_ratio``: the program's wall time for the workload's timed work,
  after set-up, over the frozen copy's, summed over the run's repetitions;
  1 at the commit that defined the benchmark, below 1 when the program got
  faster;
* ``cpu_ratio``: the same with user+system CPU time;
* ``peak_rss_mb``: the largest ``ru_maxrss`` among a repetition's program
  children, as the median over repetitions;
* ``setup_s``: interpreter start plus ``import degenbern`` and its CLI module
  from ``src``, as the median over every program child started in the run.

The detail line gives the raw seconds of both sides.  The frozen copy's
outputs pass the same gate as the program's, so a copy that drifted from the
recorded outputs fails the run.

With ``--trace 1`` it runs one untraced repetition and then two traced ones,
and reports the per-layer metrics of tracer.py.  Counts come from the first
traced repetition and must repeat exactly in the second; times are the median
of the two.  ``verify.<token>.elapsed_s`` is ``IdentityReport.elapsed`` from
the untraced repetition, recorded as the program reports it: it charges a
shared oracle build to whichever identity runs first.  Spans are written to ``perfbench/out/``.  The tracing overhead
(traced over untraced ``cpu_s``) goes on the detail line.

Every output is checked after its timed region (workloads.gate).  The last
line of stdout is the result object; the line before it gives each sample's
median, quartiles and count, the failure fraction and the failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"

SETUP_PROBES = 9  # import-only interpreters per run, so setup_s has many samples
TIME_LIMIT_S = 170  # every child is killed after this; the run then fails

END_TO_END = (
    ("wall_ratio", "ratio"),
    ("cpu_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def run_job(job: dict, deadline: float) -> tuple[float, dict | None]:
    """Run one job in a fresh interpreter: (set-up seconds, its result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(job)], stdout=subprocess.PIPE, cwd=ROOT, text=True
    )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"{job['kind']} job exited with code {proc.returncode}")
    return setup, (json.loads(rest.splitlines()[-1]) if rest.strip() else None)


def run_rep(jobs: list[dict], deadline: float, trace: str | None = None):
    """One repetition: each job in its own interpreter, one after another."""
    if trace:
        jobs = [dict(job, trace=str(OUT / f"spans-{trace}-{i}.json")) for i, job in enumerate(jobs)]
    return [run_job(job, deadline) for job in jobs]


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def gate_ops(jobs: list[dict], rep: list[tuple[float, dict]]) -> list[tuple[str, bool]]:
    return [op for job, (_, result) in zip(jobs, rep) for op in workloads.gate(job, result)]


def untraced(jobs, seconds: float, deadline: float):
    setups = [run_job({"kind": "setup"}, deadline)[0] for _ in range(SETUP_PROBES)]
    reps = {"program": [], "reference": []}
    pairs = 0
    start = time.perf_counter()
    while True:
        rep = {"program": [], "reference": []}
        for job in jobs:
            # ABBA order, so that a host which drifts within a pair slows both alike
            order = ("program", "reference") if pairs % 2 == 0 else ("reference", "program")
            for source in order:
                rep[source].append(run_job(dict(job, source=source), deadline))
            pairs += 1
        for source, results in rep.items():
            reps[source].append(results)
        spent = time.perf_counter() - start
        if spent * (len(reps["program"]) + 1) / len(reps["program"]) > seconds:
            break
    samples = {}
    for source, prefix in (("program", ""), ("reference", "reference_")):
        for key in ("wall_s", "cpu_s"):
            samples[prefix + key] = [sum(r[key] for _, r in rep) for rep in reps[source]]
    samples["setup_s"] = setups + [setup for rep in reps["program"] for setup, _ in rep]
    samples["peak_rss_mb"] = [max(r["rss_kb"] for _, r in rep) / 1024 for rep in reps["program"]]
    stats = {name: summary(values) for name, values in samples.items()}
    metrics = {
        "wall_ratio": (sum(samples["wall_s"]) / sum(samples["reference_wall_s"]), "ratio"),
        "cpu_ratio": (sum(samples["cpu_s"]) / sum(samples["reference_cpu_s"]), "ratio"),
        "setup_s": (stats["setup_s"]["median"], "s"),
        "peak_rss_mb": (stats["peak_rss_mb"]["median"], "MB"),
    }
    ops = [op for rep in reps["program"] for op in gate_ops(jobs, rep)]
    ops += [(f"reference {name}", ok) for rep in reps["reference"] for name, ok in gate_ops(jobs, rep)]
    return metrics, ops, {"stats": stats}


def traced(workload: str, jobs, deadline: float):
    base = run_rep(jobs, deadline)
    reps = [run_rep(jobs, deadline, trace=f"{workload}-{i}") for i in (1, 2)]
    layers = []
    for rep in reps:
        total: dict[str, float] = {}
        for _, result in rep:
            for name, value in result["layers"].items():
                total[name] = total.get(name, 0) + value
        layers.append(total)

    metrics = {}
    for name, unit in tracer.metric_names():
        if name.endswith(".elapsed_s"):
            token = name[len("verify.") : -len(".elapsed_s")]
            value = sum(e for _, r in base for t, _, _, e in r.get("reports", ()) if t == token)
        elif name == tracer.OUTPUT_BYTES:
            value = sum(r.get("bytes", 0) for _, r in reps[0])
        elif unit == "count":
            value = layers[0][name]
        else:
            value = statistics.median(layer[name] for layer in layers)
        metrics[name] = (value, unit)

    ops = gate_ops(jobs, base) + [op for rep in reps for op in gate_ops(jobs, rep)]
    counts = [name for name, unit in tracer.metric_names() if unit == "count"]
    ops += [(f"{name} repeats", layers[0][name] == layers[1][name]) for name in counts]
    ops += workloads.isolation(workload, layers[0])

    base_cpu = sum(r["cpu_s"] for _, r in base)
    traced_cpu = statistics.median(sum(r["cpu_s"] for _, r in rep) for rep in reps)
    detail = {
        "untraced_cpu_s": base_cpu,
        "traced_cpu_s": traced_cpu,
        "trace_overhead": traced_cpu / base_cpu,
        "spans": [
            str((OUT / f"spans-{workload}-{i}-{j}.json").relative_to(ROOT))
            for i in (1, 2)
            for j in range(len(jobs))
        ],
    }
    return metrics, ops, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "degenbern" / "__init__.py").is_file():
        print(f"perfbench: no degenbern package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    jobs = workloads.jobs(args.workload, args.seed)
    try:
        if args.trace:
            metrics, ops, detail = traced(args.workload, jobs, deadline)
        else:
            metrics, ops, detail = untraced(jobs, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failed = [name for name, ok in ops if not ok]
    detail.update(
        workload=args.workload,
        seed=args.seed,
        fail_frac=len(failed) / len(ops),
        failed_ops=failed,
    )
    print(json.dumps(detail))
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
