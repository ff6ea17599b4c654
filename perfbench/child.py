"""Run one benchmark job in a fresh interpreter.

Usage: python perfbench/child.py '<job as JSON>'

The child imports degenbern and its CLI module, as the ``degenbern`` script
does, from the checkout's ``src``, or with ``"source": "reference"`` in the job
from the frozen copy under ``perfbench/reference`` (see run.py).  It then writes ``ready`` on stdout: the parent
times set-up up to that line.  It then runs the job's timed work, and after
the timed region checks or fingerprints the outputs, and prints one JSON line
with the timings, peak RSS and what the gate needs.  With ``"trace"`` set in
the job, the per-layer tracer is installed before the timed work and removed
before the checks, so checking is never traced.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
SOURCES = {"program": "src", "reference": os.path.join("perfbench", "reference")}
JOB = json.loads(sys.argv[1])
sys.path.insert(0, os.path.join(ROOT, SOURCES[JOB.get("source", "program")]))

import degenbern  # noqa: E402
import degenbern.cli  # noqa: E402

sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402


def main(job):
    if job["kind"] == "setup":
        return
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    kind = job["kind"]
    captured = io.StringIO()
    output = os.path.join(OUT, f"export-{os.getpid()}.out")
    argv = [output if a == "{output}" else a for a in job.get("argv", ())]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if kind == "verify":
        values = degenbern.run_suite(**workloads.SUITE)
    else:
        with contextlib.redirect_stdout(captured):
            exit_code = degenbern.cli.main(argv)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }

    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write_spans(job["trace"])

    if kind == "verify":
        result["reports"] = [
            [r.identity_id.value, r.cases_run, r.cases_passed, r.elapsed] for r in values
        ]
        plan = degenbern.suite_plan(**workloads.SUITE)
        result["plan"] = {case.identity_id.value: len(case.parameters["n"]) for case in plan}
    else:
        data = captured.getvalue().encode()
        if output in argv:
            with open(output, "rb") as fh:
                data += fh.read()
            os.remove(output)
        result.update(exit=exit_code, sha256=hashlib.sha256(data).hexdigest(), bytes=len(data))
    print(json.dumps(result))


if __name__ == "__main__":
    main(JOB)
