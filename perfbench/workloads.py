"""The two workloads: the jobs of one repetition, and the correctness gate.

A job runs in its own fresh interpreter (see child.py), so module memos start
cold in every job, as they do for every ``degenbern`` shell call.  The seed
picks the order of the ``tables`` calls; ``verify`` does not depend on it.
"""

from __future__ import annotations

import random

from tracer import IDENTITY_TOKENS

WORKLOADS = ("verify", "tables")

# three shell calls at 3-6x the verify suite's n, each about 0.5-1.3 s, so
# that a run holds some thirty program/copy pairs; {output} is replaced by a
# scratch path
TABLE_CALLS = (
    ("beta-48", ("compute", "beta", "--max-n", "48")),
    ("stirling2-44", ("compute", "stirling2", "--max-n", "44", "--format", "json")),
    (
        "gen-beta-poly-22",
        ("export", "gen-beta-poly", "--max-n", "22", "--p", "2")
        + ("--format", "csv", "--output", "{output}"),
    ),
)

# sha256 of each call's output, recorded from the package at the commit that
# defined the benchmark (the frozen copy under perfbench/reference)
TABLE_SHA256 = {
    "beta-48": "23996ea685618775809883485667f63aa8af7da13f759c53964677bc95c0b42a",
    "stirling2-44": "3f97c7986f2a43d4b8d53ce546c675107e6caf474a7a5edd0d631c1b023a7e0e",
    "gen-beta-poly-22": "d2ab65dcdb86fcae42527ca19923368b6e64fd5d20bca53e58b4584bb7f14bdd",
}

# The verify workload's suite: all 24 identities with their shared memos, as
# ``degenbern verify`` runs them, at a size that takes about 1.7 s instead of
# the default's 10 s, so that a run holds enough repetitions, each next to
# one of the frozen copy (see run.py), to cancel the host's slow spells.
# Thm5 (Q(l) normalization) takes about 30% of it, as it does at the default.
SUITE = {"max_n": 8, "max_p": 2, "truncation": 9}

# cases passed by the one recorded informational failure of the suite
RECORDED = {"Remark-mult-B": 2}


def jobs(workload: str, seed: int) -> list[dict]:
    """The jobs of one repetition of workload under seed."""
    if workload == "verify":
        return [{"kind": "verify"}]
    if workload == "tables":
        # each call runs in its own interpreter, so the order changes no cost
        calls = [{"kind": "cli", "name": name, "argv": list(argv)} for name, argv in TABLE_CALLS]
        random.Random(seed).shuffle(calls)
        return calls
    raise ValueError(f"unknown workload: {workload}")


def gate(job: dict, result: dict, digests=TABLE_SHA256, recorded=RECORDED):
    """(operation, passed) for every operation of one job's result."""
    if job["kind"] == "cli":
        ok = result["exit"] == 0 and result["sha256"] == digests[job["name"]]
        return [(job["name"], ok)]
    plan, reports = result["plan"], result["reports"]
    tokens = sorted(token for token, *_ in reports)
    ops = [("suite covers its plan", tokens == sorted(plan) == sorted(IDENTITY_TOKENS))]
    for token, run, passed, _ in reports:
        want = recorded.get(token, plan.get(token))
        ops.append((token, run == plan.get(token) and passed == want))
    return ops


def isolation(workload: str, layers: dict) -> list[tuple[str, bool]]:
    """The zero-call predictions that make a workload isolate its layers:
    ``tables`` never reaches Q(l) arithmetic or the series layer."""
    if workload != "tables":
        return []
    zero = ["exactcore.ratfun.calls", "exactcore.poly_gcd.calls"]
    zero += [n for n in layers if n.startswith("series.") and n.endswith(".calls")]
    return [(f"{name} == 0", layers[name] == 0) for name in zero]
