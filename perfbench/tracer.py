"""Per-layer tracing of degenbern, installed from outside the package.

Wrappers replace the public functions and methods of each layer in every
namespace that binds them: the defining module, every other ``degenbern``
module that imported the name, and each class attribute that aliases the
method (``__rmul__ = __mul__``, ``__mul__ = mul``).  Only public module names
and class methods are touched; private state such as memo tables is never
read or cleared, so the trace keeps working when those are renamed.

Two kinds of boundary are recorded:

* the ring kernel (``exactcore``) is too hot for one span per call, so each
  entry point only accumulates a call count and its self time;
* every other layer records a span (name, start, end, parent span, operation
  id) in memory, plus call count, self time and total time.

Self time is a call's duration minus the time of the wrapped calls made
inside it.  Total time counts only the outermost call of a name, so a
recursive or nested call is not counted twice.

What each layer should move, and where:

* ``exactcore.*`` (the target of an integer polynomial kernel): ``cpu_s`` and
  ``wall_s`` on both workloads, most on ``tables``, where Fraction arithmetic
  is nearly everything; ``ratfun`` and ``poly_gcd`` on ``verify`` only (0
  calls on ``tables``);
* ``series.*`` (the target of baby-step/giant-step evaluation): ``verify``
  only; 0 calls on ``tables``;
* ``triangles.*``: ``tables`` most, then ``verify``;
* ``bernoulli.*``: both workloads; call counts against the number of
  distinct arguments show what the memos save;
* ``verify.*``: ``wall_s`` on ``verify``;  ``cli.*``: ``tables`` only.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

_ADD = ("__add__", "__sub__", "__rsub__", "__neg__")

# layer -> {entry name: [(module, class name or None, attribute), ...]}
LAYERS = {
    "exactcore": {
        "pl_mul": [("exactcore", "PolyLambda", "__mul__")],
        "pl_add": [("exactcore", "PolyLambda", a) for a in _ADD],
        "px_mul": [("exactcore", "PolyXOverLambda", "__mul__")],
        "px_add": [("exactcore", "PolyXOverLambda", a) for a in _ADD],
        "ratfun": [("exactcore", "RationalFunctionLambda", "__init__")],
        "poly_gcd": [("exactcore", None, "poly_gcd")],
        "render": [
            ("exactcore", cls, a)
            for cls in ("PolyLambda", "PolyXOverLambda")
            for a in ("serialize", "pretty")
        ],
    },
    "series": {
        "mul": [("series", "TruncatedSeries", "mul")],
        "div": [("series", "TruncatedSeries", "div")],
        "compose": [("series", "TruncatedSeries", "compose")],
        "binomial_pow": [("series", "TruncatedSeries", "binomial_pow")],
        "gauss_2f1": [("series", None, "gauss_2f1_formal")],
        "degenerate_exp": [("series", None, "degenerate_exp")],
    },
    "triangles": {
        name: [("triangles", None, name)]
        for name in (
            "stirling2_deg",
            "stirling1_deg",
            "stirling2_deg_poly",
            "eulerian_degenerate",
            "falling_factorial",
            "log_weight",
        )
    },
    "bernoulli": {
        name: [("bernoulli", None, name)]
        for name in (
            "carlitz_beta",
            "carlitz_beta_gf",
            "gen_beta",
            "gen_beta_stirling_sum",
            "gen_beta_gf",
            "gen_beta_eulerian",
            "gen_beta_integral",
            "gen_beta_rstirling",
            "gen_beta_rstirling_simplified",
            "gen_beta_poly",
            "gen_beta_poly_stirling",
            "gen_beta_poly_gf",
            "gen_beta_poly_derivative",
        )
    },
    "verify": {"run_suite": [("verify", None, "run_suite")]},
    "cli": {"main": [("cli", None, "main")]},
}

# what each layer reports per entry; exactcore also reports pl_mul.scalar_ops
FIELDS = {
    "exactcore": ("calls", "self_s"),
    "series": ("calls", "total_s", "self_s"),
    "triangles": ("calls", "total_s"),
    "bernoulli": ("calls", "total_s"),
    "verify": ("self_s",),
    "cli": ("self_s",),
}

IDENTITY_TOKENS = (
    "Thm1", "Thm2", "Thm3-vs-GF", "Thm4", "Thm5", "Thm6", "Thm7-vs-Thm9",
    "Prop8", "Lemma38", "Eq8-Pfaff", "Eq9-Euler", "Eq11", "Eq12", "Eq13",
    "Eq23", "Eq26-27", "Eq30", "Eq32-33", "Remark-add", "Remark-diff",
    "Remark-mult-A", "Remark-mult-B", "StirlingDuality", "ClassicalLimits",
)

SCALAR_OPS = "exactcore.pl_mul.scalar_ops"
OUTPUT_BYTES = "cli.output_bytes"


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in reporting order."""
    names = []
    for layer, entries in LAYERS.items():
        for entry in entries:
            names += [f"{layer}.{entry}.{field}" for field in FIELDS[layer]]
            if f"{layer}.{entry}" == "exactcore.pl_mul":
                names.append(SCALAR_OPS)
    names += [f"verify.{token}.elapsed_s" for token in IDENTITY_TOKENS]
    names.append(OUTPUT_BYTES)
    return [(n, _unit(n)) for n in names]


class Tracer:
    """Counters, self/total times and spans for one traced interpreter."""

    def __init__(self):
        self.stats = defaultdict(float)  # "<layer>.<entry>.<field>" -> value
        self.spans: list = []
        self.op = 0
        self._children = [0.0]  # time of wrapped calls inside each open call
        self._depth = defaultdict(int)
        self._current = -1
        self._restore: list[tuple[object, str, object]] = []
        self._t0 = perf_counter()

    def _counted(self, key, fn):
        stats, children, clock = self.stats, self._children, perf_counter
        calls, self_s = f"{key}.calls", f"{key}.self_s"

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[self_s] += dt - children.pop()
                children[-1] += dt
                stats[calls] += 1

        return wrapper

    def _counted_mul(self, key, fn):
        inner, stats = self._counted(key, fn), self.stats

        def wrapper(a, b):
            # coefficient products of the schoolbook product, len(a) * len(b);
            # a rational scalar counts as one coefficient
            other = getattr(b, "coeffs", None)
            stats[SCALAR_OPS] += len(a.coeffs) * (1 if other is None else len(other))
            return inner(a, b)

        return wrapper

    def _spanned(self, key, fn):
        stats, children, depth, spans = self.stats, self._children, self._depth, self.spans
        calls, self_s, total_s = f"{key}.calls", f"{key}.self_s", f"{key}.total_s"
        tracer, clock = self, perf_counter

        def wrapper(*args, **kwargs):
            parent = tracer._current
            index = len(spans)
            spans.append(None)
            tracer._current = index
            depth[key] += 1
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stats[self_s] += dt - children.pop()
                children[-1] += dt
                stats[calls] += 1
                depth[key] -= 1
                if not depth[key]:
                    stats[total_s] += dt
                spans[index] = (key, t0 - tracer._t0, t1 - tracer._t0, parent, tracer.op)
                tracer._current = parent

        return wrapper

    def install(self):
        """Wrap every entry point in every namespace that binds it."""
        package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "degenbern"]
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, entries in LAYERS.items():
            for entry, points in entries.items():
                key = f"{layer}.{entry}"
                for module, owner, attr in points:
                    module = sys.modules[f"degenbern.{module}"]
                    home = module if owner is None else getattr(module, owner)
                    fn = vars(home)[attr]
                    if key == "exactcore.pl_mul":
                        wrapper = self._counted_mul(key, fn)
                    elif layer == "exactcore":
                        wrapper = self._counted(key, fn)
                    else:
                        wrapper = self._spanned(key, fn)
                    wrappers[id(fn)] = (fn, wrapper)

        namespaces = [
            (m, {k: v for k, v in vars(m).items() if not k.startswith("_")}) for m in package
        ]
        classes = {
            id(v): v
            for _, public in namespaces
            for v in public.values()
            if isinstance(v, type) and v.__module__.split(".")[0] == "degenbern"
        }
        namespaces += [(c, dict(vars(c))) for c in classes.values()]
        for owner, namespace in namespaces:
            for attr, value in namespace.items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def uninstall(self):
        """Put every original binding back."""
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """The layer metrics this tracer measures.  verify.<token>.elapsed_s
        and cli.output_bytes come from the program's own results instead."""
        return {
            name: int(self.stats[name]) if unit == "count" else self.stats[name]
            for name, unit in metric_names()
            if not name.endswith(".elapsed_s") and name != OUTPUT_BYTES
        }

    def write_spans(self, path: str):
        """Write the spans recorded so far as one JSON document."""
        doc = {"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
