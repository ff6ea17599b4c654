"""Every public callable has a reader: the suite or the command line reaches it,
or ALLOWLIST names it with the reason it is kept.

The probe runs in a fresh interpreter (`python tests/test_reach.py` prints
its result as JSON), so every memo starts cold: in the pytest process a warm
memo answers calls whose builders then never run.  It imports degenbern,
lists the public surface, and records with sys.setprofile which of it runs
during:
  - run_suite(max_n=6, max_p=2, truncation=8);
  - the same run inside a substitution of row 4 of the second-kind triangle;
  - `compute` for every family x format x {symbolic, --lambda 1/3};
  - one `export` and one `verify`.

The surface is:
  - the functions in degenbern.__all__;
  - the public methods and properties of the classes in degenbern.__all__,
    and the dunders the package itself defines for them;
  - cli.main and cli.entry.

A callable is known by its code object after functools.wraps wrappers are
unwrapped: every _guarded operator runs one shared wrapper code, which would
otherwise read as reached for all of them.  The two dense rings share the
code of their methods, which count as reached together.  Import-time calls
are not seen.
"""

import json
import os
import subprocess
import sys

# name -> why it is kept although neither the suite nor the command line reads it
ALLOWLIST = {
    "PolyLambda.__repr__": "pytest failure messages print it",
    "PolyXOverLambda.__repr__": "pytest failure messages print it",
    "RationalFunctionLambda.__repr__": "pytest failure messages print it",
    "TruncatedSeries.__repr__": "pytest failure messages print it",
    "RationalFunctionLambda.__bool__": "same operator protocol as the other two rings; without it zero is truthy",
    "RationalFunctionLambda.__hash__": "same operator protocol as the other two rings",
    "RationalFunctionLambda.__neg__": "same operator protocol as the other two rings",
    "RationalFunctionLambda.__sub__": "same operator protocol as the other two rings",
    "RationalFunctionLambda.__rsub__": "same operator protocol as the other two rings",
    "RationalFunctionLambda.__rtruediv__": "same operator protocol as the other two rings",
    "IdentityId.__str__": "str() and f-strings of a member show its token, as the command line spells it",
    "cli.entry": "the console script of [project.scripts]",
    "suite_plan": "the benchmark's coverage gate and the pinned plan of the tests read it",
    "gen_beta_classical_limit": "a route no identity compares yet (ROADMAP item 14)",
    "r_stirling2_classical": "a route no identity compares yet (ROADMAP item 14)",
    "degenerate_log": "a route no identity compares yet (ROADMAP item 14)",
}


def _surface():
    """{qualified name: code object} of the public callables."""
    import inspect

    import degenbern
    from degenbern import cli

    package = os.path.dirname(degenbern.__file__)

    def code(fn):
        c = getattr(inspect.unwrap(fn), "__code__", None)
        return c if c is not None and os.path.dirname(c.co_filename) == package else None

    surface = {f"cli.{name}": code(getattr(cli, name)) for name in ("main", "entry")}
    for name in degenbern.__all__:
        obj = getattr(degenbern, name)
        if inspect.isfunction(obj):
            surface[name] = code(obj)
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                public = not attr.startswith("_") or attr.startswith("__") and attr.endswith("__")
                # an alias (__radd__ = __add__) or a dunder Enum or dataclass wrote is not listed
                if public and getattr(inspect.unwrap(fn), "__name__", None) == attr and code(fn) is not None:
                    surface[f"{name}.{attr}"] = code(fn)
    return surface


def _exercise():
    """The suite, a corrupted suite, and every command-line path."""
    import io
    import tempfile
    from contextlib import redirect_stdout

    from degenbern import cli
    from degenbern.exactcore import PolyLambda
    from degenbern.triangles import _row, substituted
    from degenbern.verify import run_suite

    run_suite(max_n=6, max_p=2, truncation=8)
    key = (4, 0, False, PolyLambda.lam())
    row = _row(*key)
    with substituted(_row, key, row[:2] + (row[2] + 1,) + row[3:]):
        run_suite(max_n=6, max_p=2, truncation=8)
    with redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as tmp:
        for family in cli.FAMILIES:
            for fmt in cli.FORMATS:
                for lam in ([], ["--lambda", "1/3"]):
                    cli.main(["compute", family, "--max-n", "4", "--format", fmt, *lam])
        cli.main(["export", "stirling2", "--max-n", "4", "--output", os.path.join(tmp, "s2.json")])
        cli.main(["verify", "--max-n", "4", "--max-p", "1", "--truncation", "6"])


def _probe():
    """Print {"surface": [...], "reached": [...]} for one cold run of _exercise."""
    surface = _surface()
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        _exercise()
    finally:
        sys.setprofile(None)
    reached = [name for name, c in surface.items() if c in called]
    print(json.dumps({"surface": sorted(surface), "reached": sorted(reached)}))


def test_every_public_callable_is_reached_or_allowlisted():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    result = json.loads(out.stdout)
    surface, reached = set(result["surface"]), set(result["reached"])
    assert all(reason.strip() for reason in ALLOWLIST.values())
    assert set(ALLOWLIST) <= surface, "allowlisted names that are not public callables"
    assert surface - reached - set(ALLOWLIST) == set(), "public callables nothing reaches"
    assert reached & set(ALLOWLIST) == set(), "allowlisted names that are now reached"


if __name__ == "__main__":
    _probe()
