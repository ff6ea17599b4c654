"""The package and its CLI run on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the modules that importing the package and its CLI adds to a bare interpreter
ADDED = """
import sys
bare = set(sys.modules)
import degenbern, degenbern.cli
print("\\n".join(sorted(set(sys.modules) - bare)))
"""


def test_runtime_imports_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", ADDED], capture_output=True, text=True, env=env, check=True)
    added = run.stdout.split()
    assert "degenbern.exactcore" in added
    foreign = [m for m in added if m.split(".")[0] not in sys.stdlib_module_names | {"degenbern"}]
    assert foreign == []


def test_cli_import_leaves_argparse_gettext_dataclasses_and_inspect_out():
    # argparse's import and first use cost each shell call about 3 ms (BENCH_23.json); dataclasses and
    # inspect bring ast, dis, tokenize and eight more modules that nothing else needs (BENCH_24.json)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", ADDED], capture_output=True, text=True, env=env, check=True)
    added = set(run.stdout.split())
    assert "degenbern.cli" in added
    assert added & {"argparse", "gettext", "dataclasses", "inspect"} == set()
