"""Command-line surface: compute tables, run the identity suite, export files.

Three subcommands:

  compute   print a family table to stdout (or --output), default pretty text
  verify    run the exact identity suite, one summary line per identity
  export    write a family table to --output as JSON or CSV, default JSON

Families are symbolic by default (exact coefficient lists in l); --lambda a/b
evaluates every entry at that rational instead.  --p and --r are refused for
a family that does not take them.  A JSON --config file may supply any
long-flag value under its underscored name (e.g. "max_n"); flags given on the
command line win.  A table is written entry by entry as it is rendered, never
held whole; file writes go through a temp file and rename so an interrupted
run never leaves a partial file.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.  A failing identity declared informational (IdentityId.informational:
the two Remark-mult readings, mutually exclusive by construction) affects the
exit code only with --strict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from fractions import Fraction

from .bernoulli import carlitz_beta, gen_beta, gen_beta_poly
from .exactcore import PolyLambda, PolyXOverLambda, _render_rational
from .triangles import (
    eulerian_classical,
    eulerian_degenerate,
    r_stirling2_deg,
    stirling1_deg,
    stirling2_deg,
    stirling2_deg_poly,
)
from .verify import explain_failure, run_suite

__all__ = ["CliConfig", "main", "entry"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _eulerian_entry(n: int, k: int) -> PolyLambda:
    return PolyLambda.constant(eulerian_classical(n, k))


# family -> (name of its entry function in this module, indexed by (n, k)
# rather than n, CliConfig fields it takes after the index).  The name is
# looked up at each call, so a rebound module name (a tracer's wrapper) is seen.
_FAMILY_TABLE = {
    "beta": ("carlitz_beta", False, ()),
    "gen-beta": ("gen_beta", False, ("p",)),
    "gen-beta-poly": ("gen_beta_poly", False, ("p",)),
    "stirling1": ("stirling1_deg", True, ()),
    "stirling2": ("stirling2_deg", True, ()),
    "stirling2-poly": ("stirling2_deg_poly", True, ()),
    "r-stirling2": ("r_stirling2_deg", True, ("r",)),
    "eulerian": ("_eulerian_entry", True, ()),
    "eulerian-deg": ("eulerian_degenerate", True, ()),
}
FAMILIES = tuple(_FAMILY_TABLE)
_FAMILY_PARAMS = {name for _, _, takes in _FAMILY_TABLE.values() for name in takes}


class UsageError(Exception):
    """Invalid flags, config, or parameters; mapped to exit code 2."""


@dataclass
class CliConfig:
    command: str
    family: str | None = None
    max_n: int | None = None
    p: int = 0
    r: int = 1
    lam: Fraction | None = None
    truncation: int = 16
    fmt: str | None = None
    output: str | None = None
    suite: str = "all"
    max_p: int = 4
    strict: bool = False


# config-file key per CliConfig field (the file uses flag spellings)
_CONFIG_KEYS = {
    f.name: {"lam": "lambda", "fmt": "format"}.get(f.name, f.name)
    for f in fields(CliConfig)
    if f.name != "command"
}


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid rational literal: {text!r}") from exc


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deeply nested
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def _merge(args: argparse.Namespace) -> CliConfig:
    """Command-line values win over config-file values win over defaults.

    The file is outside input, so every value is checked for its type: no
    float, no boolean standing in for an integer, no unknown format.
    """
    file_cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    for key in file_cfg:
        if key not in _CONFIG_KEYS.values():
            raise UsageError(f"unknown config key: {key}")
    cfg = CliConfig(command=args.command)
    for field, key in _CONFIG_KEYS.items():
        value = getattr(args, field, None)
        if value is None:
            value = file_cfg.get(key, getattr(cfg, field))
        setattr(cfg, field, value)
    if cfg.lam is not None:
        if type(cfg.lam) is not int and not isinstance(cfg.lam, str):
            raise UsageError('lambda must be an integer or a rational string such as "1/3"')
        cfg.lam = _parse_rational(cfg.lam)
    for field in ("max_n", "p", "r", "truncation", "max_p"):
        value = getattr(cfg, field)
        if type(value) is not int and not (field == "max_n" and value is None):
            raise UsageError(f"{_CONFIG_KEYS[field]} must be an integer")
    if not isinstance(cfg.strict, bool):
        raise UsageError("strict must be a boolean")
    if not isinstance(cfg.suite, str):
        raise UsageError("suite must be a string")
    if cfg.output is not None and not isinstance(cfg.output, str):
        raise UsageError("output must be a string")
    if cfg.fmt is not None and cfg.fmt not in FORMATS:
        raise UsageError(f"format must be one of {', '.join(FORMATS)}")
    return cfg


def _build_rows(cfg: CliConfig, given):
    """Entries for cfg.family: (parameters, [(index dict, value)]).

    given holds the CliConfig fields set on the command line; a family
    parameter among them that the family does not take is refused.  Values
    are PolyLambda or PolyXOverLambda.  With a rational l they are evaluated
    here, once, and stay in their ring (a number becomes a constant
    PolyLambda), so the renderers never need to know about l.
    """
    if cfg.family is None:
        raise UsageError("a family is required (e.g. compute beta ...)")
    if cfg.family not in FAMILIES:
        raise UsageError(f"unknown family: {cfg.family}")
    if cfg.max_n is None:
        raise UsageError("--max-n is required")
    if cfg.max_n < 0:
        raise UsageError("--max-n must be nonnegative")
    route, triangle, takes = _FAMILY_TABLE[cfg.family]
    entry = globals()[route]
    refused = sorted(given & _FAMILY_PARAMS - set(takes))
    if refused:
        flags = ", ".join(f"--{name}" for name in refused)
        raise UsageError(f"family {cfg.family} does not take {flags}")
    params = {name: getattr(cfg, name) for name in takes}
    indices = (
        [(n, k) for n in range(cfg.max_n + 1) for k in range(n + 1)]
        if triangle
        else [(n,) for n in range(cfg.max_n + 1)]
    )
    rows = [(dict(zip("nk", index)), entry(*index, *params.values())) for index in indices]
    if cfg.lam is not None:
        params["lambda"] = f"{cfg.lam.numerator}/{cfg.lam.denominator}"
        rows = [(index, _at_lambda(value, cfg.lam)) for index, value in rows]
    return params, rows


def _at_lambda(value, lam: Fraction):
    """value at l = lam, kept in its ring so that every renderer treats it alike."""
    if isinstance(value, PolyXOverLambda):
        return value.subs_lambda(lam)
    return PolyLambda.constant(value.evaluate(lam))


def _render_json(cfg: CliConfig, params: dict, rows):
    """The parts of json.dumps(doc, indent=2) + "\\n", yielded from the rows.

    doc is {"family", "max_n", "parameters", "entries"}, an entry its index
    fields and "lambda_coeffs" (Q[l]) or "x_coeffs" (Q[l][x], a list per
    power of x).  The header goes through json.dumps, which escapes it.  The
    strings of _render_rational are always "num/den" in ASCII digits, which
    JSON never escapes, so they are joined as they are.  One part per entry:
    the whole text is never held.
    """
    head = json.dumps({"family": cfg.family, "max_n": cfg.max_n, "parameters": params}, indent=2)
    yield head[:-2] + ',\n  "entries": [\n'  # head without its closing "\n}"
    l_sep, x_sep = '",\n        "', '",\n          "'  # between two coefficient strings
    sep = ""
    for index, value in rows:
        keys = "".join([f'"{key}": {v},\n      ' for key, v in index.items()])
        if isinstance(value, PolyXOverLambda):
            lists = ",\n".join(
                [f'        [\n          "{x_sep.join(_render_rational(c))}"\n        ]'
                 for c in value.coeffs]
            )
            field = f'"x_coeffs": [\n{lists}\n      ]' if lists else '"x_coeffs": []'
        else:
            field = f'"lambda_coeffs": [\n        "{l_sep.join(_render_rational(value))}"\n      ]'
        yield f"{sep}    {{\n      {keys}{field}\n    }}"
        sep = ",\n"
    yield "\n  ]\n}\n"


def _render_csv(cfg: CliConfig, params: dict, rows):
    for index, value in rows:
        yield ", ".join([*map(str, index.values()), value.serialize()]) + "\n"


def _render_pretty(cfg: CliConfig, params: dict, rows):
    for index, value in rows:
        label = " ".join(str(v) for v in index.values())
        yield f"{label}: {value.pretty()}\n"


_RENDERERS = {"json": _render_json, "csv": _render_csv, "pretty": _render_pretty}
FORMATS = tuple(_RENDERERS)


def _write_atomic(path: str, parts):
    """Write parts to a temp file beside path and rename it over path.  The temp
    file goes on any exception; only an OSError becomes a UsageError."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".degenbern-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(parts)
            # mkstemp makes the file 0600; give it the mode a plain open(path, "w")
            # would leave: the target's own, else 0666 less the umask
            try:
                mode = os.stat(path).st_mode & 0o777
            except FileNotFoundError:
                umask = os.umask(0)  # the only way to read it
                os.umask(umask)
                mode = 0o666 & ~umask
            os.chmod(tmp, mode)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise UsageError(f"cannot write output file: {exc}") from exc


def _cmd_table(cfg: CliConfig, given) -> int:
    """compute and export: export defaults to JSON and requires --output."""
    export = cfg.command == "export"
    if export and not cfg.output:
        raise UsageError("export requires --output")
    params, rows = _build_rows(cfg, given)
    parts = _RENDERERS[cfg.fmt or ("json" if export else "pretty")](cfg, params, rows)
    if cfg.output:
        _write_atomic(cfg.output, parts)
    else:
        sys.stdout.writelines(parts)
    return EXIT_OK


def _parse_suite(token: str):
    """None for "all", else the comma-separated tokens; run_suite resolves them."""
    if token == "all":
        return None
    selection = [piece.strip() for piece in token.split(",") if piece.strip()]
    if not selection:
        raise UsageError("empty suite selection")
    return selection


def _cmd_verify(cfg: CliConfig) -> int:
    selection = _parse_suite(cfg.suite)
    max_n = 12 if cfg.max_n is None else cfg.max_n
    if max_n < 0:
        raise UsageError("--max-n must be nonnegative")
    reports = run_suite(selection, max_n=max_n, max_p=cfg.max_p, truncation=cfg.truncation)
    hard_failure = False
    for report in reports:
        informational = report.identity_id.informational and not cfg.strict
        status = "ok" if report.passed else ("recorded" if informational else "FAILED")
        print(
            f"{report.identity_id.value}: {report.cases_passed}/{report.cases_run} "
            f"cases passed [{status}]"
        )
        if not report.passed:
            print("  " + explain_failure(report).replace("\n", "\n  "))
            if not informational:
                hard_failure = True
    return EXIT_VERIFY_FAILED if hard_failure else EXIT_OK


def _add_common(sub: argparse.ArgumentParser, *, verify: bool):
    sub.add_argument("--config", help="JSON file with default flag values")
    sub.add_argument("--max-n", dest="max_n", type=int, help="largest index n")
    if verify:
        sub.add_argument(
            "--truncation", type=int, help="series order for oracle checks (default 16)"
        )
        sub.add_argument("--suite", help='identity tokens, comma separated, or "all"')
        sub.add_argument("--max-p", dest="max_p", type=int, help="largest p swept (default 4)")
        sub.add_argument(
            "--strict",
            action="store_const",
            const=True,
            help="count informational identities toward the exit code",
        )
    else:
        sub.add_argument("family", nargs="?", choices=FAMILIES, help="table family")
        sub.add_argument("--p", type=int, help="generalization order p (default 0)")
        sub.add_argument("--r", type=int, help="restriction parameter r (default 1)")
        sub.add_argument(
            "--lambda",
            dest="lam",
            help='rational value "a/b" to evaluate at instead of symbolic output',
        )
        sub.add_argument("--format", dest="fmt", choices=FORMATS)
        sub.add_argument("--output", help="write to this path (temp file + rename)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenbern",
        description="Exact degenerate Bernoulli, Stirling, and Eulerian tables.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    _add_common(commands.add_parser("compute", help="print a table"), verify=False)
    _add_common(commands.add_parser("verify", help="run the identity suite"), verify=True)
    _add_common(commands.add_parser("export", help="write a table to a file"), verify=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge(args)
        if cfg.command == "verify":
            return _cmd_verify(cfg)
        return _cmd_table(cfg, {f for f in _CONFIG_KEYS if getattr(args, f, None) is not None})
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    """The console script: a closed stdout ends the process, as it ends any filter."""
    import signal  # here, not at the top: at the top it raised the peak RSS of any cli import by 0.3 MB
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
