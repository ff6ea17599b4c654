"""Command-line surface: compute tables, run the identity suite, export files.

Three subcommands:

  compute   print a family table to stdout (or --output), default pretty text
  verify    run the exact identity suite, one summary line per identity
  export    write a family table to --output as JSON or CSV, default JSON

Families are symbolic by default (exact coefficient lists in l); --lambda a/b
evaluates every entry at that rational instead; --p and --r are refused for a
family that does not take them.  One flag table, _FLAGS, drives parsing, --help
and the config keys: a JSON --config file may give any flag's value under its
underscored name (e.g. "max_n"), and flags on the command line win.  A table is
written entry by entry, never held whole, and a file through a temp file and
rename, so an interrupted run never leaves a partial file.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.  A failing identity declared informational (IdentityId.informational:
the two Remark-mult readings, mutually exclusive by construction) affects the
exit code only with --strict.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from fractions import Fraction
from typing import NamedTuple

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


# the one table of defaults, read by _KEYS and _merge as CliConfig._field_defaults
class CliConfig(NamedTuple):
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


def _merge(command: str, values: dict) -> CliConfig:
    """Command-line values win over config-file values win over defaults.

    The file is outside input, so each value is checked against its flag's
    kind: no float, no boolean standing in for an integer, no unknown format.
    """
    file_cfg = _load_config(values["config"]) if values.get("config") else {}
    for key in file_cfg:
        if key not in _KEYS:
            raise UsageError(f"unknown config key: {key}")
    fields = {}
    for key, (field, kind) in _KEYS.items():
        default = CliConfig._field_defaults[field]
        value = file_cfg.get(key, default) if values.get(field) is None else values[field]
        if field == "lam" and value is not None:
            if type(value) is not int and not isinstance(value, str):
                raise UsageError('lambda must be an integer or a rational string such as "1/3"')
            value = _parse_rational(value)
        elif type(value) is not kind and not (value is None and default is None):
            raise UsageError(f"{key} must be {_KINDS[kind]}")
        fields[field] = value
    if fields["fmt"] not in (None, *FORMATS):
        raise UsageError(f"format must be one of {', '.join(FORMATS)}")
    return CliConfig(command, **fields)


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


_COMMANDS = {"compute": "print a table", "verify": "run the identity suite", "export": "write a table to a file"}
_TABLES = ("compute", "export")

# flag -> (CliConfig field, kind: int, str or bool for a switch, the commands that take it, help);
# -h is --help.  _KEYS: the config key of each flag that sets a field ("-" read as "_"), and family.
_FLAGS = {
    "--config": ("config", str, tuple(_COMMANDS), "JSON file with default flag values"),
    "--max-n": ("max_n", int, tuple(_COMMANDS), "largest index n"),
    "--p": ("p", int, _TABLES, "generalization order p (default 0)"),
    "--r": ("r", int, _TABLES, "restriction parameter r (default 1)"),
    "--lambda": ("lam", str, _TABLES, 'rational value "a/b" to evaluate at instead of symbolic output'),
    "--truncation": ("truncation", int, ("verify",), "series order for oracle checks (default 16)"),
    "--format": ("fmt", str, _TABLES, f"{', '.join(FORMATS)} (default pretty, json for export)"),
    "--output": ("output", str, _TABLES, "write to this path (temp file + rename)"),
    "--suite": ("suite", str, ("verify",), 'identity tokens, comma separated, or "all"'),
    "--max-p": ("max_p", int, ("verify",), "largest p swept (default 4)"),
    "--strict": ("strict", bool, ("verify",), "count informational identities toward the exit code"),
    "--help": ("help", bool, ("degenbern", *_COMMANDS), "print this help (also -h)"),
}
_KEYS = {"family": ("family", str)} | {f[2:].replace("-", "_"): s[:2] for f, s in _FLAGS.items() if s[0] in CliConfig._field_defaults}
_KINDS = {int: "an integer", str: "a string", bool: "a boolean"}


def _is_flag(token: str) -> bool:
    """Whether token starts with "-" and is neither "-" nor a number such as -3, -.5 or -1/2."""
    return token[:1] == "-" and token != "-" and not token[1:].replace("/", "", 1).replace(".", "", 1).isdigit()


def _parse_argv(argv):
    """(command, {CliConfig field, "config" or "help": value}); no command reads as "degenbern"."""
    command = argv[0] if argv and argv[0] in _COMMANDS else "degenbern"
    flags = [flag for flag, spec in _FLAGS.items() if command in spec[2]]
    values, tokens = {}, iter(argv[command != "degenbern":])
    for token in tokens:
        if not _is_flag(token):
            if command not in _TABLES or "family" in values:
                raise UsageError(f"unexpected argument: {token}")
            if token not in FAMILIES:
                raise UsageError(f"unknown family: {token}")
            values["family"] = token
            continue
        name, eq, value = ("--help", "", "") if token == "-h" else token.partition("=")
        found = [f for f in flags if f == name] or [f for f in flags if f.startswith(name) and name != "--"]
        if len(found) != 1:
            raise UsageError(f"{name} is ambiguous: {', '.join(found)}" if found else f"{command} takes no {name}")
        flag, (field, kind) = found[0], _FLAGS[found[0]][:2]
        if kind is bool and eq or kind is not bool and not eq and _is_flag(value := next(tokens, "--")):
            raise UsageError(f"{flag} {'takes no' if kind is bool else 'needs a'} value")
        if field == "fmt" and value not in FORMATS:  # here, so that a later --help cannot pass it
            raise UsageError(f"{flag} must be one of {', '.join(FORMATS)}")
        try:
            values[field] = True if kind is bool else kind(value)
        except ValueError:
            raise UsageError(f"{flag} takes an integer, not {value!r}") from None
    if command == "degenbern" and not values:
        raise UsageError(f"a command is required: {', '.join(_COMMANDS)}")
    return command, values


def _help(command) -> str:
    """The --help text from _COMMANDS and _FLAGS: the commands, or one command's flags."""
    rows = [(f + {int: " INT", str: " TEXT", bool: ""}[s[1]], s[3]) for f, s in _FLAGS.items() if command in s[2]]
    lead = {"degenbern": list(_COMMANDS.items()), "verify": []}.get(command, [("FAMILY", ", ".join(FAMILIES))])
    usage = {"degenbern": "degenbern COMMAND", "verify": "degenbern verify"}.get(command, f"degenbern {command} FAMILY")
    return f"usage: {usage} [flags]\n\n" + "".join(f"  {name:<18}{text}\n" for name, text in lead + rows)


def main(argv=None) -> int:
    try:
        command, values = _parse_argv(sys.argv[1:] if argv is None else list(argv))
        if values.get("help"):
            sys.stdout.write(_help(command))
            return EXIT_OK
        cfg = _merge(command, values)
        return _cmd_verify(cfg) if command == "verify" else _cmd_table(cfg, set(values))
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    """The console script: a closed stdout ends the process, as it ends any filter."""
    import signal  # here, not at the top: at the top it raised the peak RSS of any cli import by 0.3 MB
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
