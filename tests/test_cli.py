"""The user surfaces: the package namespace, and the command-line interface's
golden outputs, flag parsing, config merging, exit codes and atomic export."""

import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import degenbern
from degenbern import bernoulli, exactcore, series, triangles, verify
from degenbern.bernoulli import carlitz_beta
from degenbern.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    FAMILIES,
    _FLAGS,
    _KEYS,
    CliConfig,
    _at_lambda,
    _build_rows,
    _render_json,
    main,
)
from degenbern.exactcore import PolyLambda, PolyXOverLambda, _render_rational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPackageNamespace:
    def test_all_is_the_modules_all_plus_version(self):
        modules = (exactcore, series, triangles, bernoulli, verify)
        expected = [name for module in modules for name in module.__all__] + ["__version__"]
        assert degenbern.__all__ == expected
        assert len(set(degenbern.__all__)) == len(degenbern.__all__)
        for name in degenbern.__all__:
            assert hasattr(degenbern, name), name


class TestCompute:
    def test_symbolic_pretty(self, capsys):
        code, out, err = run(capsys, "compute", "beta", "--max-n", "2")
        assert code == EXIT_OK
        assert err == ""
        assert out == "0: 1\n1: -1/2 + 1/2*l\n2: 1/6 - 1/6*l^2\n"

    def test_route_is_looked_up_at_call_time(self, capsys, monkeypatch):
        # a tracer rebinds the module's name; a route bound at import would not see it
        calls = []

        def counting(*args):
            calls.append(args)
            return carlitz_beta(*args)

        monkeypatch.setattr("degenbern.cli.carlitz_beta", counting)
        code, out, _ = run(capsys, "compute", "beta", "--max-n", "3")
        assert code == EXIT_OK
        assert out.startswith("0: 1\n1: -1/2 + 1/2*l\n")
        assert calls == [(0,), (1,), (2,), (3,)]

    def test_evaluated_pretty(self, capsys):
        code, out, _ = run(capsys, "compute", "beta", "--max-n", "1", "--lambda", "1/2")
        assert code == EXIT_OK
        assert out == "0: 1\n1: -1/4\n"

    def test_evaluated_polynomial_signs_its_terms(self, capsys):
        code, out, _ = run(capsys, "compute", "gen-beta-poly", "--max-n", "2", "--p", "1", "--lambda", "1/2")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "2: 1/24 - 5/6*x + x^2"

    def test_evaluation_matches_the_exact_value(self, capsys):
        lam = Fraction(2, 3)
        code, out, _ = run(capsys, "compute", "beta", "--max-n", "6", "--lambda", "2/3")
        assert code == EXIT_OK
        for line in out.splitlines():
            label, value = line.split(": ")
            expected = carlitz_beta(int(label)).evaluate(lam)
            assert Fraction(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [
            (PolyLambda.lam() ** 2 - 1, PolyLambda.constant(Fraction(-5, 9))),
            (PolyXOverLambda.x() * PolyLambda.lam() + 1, PolyXOverLambda.x() * Fraction(2, 3) + 1),
        ],
        ids=["PolyLambda", "PolyXOverLambda"],
    )
    def test_value_at_lambda_stays_in_its_ring(self, value, expected):
        at = _at_lambda(value, Fraction(2, 3))
        assert type(at) is type(value) and at == expected

    def test_csv_number_family(self, capsys):
        code, out, _ = run(capsys, "compute", "beta", "--max-n", "0", "--format", "csv")
        assert code == EXIT_OK
        assert out == "0, 1/1\n"

    def test_csv_triangle_family(self, capsys):
        code, out, _ = run(capsys, "compute", "eulerian", "--max-n", "1", "--format", "csv")
        assert code == EXIT_OK
        assert out == "0, 0, 1/1\n1, 0, 1/1\n1, 1, 0/1\n"

    def test_json_triangle_golden(self, capsys):
        code, out, _ = run(capsys, "compute", "stirling2", "--max-n", "2", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["family"] == "stirling2"
        assert doc["parameters"] == {}
        entry = next(e for e in doc["entries"] if (e["n"], e["k"]) == (2, 1))
        assert entry["lambda_coeffs"] == ["1/1", "-1/1"]

    def test_json_polynomial_golden(self, capsys):
        code, out, _ = run(
            capsys, "compute", "gen-beta-poly", "--max-n", "1", "--p", "1", "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["parameters"] == {"p": 1}
        assert doc["entries"][1]["x_coeffs"] == [["-1/3", "1/3"], ["1/1"]]

    def test_restricted_family_carries_both_parameters(self, capsys):
        code, out, _ = run(
            capsys, "compute", "r-stirling2", "--max-n", "2", "--r", "2", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["parameters"] == {"r": 2}

    def test_evaluated_json_uses_single_coefficient(self, capsys):
        code, out, _ = run(
            capsys, "compute", "beta", "--max-n", "1", "--lambda", "1/2", "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["parameters"]["lambda"] == "1/2"
        assert doc["entries"][1]["lambda_coeffs"] == ["-1/4"]


def reference_json(cfg, params, rows):
    """The JSON text as the document layout defines it: json.dumps(doc, indent=2)
    over the nested document, built here independently of the writer."""
    entries = []
    for index, value in rows:
        if isinstance(value, PolyXOverLambda):
            payload = {"x_coeffs": [_render_rational(c) for c in value.coeffs]}
        else:
            payload = {"lambda_coeffs": _render_rational(value)}
        entries.append({**index, **payload})
    doc = {"family": cfg.family, "max_n": cfg.max_n, "parameters": params, "entries": entries}
    return json.dumps(doc, indent=2) + "\n"


class TestJsonWriter:
    """compute --format json prints exactly what json.dumps(doc, indent=2)
    prints for the document, on every family, symbolic and evaluated."""

    @pytest.mark.parametrize("lam", [None, "1/3", "0"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_matches_json_dumps(self, capsys, family, lam):
        argv = ["compute", family, "--max-n", "5", "--format", "json"]
        argv += [f"--lambda={lam}"] if lam is not None else []
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        cfg = CliConfig(
            command="compute", family=family, max_n=5, lam=None if lam is None else Fraction(lam)
        )
        assert out == reference_json(cfg, *_build_rows(cfg, set()))

    @pytest.mark.parametrize("family", ["gen-beta", "gen-beta-poly", "r-stirling2"])
    def test_family_parameters_match_json_dumps(self, capsys, family):
        flag = "--r" if family == "r-stirling2" else "--p"
        code, out, _ = run(capsys, "compute", family, "--max-n", "3", flag, "2", "--format", "json")
        assert code == EXIT_OK
        cfg = CliConfig(command="compute", family=family, max_n=3, p=2, r=2)
        assert out == reference_json(cfg, *_build_rows(cfg, {flag[2:]}))

    def test_zero_and_mixed_rows_match_json_dumps(self):
        cfg = CliConfig(command="compute", family="gen-beta-poly", max_n=2)
        half = PolyLambda((Fraction(-1, 2), 3))
        rows = [
            ({"n": 0}, PolyXOverLambda(())),
            ({"n": 1}, PolyXOverLambda((half, 0, PolyLambda.one()))),
            ({"n": 2}, PolyXOverLambda(())),
            ({"n": 2, "k": 1}, PolyLambda(())),
            ({"n": 2, "k": 2}, half),
        ]
        text = "".join(_render_json(cfg, {"p": 1, "lambda": "1/3"}, rows))
        assert '"x_coeffs": []' in text
        assert text == reference_json(cfg, {"p": 1, "lambda": "1/3"}, rows)

    def test_large_triangle_matches_json_dumps(self):
        cfg = CliConfig(command="compute", family="stirling2", max_n=44, fmt="json")
        params, rows = _build_rows(cfg, set())
        assert "".join(_render_json(cfg, params, rows)) == reference_json(cfg, params, rows)

    def test_streamed_parts_peak_under_a_tenth_of_the_output(self):
        # one part per entry is alive at a time, never the whole text
        cfg = CliConfig(command="compute", family="stirling2", max_n=44, fmt="json")
        params, rows = _build_rows(cfg, set())
        size = 0
        tracemalloc.start()
        try:
            for part in _render_json(cfg, params, rows):
                size += len(part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= size / 10


class TestExport:
    def test_json_round_trip_is_byte_identical(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        argv = ["export", "stirling2", "--max-n", "4", "--output", str(target)]
        assert main(list(argv)) == EXIT_OK
        first = target.read_bytes()
        assert main(list(argv)) == EXIT_OK
        assert target.read_bytes() == first
        capsys.readouterr()

    def test_export_matches_compute_stdout(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        assert main(["export", "beta", "--max-n", "3", "--output", str(target)]) == EXIT_OK
        _, out, _ = run(capsys, "compute", "beta", "--max-n", "3", "--format", "json")
        assert target.read_text() == out

    def test_no_temp_files_left_behind(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code = main(
            ["export", "beta", "--max-n", "2", "--format", "csv", "--output", str(target)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_interrupted_rename_leaves_only_the_old_target(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "table.json"
        target.write_text("old\n")

        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["export", "beta", "--max-n", "2", "--output", str(target)])
        capsys.readouterr()
        assert os.listdir(tmp_path) == ["table.json"]
        assert target.read_text() == "old\n"

    @pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
    def test_file_mode_is_that_of_a_plain_write(self, capsys, tmp_path):
        # a new file gets 0666 less the umask, an existing one keeps its mode
        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        kept.write_text("")
        kept.chmod(0o640)
        umask = os.umask(0o022)
        try:
            for target in (fresh, kept):
                assert main(["export", "beta", "--max-n", "2", "--output", str(target)]) == EXIT_OK
        finally:
            os.umask(umask)
        capsys.readouterr()
        assert fresh.stat().st_mode & 0o777 == 0o644
        assert kept.stat().st_mode & 0o777 == 0o640

    def test_output_required(self, capsys):
        code, _, err = run(capsys, "export", "beta", "--max-n", "2")
        assert code == EXIT_USAGE
        assert err.startswith("error:")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="POSIX signals")
class TestConsoleScript:
    """The console script, in its own process: what main() alone cannot show."""

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--max-n", "3", "--truncation", "4"], ["compute", "beta", "--max-n", "3"]],
    )
    def test_closed_stdout_ends_the_command_silently(self, argv):
        # stdout is a pipe whose read end is closed before the command starts
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(Path(degenbern.__file__).parent.parent)}
        try:
            done = subprocess.run(
                [sys.executable, "-c", "from degenbern.cli import entry; entry()", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == -signal.SIGPIPE


class TestVerifyCommand:
    def test_clean_selection(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "Thm4,Eq11", "--max-n", "4", "--truncation", "8"
        )
        assert code == EXIT_OK
        assert out == "Eq11: 4/4 cases passed [ok]\nThm4: 5/5 cases passed [ok]\n"

    def test_informational_failure_keeps_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "Remark-mult-B", "--max-n", "3", "--truncation", "6"
        )
        assert code == EXIT_OK
        assert "Remark-mult-B: 2/4 cases passed [recorded]" in out
        assert "failed at n=2, p=0, m=2" in out

    def test_strict_promotes_informational_failure(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "Remark-mult-B",
            "--max-n",
            "3",
            "--truncation",
            "6",
            "--strict",
        )
        assert code == EXIT_VERIFY_FAILED
        assert "[FAILED]" in out

    def test_unknown_token_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "Thm99", "--max-n", "2", "--truncation", "4")
        assert code == EXIT_USAGE
        assert "unknown identity: Thm99" in err

    def test_insufficient_truncation(self, capsys):
        code, _, err = run(capsys, "verify", "--max-n", "8", "--truncation", "8")
        assert code == EXIT_USAGE
        assert "insufficient series order" in err


class TestConfigAndErrors:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_n": 1, "format": "csv"}))
        code, out, _ = run(capsys, "compute", "beta", "--config", str(cfg))
        assert code == EXIT_OK
        assert out == "0, 1/1\n1, -1/2 + 1/2*l\n"

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_n": 5, "format": "csv"}))
        code, out, _ = run(capsys, "compute", "beta", "--config", str(cfg), "--max-n", "0")
        assert code == EXIT_OK
        assert out == "0, 1/1\n"

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_m": 3}))
        code, _, err = run(capsys, "compute", "beta", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "max_m" in err

    def test_mistyped_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_n": "three"}))
        code, _, err = run(capsys, "compute", "beta", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "command,config",
        [
            (["compute", "beta"], {"lambda": 0.1}),
            (["compute", "beta"], {"max_n": True}),
            (["compute", "beta"], {"p": True}),
            (["compute", "beta"], {"r": True}),
            (["compute", "beta"], {"truncation": True}),
            (["compute", "beta"], {"max_p": True}),
            (["verify"], {"suite": 5}),
            (["compute", "beta"], {"output": 5}),
            (["compute", "beta"], {"format": "xml"}),
        ],
        ids=lambda v: "-".join(f"{k}={v[k]}" for k in v) if isinstance(v, dict) else v[0],
    )
    def test_config_value_outside_its_type_is_usage_error(self, capsys, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_n": 1, **config}))
        code, out, err = run(capsys, *command, "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "content", [b"[" * 100_000, b'{"max_n": 2, "suite": "\xff"}'], ids=["nested", "not-utf-8"]
    )
    def test_undecodable_config_is_usage_error(self, capsys, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        code, out, err = run(capsys, "compute", "beta", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: config file is not valid JSON: ")

    def test_bad_rational_literal(self, capsys):
        code, _, err = run(capsys, "compute", "beta", "--max-n", "2", "--lambda", "1/0")
        assert code == EXIT_USAGE
        assert "invalid rational literal" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["compute", "beta", "--p", "3"], "--p"),
            (["compute", "gen-beta", "--r", "2"], "--r"),
            (["compute", "eulerian", "--p", "1"], "--p"),
        ],
        ids=["beta-p", "gen-beta-r", "eulerian-p"],
    )
    def test_flag_the_family_does_not_take_is_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv, "--max-n", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"does not take {flag}" in err

    def test_family_parameter_from_config_is_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_n": 1, "p": 3, "r": 2}))
        code, out, _ = run(capsys, "compute", "beta", "--config", str(cfg))
        assert code == EXIT_OK
        assert out == "0: 1\n1: -1/2 + 1/2*l\n"

    @pytest.mark.parametrize("command", ["compute", "export"])
    def test_truncation_is_a_verify_flag(self, capsys, command):
        code, out, err = run(capsys, command, "beta", "--max-n", "1", "--truncation", "3")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {command} takes no --truncation\n"

    def test_symbolic_is_no_longer_a_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_n": 1, "symbolic": False}))
        code, _, err = run(capsys, "compute", "beta", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "unknown config key: symbolic" in err

    def test_unknown_family_is_usage_error(self, capsys):
        code, out, err = run(capsys, "compute", "nosuch", "--max-n", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: unknown family: nosuch\n"

    def test_missing_family(self, capsys):
        code, _, err = run(capsys, "compute", "--max-n", "2")
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    def test_library_range_error_maps_to_usage(self, capsys):
        code, _, err = run(capsys, "compute", "gen-beta", "--max-n", "3", "--p", "-2")
        assert code == EXIT_USAGE
        assert "parameter out of range" in err


README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = ("compute", "verify", "export")


def flag_argv(flag, command, tmp_path):
    """A command line of command that is valid without flag, plus flag with a
    value it accepts."""
    if command == "verify":
        argv = ["verify", "--suite", "Thm4", "--max-n", "2", "--truncation", "4"]
    else:
        family = {"--p": "gen-beta", "--r": "r-stirling2"}.get(flag, "beta")
        argv = [command, family, "--max-n", "1"]
        argv += ["--output", str(tmp_path / "table.out")] if command == "export" else []
    config = tmp_path / "cfg.json"
    config.write_text("{}")
    value = {
        "--config": str(config), "--max-n": "1", "--p": "1", "--r": "2", "--lambda": "1/2",
        "--truncation": "5", "--format": "csv", "--output": str(tmp_path / "other.out"),
        "--suite": "Thm4", "--max-p": "1",
    }.get(flag)
    return argv + [flag] + ([] if value is None else [value])


class TestCliConfig:
    def test_defaults_are_the_documented_ones(self):
        assert CliConfig(command="compute")._asdict() == {
            "command": "compute", "family": None, "max_n": None, "p": 0, "r": 1, "lam": None,
            "truncation": 16, "fmt": None, "output": None, "suite": "all", "max_p": 4, "strict": False,
        }

    def test_every_field_but_the_command_is_a_config_key(self):
        assert {field for field, _ in _KEYS.values()} == set(CliConfig._fields) - {"command"}

    def test_unknown_field_is_refused(self):
        with pytest.raises(TypeError, match="bogus"):
            CliConfig(command="compute", bogus=1)

    def test_config_is_immutable(self):
        with pytest.raises(AttributeError):
            CliConfig(command="compute").max_n = 3


class TestParser:
    """The command line as the flag table declares it: each flag on the
    commands that take it, its spellings, and every refusal as exit code 2
    with one error line and nothing on stdout."""

    @pytest.mark.parametrize("flag", list(_FLAGS))
    def test_each_flag_is_taken_by_its_commands_only(self, capsys, tmp_path, flag):
        takes = _FLAGS[flag][2]
        for command in COMMANDS:
            code, out, err = run(capsys, *flag_argv(flag, command, tmp_path))
            if command in takes:
                assert (code, err) == (EXIT_OK, ""), (command, err)
                assert out.startswith("usage: ") == (flag == "--help")
            else:
                assert (code, out, err) == (EXIT_USAGE, "", f"error: {command} takes no {flag}\n")

    @pytest.mark.parametrize("flag", [f for f, spec in _FLAGS.items() if spec[1] is not bool])
    def test_equals_spelling_is_the_same_call(self, capsys, tmp_path, flag):
        command = next(c for c in COMMANDS if c in _FLAGS[flag][2])
        *head, name, value = flag_argv(flag, command, tmp_path)
        spaced = run(capsys, *head, name, value)
        assert spaced[0] == EXIT_OK
        assert run(capsys, *head, f"{name}={value}") == spaced

    def test_a_unique_prefix_names_the_flag(self, capsys):
        assert run(capsys, "compute", "beta", "--max", "2") == run(capsys, "compute", "beta", "--max-n", "2")
        full = run(capsys, "compute", "beta", "--max-n", "2", "--lambda", "1/3", "--format", "csv")
        assert full[1] == "0, 1/1\n1, -1/3\n2, 4/27\n"
        assert run(capsys, "compute", "beta", "--max-n=2", "--lam=1/3", "--form=csv") == full

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["compute", "beta", "--max-n"], "--max-n needs a value"),
            (["compute", "beta", "--output", "--max-n", "2"], "--output needs a value"),
            (["compute", "beta", "--max-n", "2", "--output", "-1x"], "--output needs a value"),
            (["compute", "beta", "--max-n", "two"], "--max-n takes an integer, not 'two'"),
            (["verify", "--max-p=1.5"], "--max-p takes an integer, not '1.5'"),
            (["verify", "--strict=yes"], "--strict takes no value"),
            (["compute", "beta", "--max-n", "2", "--bogus"], "compute takes no --bogus"),
            (["compute", "beta", "--max-n", "2", "-x"], "compute takes no -x"),
            (["verify", "--max", "2"], "--max is ambiguous: --max-n, --max-p"),
            (["verify", "--s", "Thm4"], "--s is ambiguous: --suite, --strict"),
            (["compute", "beta", "stirling2", "--max-n", "2"], "unexpected argument: stirling2"),
            (["verify", "beta"], "unexpected argument: beta"),
            (["compute", "nosuch", "--max-n", "2"], "unknown family: nosuch"),
            (["compute", "beta", "--max-n", "2", "--format", "xml"], "--format must be one of json, csv, pretty"),
            ([], "a command is required: compute, verify, export"),
            (["--max-n", "2"], "degenbern takes no --max-n"),
            (["comptue", "beta"], "unexpected argument: comptue"),
        ],
        ids=[
            "missing-value", "flag-as-value", "dash-value", "non-int", "float", "switch-value", "unknown-flag",
            "short-flag", "ambiguous-max", "ambiguous-s", "second-positional", "verify-positional",
            "unknown-family", "unknown-format", "no-command", "no-command-flag", "unknown-command",
        ],
    )
    def test_refusal_is_one_error_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["--max-n", "1", "--lambda", "-1/2"], ["--max-n", "1", "--lambda=-1/2"]])
    def test_negative_lambda_is_a_value(self, capsys, argv):
        assert run(capsys, "compute", "beta", *argv) == (EXIT_OK, "0: 1\n1: -3/4\n", "")

    def test_help_is_printed_once_the_line_parses(self, capsys):
        code, out, _ = run(capsys, "compute", "beta", "--max-n", "2", "-h")
        assert code == EXIT_OK and out.startswith("usage: degenbern compute FAMILY")
        assert run(capsys, "compute", "nosuch", "--help")[:2] == (EXIT_USAGE, "")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_every_flag_the_command_takes(self, capsys, command):
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (EXIT_OK, "")
        listed = set(re.findall(r"^  (--[a-z-]+)", out, re.MULTILINE))
        assert listed == {flag for flag, spec in _FLAGS.items() if command in spec[2]}
        for flag in listed:
            assert _FLAGS[flag][3] in out

    def test_root_help_lists_the_commands(self, capsys):
        code, out, err = run(capsys, "-h")
        assert (code, err) == (EXIT_OK, "")
        assert set(re.findall(r"^  ([a-z]+) ", out, re.MULTILINE)) == set(COMMANDS)

    def test_config_keys_are_the_readme_keys(self, capsys, tmp_path):
        text = re.search(r"Keys mirror the long flag names \((.*?)\)", README.read_text(), re.DOTALL).group(1)
        keys = re.findall(r"`(\w+)`", text)
        assert len(keys) == 11 and set(keys) == set(_KEYS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "beta", "max_n": 1, "p": 0, "r": 1, "lambda": "1/2", "truncation": 16,
            "format": "csv", "output": str(tmp_path / "t.csv"), "suite": "all", "max_p": 4, "strict": False,
        }))
        assert run(capsys, "compute", "--config", str(cfg)) == (EXIT_OK, "", "")
        assert (tmp_path / "t.csv").read_text() == "0, 1/1\n1, -1/4\n"


class TestModuleRun:
    """python -m degenbern.cli runs the command, as the console script does."""

    def module(self, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(degenbern.__file__).parent.parent)}
        return subprocess.run(
            [sys.executable, "-m", "degenbern.cli", *argv], capture_output=True, text=True, env=env
        )

    def test_stdout_is_main_s(self, capsys):
        done = self.module("compute", "beta", "--max-n", "2")
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert done.stdout == run(capsys, "compute", "beta", "--max-n", "2")[1]

    def test_usage_error_exits_2(self):
        done = self.module("compute", "beta", "--max-n", "1", "--truncation", "3")
        assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
        assert done.stderr == "error: compute takes no --truncation\n"
