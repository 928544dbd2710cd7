"""Exit codes, output files and option handling of the command line."""
import argparse
import base64
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import calabiflow
from calabiflow import cli
from checkpoint_codec import decode_samples, encode_samples


@pytest.fixture(scope="module")
def cli_contract(tmp_path_factory):
    """Full coarse contract run driven through the CLI entry point."""
    out = tmp_path_factory.mktemp("cli_contract")
    rc = cli.main(["run", "--preset", "contract", "--N", "257", "--out", str(out)])
    assert rc == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def cli_collapse(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_collapse")
    rc = cli.main(["run", "--preset", "collapse", "--N", "257", "--out", str(out)])
    assert rc == cli.EXIT_OK
    return out


# ---------------------------------------------------------------------------
# run

def test_run_writes_outputs(cli_contract):
    for name in ("trace.csv", "summary.json", "run.log"):
        assert (cli_contract / name).stat().st_size > 0
    assert len(sorted(cli_contract.glob("checkpoint_j*.json"))) == 9
    with open(cli_contract / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["T"] == 1.0
    assert summary["regime"] == "Contract"


def test_run_status_line(tmp_path, capsys):
    rc = cli.main(["run", "--preset", "contract", "--N", "257",
                   "--stop-frac", "0.6", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    line = capsys.readouterr().out.strip()
    assert line.startswith("regime=Contract T=1 ")
    assert "checkpoints=1" in line
    assert f"out={tmp_path}" in line


def test_run_with_unwritable_checkpoint_is_a_config_error(tmp_path, capsys):
    (tmp_path / "checkpoint_j01.json").mkdir()
    rc = cli.main(["run", "--preset", "contract", "--N", "257", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "error: cannot write checkpoint" in capsys.readouterr().err
    assert (tmp_path / "summary.json").exists() and (tmp_path / "trace.csv").exists()


def test_run_rejects_even_grid(tmp_path, capsys):
    rc = cli.main(["run", "--N", "256", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


OPTIONS = {
    "run": {"--preset", "--config", "--n", "--k", "--a0", "--b0", "--L", "--N", "--out",
            "--stop-frac", "--checkpoints", "--cadence"},
    "validate": {"--preset", "--config", "--n", "--k", "--a0", "--b0", "--L", "--N",
                 "--checkpoint", "--tol"},
    "blowup": {"--from", "--out", "--min-j"},
    "soliton": {"--n", "--k"},
    "sweep": {"--L", "--N", "--stop-frac", "--out"},
}


def test_options_are_pinned():
    """Each subcommand takes exactly these options besides -h/--help; a new
    flag is a deliberate change to this table."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    found = {name: {flag for action in parser._actions for flag in action.option_strings}
             for name, parser in sub.choices.items()}
    assert found == {name: flags | {"-h", "--help"} for name, flags in OPTIONS.items()}


@pytest.mark.parametrize("argv, target, key", [
    ("run --preset contract --N 257 --stop-frac 0.6 --out {tmp}", "run", "checkpoints_j"),
    ("validate --preset contract --N 257", "validate_profile", "tol"),
    ("blowup --from {src}", "blowup_report", "min_j"),
], ids=["run", "validate", "blowup"])
def test_omitted_option_keeps_the_function_default(cli_contract, tmp_path, monkeypatch,
                                                   argv, target, key):
    """An option left out is not passed on: the called function's own
    default holds, stated in one place."""
    calls, real = [], getattr(cli, target)

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, target, spy)
    assert cli.main(argv.format(tmp=tmp_path, src=cli_contract).split()) == cli.EXIT_OK
    assert len(calls) == 1 and key not in calls[0]


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# config files

def test_config_file_drives_run(tmp_path):
    out = tmp_path / "out"
    ini = tmp_path / "flow.ini"
    ini.write_text(
        "[params]\nb0 = 2.0\n\n[grid]\nN = 257\n\n"
        "[control]\nt_stop_fraction = 0.75\n\n"
        f"[output]\ndir = {out}\n")
    rc = cli.main(["run", "--config", str(ini)])
    assert rc == cli.EXIT_OK
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["T"] == 0.5
    assert summary["regime"] == "Collapse"


def test_flags_override_config(tmp_path):
    ini = tmp_path / "flow.ini"
    ini.write_text("[params]\nb0 = 2.0\n\n[grid]\nN = 257\n")
    rc = cli.main(["run", "--config", str(ini), "--b0", "3.0",
                   "--stop-frac", "0.75", "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK
    with open(tmp_path / "out" / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["b0"] == 3.0
    assert summary["T"] == 1.0
    assert summary["regime"] == "Shrink"


@pytest.mark.parametrize("text,fragment", [
    ("[bogus]\nx = 1\n", "unknown config section"),
    ("[grid]\nM = 9\n", "unknown key"),
    ("[grid]\nN = five\n", "bad value"),
    ("[output]\nct_variant = log\n", "unknown key"),
    ("[monitors]\ncurvature = no\n", "unknown key"),
    ("[control]\ndt_max = 0.005\n", "unknown key"),
    ("[control]\ntol_step = 0\n", "tol_step"),
    ("[control]\nt_stop_fraction = 1\n", "t_stop_fraction"),
    ("[monitors]\ncadence = 0\n", "cadence"),
    ("x = 1\n", "no section headers"),
    ("[grid]\nN = 257\nN = 513\n", "already exists"),
    ("[output]\ndir = a%b\n", "'%' must be followed"),
])
def test_config_rejects_malformed_content(tmp_path, capsys, text, fragment):
    ini = tmp_path / "flow.ini"
    ini.write_text(text)
    rc = cli.main(["run", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    assert fragment in capsys.readouterr().err


def test_config_keys_match_the_dataclasses(tmp_path):
    """Each object section takes exactly the init fields of its dataclass,
    and each value is parsed to its field's type."""
    ini = tmp_path / "flow.ini"
    for section, cls in (("params", calabiflow.FlowParams), ("grid", calabiflow.RhoGrid),
                         ("control", calabiflow.StepControl),
                         ("monitors", calabiflow.MonitorSet)):
        init = [f.name for f in dataclasses.fields(cls) if f.init]
        assert set(cli._SECTIONS[section]) == set(init), section
        ini.write_text(f"[{section}]\n" + "".join(f"{name} = 3\n" for name in init))
        parsed = cli._load_config(str(ini))[section]
        hints = typing.get_type_hints(cls)
        assert {name: type(v) for name, v in parsed.items()} == {
            name: hints[name] for name in init}, section


def test_config_missing_file(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "absent.ini")])
    assert rc == cli.EXIT_CONFIG
    assert "cannot read config file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate

def test_validate_seed(capsys):
    rc = cli.main(["validate", "--preset", "contract", "--N", "513"])
    assert rc == cli.EXIT_OK
    assert "profile admissible" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_validate_rejects_bad_tolerance(capsys, tol):
    rc = cli.main(["validate", "--preset", "contract", "--N", "257", "--tol", tol])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "admissible" not in captured.out
    assert "error: need a finite tol > 0" in captured.err


def test_validate_early_checkpoint(contract_default):
    _, out = contract_default
    rc = cli.main(["validate", "--checkpoint", str(out / "checkpoint_j01.json")])
    assert rc == cli.EXIT_OK


def test_validate_late_checkpoint_and_restart(contract_default, tmp_path, capsys):
    """validate applies the stepper's rule: the last checkpoint, which the
    blow-up report reads, is admissible, and run restarts from it."""
    _, out = contract_default
    j09 = out / "checkpoint_j09.json"
    rc = cli.main(["validate", "--checkpoint", str(j09)])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().out == "profile admissible\n"
    ini = tmp_path / "restart.ini"
    ini.write_text(f"[output]\nseed_profile = {j09}\n")
    rc = cli.main(["run", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK
    assert "t_final=0.999 " in capsys.readouterr().out


def test_restart_runs_on_the_seed_grid(cli_contract, tmp_path, capsys):
    """Without a grid option a restart runs on its seed's grid, N = 257 here
    rather than the default 2049; a grid option that differs from the
    seed's is a configuration error."""
    ini = tmp_path / "restart.ini"
    ini.write_text(f"[output]\nseed_profile = {cli_contract / 'checkpoint_j05.json'}\n")
    rc = cli.main(["run", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK
    assert calabiflow.load_checkpoint(tmp_path / "out" / "checkpoint_j09.json").grid.N == 257
    capsys.readouterr()
    rc = cli.main(["run", "--config", str(ini), "--N", "513", "--out", str(tmp_path / "N513")])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_CONFIG
    assert captured.err.startswith("error: grid RhoGrid(L=12.0, N=513) differs from the "
                                   "seed's grid RhoGrid(L=12.0, N=257)")
    assert len(captured.err.splitlines()) == 1


def test_validate_missing_checkpoint(tmp_path, capsys):
    rc = cli.main(["validate", "--checkpoint", str(tmp_path / "absent.json")])
    assert rc == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.fixture(params=[float("nan"), float("inf")], ids=["nan", "inf"])
def corrupt_checkpoints(request, cli_contract, tmp_path):
    """Copies of the contract checkpoints, one u sample of j05 non-finite."""
    for path in cli_contract.glob("checkpoint_j*.json"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "checkpoint_j05.json"
    payload = json.loads(target.read_text())
    u = decode_samples(payload["u"])
    u[u.size // 2] = request.param
    payload["u"] = encode_samples(u)
    target.write_text(json.dumps(payload))
    return tmp_path


def test_validate_rejects_corrupt_checkpoint(corrupt_checkpoints, capsys):
    rc = cli.main(["validate", "--checkpoint",
                   str(corrupt_checkpoints / "checkpoint_j05.json")])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "admissible" not in captured.out
    assert "non-finite sample" in captured.err


@pytest.mark.parametrize("key, bad", [("n", 1), ("n", 0), ("k", 0), ("k", -1)])
def test_validate_rejects_inadmissible_dimension(cli_contract, tmp_path, capsys,
                                                 key, bad):
    payload = json.loads((cli_contract / "checkpoint_j05.json").read_text())
    payload[key] = bad
    target = tmp_path / "checkpoint_j05.json"
    target.write_text(json.dumps(payload))
    rc = cli.main(["validate", "--checkpoint", str(target)])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "admissible" not in captured.out
    assert "malformed field: need" in captured.err


def test_checkpoint_with_non_integer_count_is_a_config_error(cli_contract, tmp_path,
                                                            capsys):
    """A fractional n in one checkpoint ends validate and blowup with exit 2,
    where it was truncated to an integer before."""
    for path in cli_contract.glob("checkpoint_j*.json"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "checkpoint_j05.json"
    payload = json.loads(target.read_text())
    payload["n"] = 2.9
    target.write_text(json.dumps(payload))
    for argv in (["validate", "--checkpoint", str(target)],
                 ["blowup", "--from", str(tmp_path)]):
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "malformed field: need an integer n, got n=2.9" in capsys.readouterr().err


def test_checkpoint_that_is_not_an_object_is_a_config_error(cli_contract, tmp_path,
                                                            capsys):
    """A JSON array in place of a checkpoint ends validate and blowup with
    exit 2 and one error line, not a traceback."""
    for path in cli_contract.glob("checkpoint_j*.json"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "checkpoint_j05.json"
    target.write_text("[1, 2, 3]\n")
    for argv in (["validate", "--checkpoint", str(target)],
                 ["blowup", "--from", str(tmp_path)]):
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "not an object" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--L", "nan"), ("--L", "inf"), ("--b0", "inf")])
def test_run_rejects_non_finite_configuration(tmp_path, capsys, flag, value):
    rc = cli.main(["run", "--N", "257", flag, value, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "error: need finite" in capsys.readouterr().err


def test_blowup_rejects_corrupt_checkpoint(corrupt_checkpoints, capsys):
    rc = cli.main(["blowup", "--from", str(corrupt_checkpoints)])
    assert rc == cli.EXIT_CONFIG
    assert "non-finite sample" in capsys.readouterr().err


@pytest.mark.parametrize("edit, match", [
    (lambda u, text: {"u": "*" + text[1:]}, "malformed field: Only base64 data"),
    (lambda u, text: {"u": base64.b64encode(u.tobytes()[:-4]).decode("ascii")},
     "malformed field: buffer size must be a multiple of element size"),
    (lambda u, text: {"u": encode_samples(u[:-1])}, "u has 256 samples, header says 257"),
    (lambda u, text: {"u": encode_samples(np.append(u, u[-1]))},
     "u has 258 samples, header says 257"),
    (lambda u, text: {"version": 1, "u": u.tolist()}, "has version 1, expected 2"),
], ids=["non-base64", "partial-sample", "N-1", "N+1", "version-1"])
def test_checkpoint_samples_that_do_not_decode_are_a_config_error(cli_contract, tmp_path,
                                                                 capsys, edit, match):
    """u must decode to exactly N little-endian float64 samples, and a
    version 1 file, whose u is a list of decimals, is refused by its
    version: the loader raises ProfileError and validate exits 2 with one
    error line."""
    payload = json.loads((cli_contract / "checkpoint_j05.json").read_text())
    target = tmp_path / "checkpoint_j05.json"
    target.write_text(json.dumps({**payload, **edit(decode_samples(payload["u"]),
                                                    payload["u"])}))
    with pytest.raises(calabiflow.ProfileError, match=match):
        calabiflow.load_checkpoint(target)
    rc = cli.main(["validate", "--checkpoint", str(target)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_CONFIG
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("key, bad", [("t", "0.0"), ("L", "12"), ("a", True), ("t", False),
                                      ("L", 10**400)],
                         ids=["t-string", "L-string", "a-true", "t-false", "L-huge"])
def test_checkpoint_header_value_that_is_not_a_number_is_a_config_error(
        cli_contract, tmp_path, capsys, key, bad):
    """L, a, b and t are JSON numbers within the float range: a string, a
    bool or a huge integer is refused, not parsed; validate exits 2 with
    one error line."""
    payload = json.loads((cli_contract / "checkpoint_j05.json").read_text())
    target = tmp_path / "checkpoint_j05.json"
    target.write_text(json.dumps({**payload, key: bad}))
    with pytest.raises(calabiflow.ProfileError,
                       match="malformed field.*" + re.escape(f"{key}={bad!r}")):
        calabiflow.load_checkpoint(target)
    rc = cli.main(["validate", "--checkpoint", str(target)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_CONFIG
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert captured.out == ""


# ---------------------------------------------------------------------------
# blowup

def _printed_as(text: str, value: float) -> bool:
    """Whether text, a number as the table prints it, is value rounded to
    the significant digits text shows."""
    if text == "nan":
        return math.isnan(value)
    digits = text.lower().split("e")[0].lstrip("-").replace(".", "").lstrip("0")
    return float(text) == float(f"{value:.{max(len(digits), 1)}g}")


def test_blowup_table_and_files(cli_contract, tmp_path, capsys):
    """The printed table has blowup.csv's columns and one row per level of
    it, with the same values to the printed precision."""
    rc = cli.main(["blowup", "--from", str(cli_contract), "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    header, *rows, written = capsys.readouterr().out.splitlines()
    assert header.split() == list(calabiflow.blowup.BlowupRow._fields[:7])
    assert written.startswith("written:")
    csv_rows = (tmp_path / "blowup.csv").read_text().splitlines()
    assert csv_rows[0].split(",") == header.split()
    assert len(rows) == len(csv_rows) - 1
    for row, csv_row in zip(rows, csv_rows[1:]):
        values = [float(v) for v in csv_row.split(",")]
        assert len(row.split()) == len(values)
        assert all(_printed_as(text, v) for text, v in zip(row.split(), values)), row
    with open(tmp_path / "blowup.json") as fh:
        payload = json.load(fh)
    assert [row["j"] for row in payload["rows"]] == list(range(4, 10))


def test_blowup_has_no_lambda_option(cli_contract, capsys):
    """The blow-up fit is at lambda = 1, the Type I normalization."""
    with pytest.raises(SystemExit) as info:
        cli.main(["blowup", "--from", str(cli_contract), "--lam", "2"])
    assert info.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --lam" in capsys.readouterr().err


def test_blowup_needs_contract_regime(cli_collapse, capsys):
    rc = cli.main(["blowup", "--from", str(cli_collapse)])
    assert rc == cli.EXIT_REGIME
    assert "regime" in capsys.readouterr().err


def test_blowup_window_off_grid_is_a_numerical_failure(tmp_path, capsys):
    """For n = 3 at L = 12 the magnified left grid end passes the window
    start at j = 7: one error line naming the level, exit 3."""
    rc = cli.main(["run", "--n", "3", "--k", "1", "--a0", "1", "--b0", "6",
                   "--N", "257", "--stop-frac", "0.993", "--checkpoints", "7",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    capsys.readouterr()
    rc = cli.main(["blowup", "--from", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: level j=7: comparison window:")
    assert captured.err.count("\n") == 1


def test_blowup_empty_directory(tmp_path, capsys):
    rc = cli.main(["blowup", "--from", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "no checkpoint" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit policy

@pytest.fixture
def bad_inputs(cli_contract, cli_collapse, tmp_path):
    """Paths for the bad invocations below, by placeholder name."""
    (tmp_path / "file").write_text("")
    checkpoint = json.loads((cli_contract / "checkpoint_j05.json").read_text())
    (tmp_path / "unnumbered").mkdir()
    (tmp_path / "unnumbered" / "checkpoint_jxx.json").write_text(json.dumps(checkpoint))
    (tmp_path / "negative").mkdir()
    (tmp_path / "negative" / "checkpoint_j05.json").write_text(json.dumps({**checkpoint,
                                                                           "t": -5.0}))
    # level 5 twice: checkpoint_j5.json beside checkpoint_j05.json
    shutil.copytree(cli_contract, tmp_path / "repeated")
    shutil.copy(cli_contract / "checkpoint_j05.json", tmp_path / "repeated" / "checkpoint_j5.json")
    # j09 lies past the collapse class's T = 0.5; j01 is off the b0 = 5 class motion
    for name, b0, j in (("past_T", 2.0, 9), ("off_class", 5.0, 1)):
        (tmp_path / f"{name}.ini").write_text(
            f"[params]\nb0 = {b0}\n\n[grid]\nN = 257\n\n"
            f"[output]\nseed_profile = {cli_contract / f'checkpoint_j{j:02d}.json'}\n")
    # a contract checkpoint at t = 0.96875 given flags of n = 3 whose class matches it
    (tmp_path / "restart.ini").write_text(
        f"[output]\nseed_profile = {cli_contract / 'checkpoint_j05.json'}\n"
        f"dir = {tmp_path / 'restart'}\n")
    (tmp_path / "headless.ini").write_text("x = 1\n")
    return {"tmp": tmp_path, "file": tmp_path / "file", "contract": cli_contract,
            "collapse": cli_collapse}


@pytest.mark.parametrize("argv, code", [
    ("soliton --n 1000002", cli.EXIT_CONFIG),
    ("soliton --n 200 --k 199", cli.EXIT_CONFIG),
    ("run --config {tmp}/past_T.ini --out {tmp}/out", cli.EXIT_CONFIG),
    ("run --config {tmp}/off_class.ini --out {tmp}/out", cli.EXIT_NUMERICAL),
    ("run --config {tmp}/restart.ini --n 3 --a0 1.96875 --b0 4.96875", cli.EXIT_NUMERICAL),
    ("run --config {tmp}/headless.ini", cli.EXIT_CONFIG),
    ("validate --checkpoint {tmp}/negative/checkpoint_j05.json", cli.EXIT_CONFIG),
    ("blowup --from {tmp}/negative", cli.EXIT_CONFIG),
    ("blowup --from {tmp}/unnumbered", cli.EXIT_CONFIG),
    ("blowup --from {tmp}/repeated", cli.EXIT_NUMERICAL),
    ("run --N 257 --checkpoints -1 --out {tmp}/out", cli.EXIT_CONFIG),
    ("blowup --from {collapse}", cli.EXIT_REGIME),
    ("run --N 257 --out {file}", cli.EXIT_CONFIG),
    ("run --N 257 --out {file}/out", cli.EXIT_CONFIG),
    ("sweep --N 257 --out {file}/out", cli.EXIT_CONFIG),
    ("blowup --from {contract} --out {file}/out", cli.EXIT_CONFIG),
    ("validate --tol nan", cli.EXIT_CONFIG),
    ("run --N 256", cli.EXIT_CONFIG),
    ("run --L 40 --N 257 --out {tmp}/out", cli.EXIT_NUMERICAL),
    ("sweep --L 40 --N 257 --out {tmp}/out", cli.EXIT_NUMERICAL),
    ("validate --N 10000000001", cli.EXIT_CONFIG),
    ("run --L 1e300 --out {tmp}/out", cli.EXIT_CONFIG),
    ("validate --L 1e-300", cli.EXIT_CONFIG),
])
def test_bad_invocation_is_one_error_line(bad_inputs, capsys, argv, code):
    """Each failure returns its exit code and prints one error line, no
    traceback and nothing on stdout."""
    rc = cli.main([word.format(**bad_inputs) for word in argv.split()])
    captured = capsys.readouterr()
    assert rc == code
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_refused_seed_is_one_error_line_with_its_files(tmp_path, capsys):
    """At L = 40 the seed's u'' underflows to 0 at the grid ends.  The rule
    judges the seed before its monitor row is sampled, so no numpy warning
    reaches stderr: it holds the one error line, and the run still writes
    its log, trace and summary."""
    rc = cli.main(["run", "--L", "40", "--N", "257", "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: profile inadmissible at t=0: ") and err.count("\n") == 1
    assert (tmp_path / "run.log").read_text() == err
    assert (tmp_path / "trace.csv").exists()
    with open(tmp_path / "summary.json") as fh:
        assert json.load(fh)["error"] == err.removeprefix("error: ").rstrip("\n")


def test_validate_applies_the_stepper_rule(capsys):
    """At L = 25 the seed's u'' falls below the flow's floor at 71 nodes:
    validate refuses it with exit 3, as run does."""
    rc = cli.main(["validate", "--L", "25", "--N", "2049"])
    assert rc == cli.EXIT_NUMERICAL
    assert capsys.readouterr().out == (
        "profile inadmissible\nconvexity: u' <= 0, u'' <= FLOOR_U2 or a non-finite sample "
        "at 71 node(s), first at index 1 (u' <= 0 at 0, u'' <= FLOOR_U2 at 71, non-finite "
        "at 0; min u'' 0 vs FLOOR_U2 1e-10)\n")


# ---------------------------------------------------------------------------
# soliton and sweep

@pytest.mark.parametrize("argv", ["--n 300", "--n 20 --k 19"])
def test_soliton_extremes_give_a_finite_residual(capsys, argv):
    rc = cli.main(["soliton", *argv.split()])
    assert rc == cli.EXIT_OK
    for line in capsys.readouterr().out.splitlines():
        assert math.isfinite(float(line.split("rms=")[1].split()[0]))


def test_soliton_reports_residuals(capsys):
    """One line: the fit on the FIK shrinker of (2, 1), whose mu is sqrt(2)."""
    rc = cli.main(["soliton"])
    assert rc == cli.EXIT_OK
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("fik(n=2, k=1, a_hat=1): lam=1 rms=")
    fields = dict(item.split("=") for item in line.split(": ")[1].split())
    assert float(fields["rms"]) <= 1e-10
    assert fields["mu"] == "1.41421356"
    assert abs(float(fields["c"])) <= 1e-10


@pytest.mark.parametrize("flag, value", [("--lam", "2"), ("--a-hat", "1")])
def test_soliton_has_no_lambda_or_endpoint_option(capsys, flag, value):
    """The shrinker is fitted at lambda = 1 from a = n - k; neither value is
    an option."""
    with pytest.raises(SystemExit) as info:
        cli.main(["soliton", flag, value])
    assert info.value.code == cli.EXIT_CONFIG
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_soliton_higher_dimension(capsys):
    rc = cli.main(["soliton", "--n", "3", "--k", "2"])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("fik(n=3, k=2, a_hat=1): lam=1 ")


def test_sweep_matches_predictions(capsys):
    rc = cli.main(["sweep", "--N", "257"])
    assert rc == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.endswith("ok") for line in lines)


# ---------------------------------------------------------------------------
# module entry point

def test_module_invocation():
    src = str(Path(calabiflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "calabiflow", "soliton"],
                          capture_output=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert b"rms=" in proc.stdout
