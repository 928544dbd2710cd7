"""Exit codes, output files and option handling of the command line."""
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import calabiflow
from calabiflow import cli


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


def test_run_rejects_even_grid(tmp_path, capsys):
    rc = cli.main(["run", "--N", "256", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


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


def test_validate_early_checkpoint(contract_default):
    _, out = contract_default
    rc = cli.main(["validate", "--checkpoint", str(out / "checkpoint_j01.json")])
    assert rc == cli.EXIT_OK


def test_validate_late_checkpoint_fails(contract_default, capsys):
    # near the singular time the boundary nodes of the fine grid lose
    # discrete convexity, and validation is expected to say so
    _, out = contract_default
    rc = cli.main(["validate", "--checkpoint", str(out / "checkpoint_j09.json")])
    assert rc == cli.EXIT_NUMERICAL
    assert "profile inadmissible" in capsys.readouterr().out


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
    payload["u"][len(payload["u"]) // 2] = request.param
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
    assert "error: need" in captured.err


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


# ---------------------------------------------------------------------------
# blowup

def test_blowup_table_and_files(cli_contract, tmp_path, capsys):
    rc = cli.main(["blowup", "--from", str(cli_contract), "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "soliton_rms" in out
    assert "written:" in out
    with open(tmp_path / "blowup.json") as fh:
        payload = json.load(fh)
    assert [row["j"] for row in payload["rows"]] == list(range(4, 10))


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
# soliton and sweep

def test_soliton_reports_residuals(capsys):
    rc = cli.main(["soliton"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("rms=") == 2
    assert "flat model:" in out


def test_soliton_higher_dimension(capsys):
    rc = cli.main(["soliton", "--n", "3", "--k", "2"])
    assert rc == cli.EXIT_OK
    assert "cone(n=3, k=2" in capsys.readouterr().out


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
