"""Command-line front end.

Subcommands:

    run       integrate a flow; writes trace.csv, summary.json, run.log
              and dyadic checkpoint files into the output directory
    validate  admissibility checks on a seed or saved checkpoint
    blowup    rescaled self-similarity report from saved checkpoints
    soliton   shrinker fit on the report's reference, the FIK shrinker
    sweep     run every preset and compare measured vs predicted regime

Exit codes: 0 success, 2 configuration problem or a path that cannot be
read or written, 3 numerical failure, 4 regime mismatch.  main() maps each
error to its code and prints it as one "error: <message>" line on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
import typing
from pathlib import Path

from .blowup import (
    BlowupError,
    RegimeMismatchError,
    _TABLE_COLUMNS,
    blowup_report,
    fik_reference,
    soliton_residual,
)
from .diagnostics import CheckpointRecord, DiagnosticsError, MonitorSet, regime_indicator
from .flow import FlowError, StepControl, run, validate_profile
from .profile import (
    FlowParams,
    ProfileError,
    RhoGrid,
    _CHECKPOINT_PREFIX,
    build_canonical_profile,
    class_at,
    infer_initial_class,
    load_checkpoint,
    singular_time,
)

PRESETS = {
    "contract": {"n": 2, "k": 1, "a0": 1.0, "b0": 4.0},
    "collapse": {"n": 2, "k": 1, "a0": 1.0, "b0": 2.0},
    "shrink": {"n": 2, "k": 1, "a0": 1.0, "b0": 3.0},
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REGIME = 4


def _init_fields(cls) -> dict[str, type]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}


# section -> key -> value type; object sections mirror their dataclass
_SECTIONS = {
    "params": _init_fields(FlowParams),
    "grid": _init_fields(RhoGrid),
    "control": _init_fields(StepControl),
    "monitors": _init_fields(MonitorSet),
    "output": {"dir": str, "checkpoints": int, "seed_profile": str},
}


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict[str, dict]:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys like N and L are case-sensitive
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        raw = {section: dict(cp[section]) for section in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages span lines; the error line is one
        raise ConfigError(f"cannot parse config file {path!r}: "
                          + " ".join(str(exc).split())) from exc
    out: dict[str, dict] = {}
    for section, items in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        out[section] = {}
        for key, text in items.items():
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                out[section][key] = allowed[key](text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} in [{section}]: {exc}")
    return out


def _settings(args: argparse.Namespace):
    """Flow objects and [output]: preset, config file, then each flag whose
    dest is a key.  For run, [output] seed_profile is loaded, and the
    seed's grid stands in for the default one."""
    cfg: dict[str, dict] = {section: {} for section in _SECTIONS}
    cfg["params"].update(PRESETS[getattr(args, "preset", None) or "contract"])
    if getattr(args, "config", None):
        for section, values in _load_config(args.config).items():
            cfg[section].update(values)
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if section and value is not None:
            cfg[section][key] = value
    if args.command == "run" and cfg["output"].get("seed_profile"):
        seed = cfg["output"]["seed_profile"] = load_checkpoint(cfg["output"]["seed_profile"])
        cfg["grid"] = {"L": seed.grid.L, "N": seed.grid.N, **cfg["grid"]}
    try:
        return (FlowParams(**cfg["params"]), RhoGrid(**cfg["grid"]),
                StepControl(**cfg["control"]), MonitorSet(**cfg["monitors"]),
                cfg["output"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _given(**kwargs) -> dict:
    """The keyword arguments the user gave, so that the called function
    keeps its own default for each one left out."""
    return {key: value for key, value in kwargs.items() if value is not None}


def cmd_run(args: argparse.Namespace) -> int:
    params, grid, ctl, monitors, output = _settings(args)
    out_dir = output.get("dir", "flow_out")
    trace = run(params, ctl=ctl, grid=grid, monitors=monitors,
                seed_profile=output.get("seed_profile"),
                out_dir=out_dir, **_given(checkpoints_j=output.get("checkpoints")))
    print(f"regime={trace.regime.value} T={trace.T:.9g} "
          f"t_final={trace.rows[-1].t:.9g} rows={len(trace.rows)} "
          f"checkpoints={len(trace.checkpoints)} out={out_dir}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.checkpoint:
        prof = load_checkpoint(args.checkpoint)
    else:
        params, grid, *_ = _settings(args)
        prof = build_canonical_profile(class_at(params, 0.0), grid, params.n, params.k)
    report = validate_profile(prof, **_given(tol=args.tol))
    print(str(report))
    return EXIT_OK if report.ok else EXIT_NUMERICAL


def cmd_blowup(args: argparse.Namespace) -> int:
    records = []
    for path in sorted(Path(args.src).glob(f"{_CHECKPOINT_PREFIX}*.json")):
        level = path.stem.removeprefix(_CHECKPOINT_PREFIX)
        if not level.isdecimal():
            raise ProfileError(f"checkpoint file name {path} has no level number")
        prof = load_checkpoint(path)
        records.append(CheckpointRecord(j=int(level), t=prof.t, profile=prof))
    if not records:
        raise ConfigError(f"no {_CHECKPOINT_PREFIX}*.json files in {args.src}")
    first = records[0].profile
    T = singular_time(infer_initial_class(first, first.n, first.k)).T
    report = blowup_report(records, T, first.n, first.k, out_dir=args.out,
                           **_given(min_j=args.min_j))
    print(" ".join(f"{name:>13}" for name in _TABLE_COLUMNS))
    for r in report.rows:
        print(" ".join(f"{value:13.7g}" for value in r[:len(_TABLE_COLUMNS)]))
    if args.out:
        print(f"written: {Path(args.out) / 'blowup.csv'}, "
              f"{Path(args.out) / 'blowup.json'}")
    return EXIT_OK


def cmd_soliton(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    try:
        reference = fik_reference(n, k)
    except BlowupError as exc:  # a bad reference is a bad option, not a failed flow
        raise ConfigError(str(exc)) from exc
    fit = soliton_residual(reference, n)
    print(f"fik(n={n}, k={k}, a_hat={n - k:g}): lam=1 "
          f"rms={fit.rms:.3e} mu={fit.mu:.9g} c={fit.c:.9g}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    _, grid, ctl, _, output = _settings(args)
    mismatches = 0
    for name, kw in PRESETS.items():
        params = FlowParams(**kw)
        predicted = singular_time(params)
        out_dir = str(Path(output["dir"]) / name) if output.get("dir") else None
        try:
            trace = run(params, ctl=ctl, grid=grid, out_dir=out_dir)
            measured = regime_indicator(trace)
        except (FlowError, DiagnosticsError) as exc:
            raise type(exc)(f"{name}: {exc}") from exc
        ok = measured is predicted.regime
        mismatches += not ok
        print(f"{name:9s} T={predicted.T:8.5f} predicted={predicted.regime.value:9s} "
              f"measured={measured.value:9s} {'ok' if ok else 'MISMATCH'}")
    return EXIT_REGIME if mismatches else EXIT_OK


def _setting(p: argparse.ArgumentParser, flag: str, key: str, **kw) -> None:
    """A flag stored under its config key, shown as --stop-frac STOP_FRAC."""
    p.add_argument(flag, dest=key, metavar=flag.lstrip("-").replace("-", "_").upper(), **kw)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), help="named initial class (n=2, k=1)")
    p.add_argument("--config", metavar="FILE",
                   help="INI file with [params]/[grid]/[control]/[monitors]/[output]")
    _setting(p, "--n", "params.n", type=int, help="complex dimension")
    _setting(p, "--k", "params.k", type=int, help="twisting degree")
    _setting(p, "--a0", "params.a0", type=float, help="initial divisor area")
    _setting(p, "--b0", "params.b0", type=float, help="initial fiber area")
    _setting(p, "--L", "grid.L", type=float, help="half-width of the grid")
    _setting(p, "--N", "grid.N", type=int, help="number of grid nodes (odd)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calabiflow",
        description="Rotationally invariant Ricci flow on twisted projective bundles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate a flow and write its trace")
    _add_param_flags(p)
    _setting(p, "--out", "output.dir", help="output directory (default flow_out)")
    _setting(p, "--stop-frac", "control.t_stop_fraction", type=float,
             help="stop at this fraction of the singular time")
    _setting(p, "--checkpoints", "output.checkpoints", type=int,
             help="number of dyadic checkpoint levels")
    _setting(p, "--cadence", "monitors.cadence", type=int,
             help="sample a trace row every this many accepted steps")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("validate", help="admissibility checks on a profile")
    _add_param_flags(p)
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="validate a saved checkpoint instead of the seed")
    p.add_argument("--tol", type=float,
                   help="closure tolerance relative to the divisor area")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("blowup", help="rescaling report from saved checkpoints")
    p.add_argument("--from", dest="src", required=True, metavar="DIR",
                   help=f"directory containing {_CHECKPOINT_PREFIX}*.json")
    p.add_argument("--out", default=None, help="write blowup.csv/blowup.json here")
    p.add_argument("--min-j", type=int, dest="min_j",
                   help="first dyadic level to use")
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("soliton", help="shrinker fit on the FIK reference")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_soliton)

    p = sub.add_parser("sweep", help="run all presets, compare regimes")
    _setting(p, "--L", "grid.L", type=float)
    _setting(p, "--N", "grid.N", type=int, default=513)
    _setting(p, "--stop-frac", "control.t_stop_fraction", type=float)
    _setting(p, "--out", "output.dir", help="parent directory for per-preset output")
    p.set_defaults(func=cmd_sweep)

    return parser


# the first match wins: RegimeMismatchError is a BlowupError
_EXIT_CODES = (
    (RegimeMismatchError, EXIT_REGIME),
    (FlowError, EXIT_NUMERICAL),
    (BlowupError, EXIT_NUMERICAL),
    (DiagnosticsError, EXIT_NUMERICAL),
    (ConfigError, EXIT_CONFIG),
    (ProfileError, EXIT_CONFIG),
    (OSError, EXIT_CONFIG),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(error for error, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
