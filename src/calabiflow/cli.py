"""Command-line front end.

Subcommands:

    run       integrate a flow; writes trace.csv, summary.json, run.log
              and dyadic checkpoint files into the output directory
    validate  admissibility checks on a seed or saved checkpoint
    blowup    rescaled self-similarity report from saved checkpoints
    soliton   residuals of the built-in reference profiles
    sweep     run every preset and compare measured vs predicted regime

Exit codes: 0 success, 2 configuration problem, 3 numerical failure,
4 regime mismatch.
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
    blowup_report,
    fik_reference,
    gaussian_reference,
    infer_initial_class,
    soliton_residual,
)
from .diagnostics import CheckpointRecord, DiagnosticsError, MonitorSet, regime_indicator
from .flow import FlowError, StepControl, run
from .profile import (
    FlowParams,
    ProfileError,
    RhoGrid,
    build_canonical_profile,
    class_at,
    load_checkpoint,
    singular_time,
    validate_profile,
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
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    out: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        out[section] = {}
        for key in cp[section]:
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                out[section][key] = allowed[key](cp[section][key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} in [{section}]: {exc}")
    return out


def _merged_settings(args: argparse.Namespace) -> dict[str, dict]:
    cfg: dict[str, dict] = {
        "params": dict(PRESETS["contract"]),
        "grid": {"L": 12.0, "N": 2049},
        "control": {},
        "monitors": {},
        "output": {},
    }
    preset = getattr(args, "preset", None)
    if preset:
        cfg["params"] = dict(PRESETS[preset])
    config_path = getattr(args, "config", None)
    if config_path:
        for section, values in _load_config(config_path).items():
            cfg[section].update(values)
    for key in ("n", "k", "a0", "b0"):
        val = getattr(args, key, None)
        if val is not None:
            cfg["params"][key] = val
    if getattr(args, "L", None) is not None:
        cfg["grid"]["L"] = args.L
    if getattr(args, "N", None) is not None:
        cfg["grid"]["N"] = args.N
    if getattr(args, "stop_frac", None) is not None:
        cfg["control"]["t_stop_fraction"] = args.stop_frac
    if getattr(args, "cadence", None) is not None:
        cfg["monitors"]["cadence"] = args.cadence
    if getattr(args, "checkpoints", None) is not None:
        cfg["output"]["checkpoints"] = args.checkpoints
    if getattr(args, "out", None) is not None:
        cfg["output"]["dir"] = args.out
    return cfg


def _build_objects(cfg: dict[str, dict]):
    try:
        params = FlowParams(**cfg["params"])
        grid = RhoGrid(float(cfg["grid"]["L"]), int(cfg["grid"]["N"]))
        ctl = StepControl(**cfg["control"])
        monitors = MonitorSet(**cfg["monitors"])
    except (ProfileError, ValueError, TypeError) as exc:
        raise ConfigError(str(exc))
    return params, grid, ctl, monitors


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _merged_settings(args)
        params, grid, ctl, monitors = _build_objects(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = cfg["output"].get("dir", "flow_out")
    nchk = int(cfg["output"].get("checkpoints", 10))
    seed = None
    seed_path = cfg["output"].get("seed_profile")
    if seed_path:
        try:
            seed = load_checkpoint(seed_path)
        except (OSError, ProfileError) as exc:
            print(f"error: cannot load seed profile: {exc}", file=sys.stderr)
            return EXIT_CONFIG

    try:
        trace = run(params, ctl=ctl, grid=grid, monitors=monitors,
                    seed_profile=seed, out_dir=out_dir, checkpoints_j=nchk)
    except FlowError as exc:
        print(f"flow failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    last = trace.rows[-1]
    print(f"regime={trace.regime.value} T={trace.T:.9g} "
          f"t_final={last.t:.9g} rows={len(trace.rows)} "
          f"checkpoints={len(trace.checkpoints)} out={out_dir}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.checkpoint:
        try:
            prof = load_checkpoint(args.checkpoint)
        except (OSError, ProfileError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        try:
            cfg = _merged_settings(args)
            params, grid, _, _ = _build_objects(cfg)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        prof = build_canonical_profile(class_at(params, 0.0), grid,
                                       params.n, params.k)
    report = validate_profile(prof, tol=args.tol)
    print(str(report))
    return EXIT_OK if report.ok else EXIT_NUMERICAL


def _collect_checkpoints(src: Path) -> list[CheckpointRecord]:
    records = []
    for path in sorted(src.glob("checkpoint_j*.json")):
        j = int(path.stem.rsplit("j", 1)[1])
        prof = load_checkpoint(path)
        records.append(CheckpointRecord(j=j, t=prof.t, profile=prof))
    return records


def cmd_blowup(args: argparse.Namespace) -> int:
    src = Path(args.src)
    try:
        records = _collect_checkpoints(src)
    except (OSError, ProfileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not records:
        print(f"error: no checkpoint_j*.json files in {src}", file=sys.stderr)
        return EXIT_CONFIG

    first = records[0].profile
    n, k = first.n, first.k
    try:
        T = singular_time(infer_initial_class(first, n, k)).T
        report = blowup_report(records, T, n, k, min_j=args.min_j,
                               lam=args.lam, out_dir=args.out)
    except RegimeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except BlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    print("   j          t            K      a_hat   selfsim_prev  soliton_rms     fik_dist")
    for r in report.rows:
        print(f"{r.j:4d} {r.t:10.7f} {r.K:12.5g} {r.a_hat:10.7f} "
              f"{r.selfsim_prev:14.6g} {r.soliton_rms:12.6g} {r.fik_dist:12.6g}")
    if args.out:
        print(f"written: {Path(args.out) / 'blowup.csv'}, "
              f"{Path(args.out) / 'blowup.json'}")
    return EXIT_OK


def cmd_soliton(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    a_hat = args.a_hat if args.a_hat is not None else float(n - k)
    try:
        cone = fik_reference(n, k, a_hat)
        fit = soliton_residual(cone, n, lam=0.0)
    except BlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"cone(n={n}, k={k}, a_hat={a_hat:g}): lam=0 "
          f"rms={fit.rms:.3e} mu={fit.mu:.9g} c={fit.c:.9g}")
    flat = gaussian_reference()
    fit = soliton_residual(flat, n, lam=args.lam)
    print(f"flat model: lam={args.lam:g} rms={fit.rms:.3e} mu={fit.mu:.9g} c={fit.c:.9g}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        grid = RhoGrid(args.L, args.N)
        ctl = StepControl(t_stop_fraction=args.stop_frac)
    except (ProfileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    mismatches = 0
    for name, kw in PRESETS.items():
        params = FlowParams(**kw)
        predicted = singular_time(params)
        out_dir = str(Path(args.out) / name) if args.out else None
        try:
            trace = run(params, ctl=ctl, grid=grid, out_dir=out_dir)
            measured = regime_indicator(trace)
        except (FlowError, DiagnosticsError) as exc:
            print(f"{name}: failed ({exc})", file=sys.stderr)
            return EXIT_NUMERICAL
        tag = "ok" if measured is predicted.regime else "MISMATCH"
        if measured is not predicted.regime:
            mismatches += 1
        print(f"{name:9s} T={predicted.T:8.5f} predicted={predicted.regime.value:9s} "
              f"measured={measured.value:9s} {tag}")
    return EXIT_REGIME if mismatches else EXIT_OK


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="named initial class (n=2, k=1)")
    p.add_argument("--config", metavar="FILE", default=None,
                   help="INI file with [params]/[grid]/[control]/[monitors]/[output]")
    p.add_argument("--n", type=int, default=None, help="complex dimension")
    p.add_argument("--k", type=int, default=None, help="twisting degree")
    p.add_argument("--a0", type=float, default=None, help="initial divisor area")
    p.add_argument("--b0", type=float, default=None, help="initial fiber area")
    p.add_argument("--L", type=float, default=None, help="half-width of the grid")
    p.add_argument("--N", type=int, default=None, help="number of grid nodes (odd)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calabiflow",
        description="Rotationally invariant Ricci flow on twisted projective bundles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate a flow and write its trace")
    _add_param_flags(p)
    p.add_argument("--out", default=None, help="output directory (default flow_out)")
    p.add_argument("--stop-frac", type=float, default=None, dest="stop_frac",
                   help="stop at this fraction of the singular time")
    p.add_argument("--checkpoints", type=int, default=None,
                   help="number of dyadic checkpoint levels")
    p.add_argument("--cadence", type=int, default=None,
                   help="sample a trace row every this many accepted steps")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("validate", help="admissibility checks on a profile")
    _add_param_flags(p)
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="validate a saved checkpoint instead of the seed")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="closure tolerance relative to the divisor area")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("blowup", help="rescaling report from saved checkpoints")
    p.add_argument("--from", dest="src", required=True, metavar="DIR",
                   help="directory containing checkpoint_j*.json")
    p.add_argument("--out", default=None, help="write blowup.csv/blowup.json here")
    p.add_argument("--min-j", type=int, default=4, dest="min_j",
                   help="first dyadic level to use")
    p.add_argument("--lam", type=float, default=1.0,
                   help="fixed lambda of the shrinker relation (1 for a Type I blow-up)")
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("soliton", help="residuals of the reference profiles")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--a-hat", type=float, default=None, dest="a_hat",
                   help="left endpoint of the cone reference (default n-k)")
    p.add_argument("--lam", type=float, default=1.0,
                   help="fixed lambda for the flat model (the Ricci-flat cone uses 0)")
    p.set_defaults(func=cmd_soliton)

    p = sub.add_parser("sweep", help="run all presets, compare regimes")
    p.add_argument("--L", type=float, default=12.0)
    p.add_argument("--N", type=int, default=513)
    p.add_argument("--stop-frac", type=float, default=0.999, dest="stop_frac")
    p.add_argument("--out", default=None, help="parent directory for per-preset output")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
