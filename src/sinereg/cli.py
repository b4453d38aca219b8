"""Command-line harness.

Subcommands: solve | compare | ratecheck | diagnose. Each takes a JSON
config (--config), writes its outputs into --out, and exits 0 only when
every run terminated by discrepancy or breakdown and all built-in checks
passed (1 = config/IO error, 2 = iteration cap or failed check).
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from .cgne import run_cgne
from .exceptions import NumericalError
from .experiments import RateCheckConfig, run_compare, run_diagnostics, run_ratecheck
from .problems import (Problem, add_noise, load_problem, load_vector,
                       multiplication_problem, random_problem)
from .sine import run_sine
from .stopping import StoppingRule

# Defaults that no library signature states: the paper's benchmark set-up.
DEFAULT_DELTA_GRID = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5]

_OK = ("discrepancy", "breakdown")


class ConfigError(ValueError):
    pass


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


def _take(section, **casts):
    """The keys of ``section`` that are set (present and not null), each
    converted by its cast, so the library's own defaults fill the rest."""
    out = {}
    for key, cast in casts.items():
        if section.get(key) is not None:
            try:
                out[key] = cast(section[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
    return out


def _int(value):
    """``value`` as an int; a number that is not integral is rejected."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _get(section, key, cast, default):
    return _take(section, **{key: cast}).get(key, default)


def _problem_config(cfg):
    pc = cfg.get("problem", {})
    if not isinstance(pc, dict):
        raise ConfigError("config key 'problem' must be a JSON object")
    return pc


def _build_problem(pc):
    kind = pc.get("kind", "multiplication")
    if kind == "multiplication":
        exact = multiplication_problem(
            _get(pc, "n", _int, 4096), _get(pc, "exponent", float, 1.0), 0.0
        )
        delta = _get(pc, "delta", float, 1e-3)
        y_delta = add_noise(exact.y_delta, delta, pc.get("noise", "constant"),
                            space=exact.range_space, **_take(pc, seed=_int))
        return Problem(exact.operator, y_delta, delta, truth=exact.truth)
    if kind == "random":
        if "rows" not in pc or "cols" not in pc:
            raise ConfigError("problem kind 'random' needs 'rows' and 'cols'")
        kw = _take(pc, rows=_int, cols=_int, decay=str, rate=float, seed=_int,
                   delta=float, noise=str)
        if "noise" in kw:
            kw["noise_mode"] = kw.pop("noise")
        return random_problem(**kw)
    if kind == "files":
        if "operator" not in pc or "data" not in pc:
            raise ConfigError("problem kind 'files' needs 'operator' and 'data' paths")
        return load_problem(pc["operator"], pc["data"],
                            {**pc, **_take(pc, delta=float)})
    raise ConfigError(f"unknown problem kind {kind!r}")


def _setup(cfg):
    """The problem, stopping rule and shift a solving command runs with."""
    problem = _build_problem(_problem_config(cfg))
    rule = StoppingRule(
        tau=_get(cfg, "tau", float, 1.001),
        delta=_get(cfg, "delta", float, problem.delta),
        **_take(cfg, max_iters=_int),
    )
    return problem, rule, _get(cfg, "gamma", float, 1e-3)


def _write_json(out_dir, name, payload):
    (out_dir / name).write_text(json.dumps(payload, indent=2))


def _write_csv(out_dir, name, header, rows):
    with open(out_dir / name, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def cmd_solve(cfg, out_dir):
    problem, rule, gamma = _setup(cfg)
    x0 = None if cfg.get("x0") is None else load_vector(cfg["x0"])
    solver = cfg.get("solver", "sine")
    if solver == "sine":
        report = run_sine(problem, gamma, rule, x0=x0)
    elif solver == "cgne":
        report = run_cgne(problem, rule, x0=x0)
    else:
        raise ConfigError(f"unknown solver {solver!r}")
    _write_json(out_dir, "report.json", {"config": cfg, "report": report.to_dict()})
    header, columns = ["m", "residual"], [report.residual_history]
    if report.error_history is not None:
        header.append("error")
        columns.append(report.error_history)
    rows = [(m, *values) for m, values in enumerate(zip(*columns))]
    _write_csv(out_dir, "residuals.csv", header, rows)
    print(
        f"{solver}: stopping index {report.stopping_index} "
        f"({report.terminated_by}), final residual {report.final_residual:.6e}"
    )
    return 0 if report.terminated_by in _OK else 2


def cmd_compare(cfg, out_dir):
    problem, rule, gamma = _setup(cfg)
    result = run_compare(problem, gamma, rule)
    _write_json(out_dir, "report.json", {"config": cfg, "report": result.to_dict()})
    rows = [
        (m, rs, rc, int(dom))
        for m, (rs, rc, dom) in enumerate(
            zip(result.residuals_sine, result.residuals_cgne, result.dominance)
        )
    ]
    _write_csv(
        out_dir, "residuals.csv",
        ["m", "residual_sine", "residual_cgne", "dominance"], rows,
    )
    print(
        f"stopping indices: sine {result.stopping_index_sine} "
        f"({result.terminated_by_sine}), cgne {result.stopping_index_cgne} "
        f"({result.terminated_by_cgne}); dominance "
        f"{'holds' if result.dominance_all else 'VIOLATED'}"
    )
    ok = (
        result.terminated_by_sine in _OK
        and result.terminated_by_cgne in _OK
        and result.dominance_all
        and result.stopping_index_sine <= result.stopping_index_cgne
    )
    return 0 if ok else 2


def cmd_ratecheck(cfg, out_dir):
    config = RateCheckConfig(
        delta_grid=_get(cfg, "delta_grid", lambda g: tuple(map(float, g)),
                        DEFAULT_DELTA_GRID),
        mu=_get(cfg, "mu", float, 0.5),
        **_take(cfg, tau=float, gamma=float, n=_int, max_iters=_int),
    )
    result = run_ratecheck(config)
    _write_json(out_dir, "report.json", {"config": cfg, "report": result.to_dict()})
    rows = [
        (r.delta, r.stopping_index, r.error, int(r.flagged)) for r in result.records
    ]
    _write_csv(out_dir, "ratecheck.csv",
               ["delta", "stopping_index", "error", "flagged"], rows)
    slope = "n/a" if result.slope is None else f"{result.slope:.4f}"
    print(f"rate check (mu={config.mu}): fitted slope {slope}, "
          f"{sum(r.flagged for r in result.records)} flagged records")
    return 0 if result.flagged_fraction <= 0.2 else 2


def cmd_diagnose(cfg, out_dir):
    problem, rule, gamma = _setup(cfg)
    report = run_diagnostics(problem, gamma, rule)
    _write_json(out_dir, "diagnostics.json",
                {"config": cfg, "report": report.to_dict()})
    n_ritz = len(report.ritz)
    inter_ok = all(report.interlacing)
    print(
        f"diagnostics: {n_ritz} spectra, interlacing "
        f"{'all true' if inter_ok else 'VIOLATED'}, "
        f"max orthogonality violation "
        f"{max(report.orthogonality['max_galerkin'], report.orthogonality['max_conjugacy']):.3e}"
    )
    ok = report.terminated_by in _OK and inter_ok
    return 0 if ok else 2


_COMMANDS = {
    "solve": cmd_solve,
    "compare": cmd_compare,
    "ratecheck": cmd_ratecheck,
    "diagnose": cmd_diagnose,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sinereg",
        description="Shift-and-invert regularization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        if name != "ratecheck":
            p.add_argument("--seed", type=int, default=None,
                           help="override the problem seed (echoed as problem.seed)")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if getattr(args, "seed", None) is not None:
            cfg["problem"] = {**_problem_config(cfg), "seed": args.seed}
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except (ValueError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
