"""Experiment runner.

Each subcommand builds a small config (defaults, then an optional JSON config
file, then command-line flags, flags winning), runs one experiment, writes
CSV/JSON artifacts to --out, and prints a one-line summary: the target value,
the achieved value and the relative gap, or for `minimize` the initial and
final quotients.  Identical config and seed produce byte-identical artifacts.
DEFAULTS declares each subcommand's settings once: every scalar setting is a
flag (`--max-iter` sets max_iter), the list settings are config-only, and a
config file may hold only those keys, each with a value of its default's type.

Exit status: 0 on success, 2 on validation / degenerate-input errors (the
message names the violated clause), unknown flags, unknown config keys,
ill-typed config values, a negative count (refine, seed, trials,
max_iter) or a grid size out of range (n, n_s, n_t, log_r_max), 3 when
`properties` finds a violation, 1 on I/O errors.

`main` may be called any number of times in one process (the tests, the
benchmark and notebooks do): the parser depends only on DEFAULTS and the
handlers' docstrings, so it is built once, on the first call, and reused.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, WorkbenchError
from .functionals import Params
from .grid import CylGrid, GridFunction, grid_function_to_csv, make_radial_grid
from .minimizer import (
    DescentOptions,
    default_init,
    hardy_endpoint_sweep,
    minimize_hs,
    symmetrize_and_compare,
)
from .rearrange import (
    decreasing_rearrangement_1d,
    double_star,
    hardy_littlewood_check,
)
from .sharp_constant import (
    convexity_bound,
    eps_sweep,
    hardy_constant,
    split_infimum_demo,
)

SCHEMA_VERSION = 1
FORMATS = ("csv", "json")


def _fmt(x) -> str:
    """Deterministic shortest-round-trip formatting for CSV cells."""
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[h]) for h in header))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_artifact(out: Path, stem: str, fmt: str, header, rows, payload: dict) -> None:
    """Write rows as <stem>.csv with the given header, or payload as <stem>.json."""
    if fmt == "csv":
        _write_csv(out / f"{stem}.csv", header, rows)
    else:
        _write_json(out / f"{stem}.json", payload)


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("out", "."))
    if not out.is_dir():
        raise IOError(f"output directory {out} does not exist")
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_config_value(key: str, value, default) -> None:
    """Reject a config-file value that does not fit its default: an int for an
    int, a number for a float, a string for a string, csv/json for format, and
    lists of numbers or of [number, number] pairs for the ladders (or null)."""
    if value is None and default is None:
        return
    if key == "format":
        ok, want = value in FORMATS, " or ".join(FORMATS)
    elif key in ("lambda_scales", "eps_ladder"):
        ok, want = isinstance(value, list) and all(map(_is_number, value)), "a list of numbers"
    elif key == "ladder":
        pairs = isinstance(value, list) and all(isinstance(x, list) and len(x) == 2 for x in value)
        ok, want = pairs and all(_is_number(v) for x in value for v in x), "a list of [number, number] pairs"
    elif isinstance(default, int):
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok, want = _is_number(value), "a number"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise ConfigurationError(f"config key {key} must be {want}, got {value!r}")


def _load_config(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise IOError(f"config file {path} does not exist")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must contain a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ConfigurationError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
        for key, value in loaded.items():
            _check_config_value(key, value, defaults[key])
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        cfg[key] = value
    for key in ("refine", "seed", "trials", "max_iter"):
        if cfg.get(key, 0) < 0:
            raise ConfigurationError(f"{key} must be >= 0, got {cfg[key]}")
    return cfg


def _refined(n: int, cfg: dict) -> int:
    return n * 2 ** int(cfg["refine"])


def _summary(name: str, target: float, achieved: float) -> None:
    gap = abs(achieved - target) / abs(target) if target != 0 else abs(achieved)
    print(f"{name}: target={target:.12g} achieved={achieved:.12g} rel_gap={gap:.3e}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_constant(cfg: dict) -> int:
    """Sharp constant p^p/(alpha+k)^p; CSV columns p, alpha, k, constant."""
    value = hardy_constant(cfg["p"], cfg["alpha"], cfg["k"])
    out = _out_dir(cfg)
    row = {"p": float(cfg["p"]), "alpha": float(cfg["alpha"]), "k": int(cfg["k"]), "constant": value}
    _write_artifact(out, "constant", cfg["format"], ["p", "alpha", "k", "constant"], [row], row)
    print(f"{value:.17g}")
    return 0


def cmd_eps_sweep(cfg: dict) -> int:
    """Radial sharpness family vs its closed form; CSV columns eps, numerator,
    denominator, quotient, closed_form, rel_err, tail_correction_num,
    tail_correction_den."""
    params = Params.hardy(N=cfg["N"], k=cfg["N"], p=cfg["p"], alpha=cfg["alpha"])
    # before the sweep, so that an infinite p or alpha is rejected before any artifact is written
    limit = hardy_constant(params.p, params.alpha, params.k) ** -1  # quotient limit
    ladder = cfg.get("eps_ladder")
    rows = eps_sweep(params) if ladder is None else eps_sweep(params, eps_values=ladder)
    out = _out_dir(cfg)
    header = [
        "eps",
        "numerator",
        "denominator",
        "quotient",
        "closed_form",
        "rel_err",
        "tail_correction_num",
        "tail_correction_den",
    ]
    _write_artifact(out, "eps_sweep", cfg["format"], header, rows, {"rows": rows})
    for row in rows:
        _summary(f"eps={row['eps']:g}", row["closed_form"], row["quotient"])
    _summary("eps-sweep limit", limit, rows[-1]["quotient"])
    return 0


def cmd_product_sweep(cfg: dict) -> int:
    """Endpoint (beta=p) product-family ladder; CSV columns eps, lambda,
    numerator, denominator, quotient, target, rel_gap."""
    params = Params.hardy_sobolev(
        N=cfg["N"], k=cfg["k"], p=cfg["p"], beta=cfg["beta"]
    )
    rows = hardy_endpoint_sweep(
        params,
        cfg.get("ladder"),
        n_s=_refined(cfg["n_s"], cfg),
        n_t=_refined(cfg["n_t"], cfg),
        log_r_max=cfg["log_r_max"],
    )
    out = _out_dir(cfg)
    header = ["eps", "lambda", "numerator", "denominator", "quotient", "target", "rel_gap"]
    _write_artifact(out, "product_sweep", cfg["format"], header, rows, {"rows": rows})
    best = min(rows, key=lambda r: r["quotient"])
    _summary("product-sweep", best["target"], best["quotient"])
    return 0


def _hs_grid(cfg: dict) -> CylGrid:
    n = _refined(cfg["n"], cfg)
    if n < 2:
        raise ConfigurationError(
            "n must be >= 2 (the default start is zero on the last cell of each radius, "
            f"so n = 1 gives an all-zero start), got {n}"
        )
    s_grid = make_radial_grid(cfg["k"], cfg["r_max"], n, "equimeasure")
    if cfg["N"] == cfg["k"]:
        return CylGrid(s_grid)
    return CylGrid(s_grid, make_radial_grid(cfg["N"] - cfg["k"], cfg["r_max"], n, "equimeasure"))


def cmd_symmetrize(cfg: dict) -> int:
    """Quotient before/after double symmetrization."""
    params = Params.hardy_sobolev(N=cfg["N"], k=cfg["k"], p=cfg["p"], beta=cfg["beta"])
    grid = _hs_grid(cfg)
    u = default_init(grid, "random", seed=cfg["seed"])
    report = symmetrize_and_compare(u, params)
    out = _out_dir(cfg)
    _write_artifact(out, "symmetrize", cfg["format"], sorted(report), [report], report)
    _summary("symmetrize", report["quotient_before"], report["quotient_after"])
    return 0


def cmd_minimize(cfg: dict) -> int:
    """Projected descent on the constrained quotient; writes trace JSON + final CSV."""
    params = Params.hardy_sobolev(N=cfg["N"], k=cfg["k"], p=cfg["p"], beta=cfg["beta"])
    grid = _hs_grid(cfg)
    opts = DescentOptions(max_iter=cfg["max_iter"], seed=cfg["seed"])
    init = "bump" if cfg["seed"] == 0 else "random"
    trace = minimize_hs(params, grid, init=init, opts=opts)
    out = _out_dir(cfg)
    _write_json(out / "minimize_trace.json", trace.to_dict())
    grid_function_to_csv(trace.final_u, out / "minimize_final.csv")
    print(f"minimize: initial={trace.quotients[0]:.12g} final={trace.quotients[-1]:.12g}")
    print(
        f"converged={trace.converged} stop_reason={trace.stop_reason} iters={len(trace.quotients) - 1} "
        f"residual={trace.residuals[-1]:.3e}"
    )
    return 0


def cmd_split_demo(cfg: dict) -> int:
    """Product-domain infimum splitting vs 1D eigenvalue oracle."""
    result = split_infimum_demo(
        omega_width=cfg["omega_width"],
        lambda_scales=tuple(cfg["lambda_scales"]),
    )
    out = _out_dir(cfg)
    _write_artifact(out, "split_demo", cfg["format"], sorted(result["rows"][0]), result["rows"], result)
    best = result["rows"][-1]
    _summary("split-demo", result["omega_infimum"], best["quotient"])
    return 0


def cmd_properties(cfg: dict) -> int:
    """Randomized rearrangement/convexity self-checks. The convexity bound is
    checked on all `trials` samples; the rearrangement checks
    (equimeasurability, idempotence, Hardy-Littlewood) run on min(trials, 200)
    random functions on a 64-cell radial grid."""
    rng = np.random.default_rng(cfg["seed"])
    n_trials = cfg["trials"]
    results = {}

    samples = rng.uniform(size=(n_trials, 4))
    s, t = 10.0 * samples[:, 0], 10.0 * samples[:, 1]
    lam = np.clip(samples[:, 2], 1e-12, 1.0 - 1e-12)
    p = 1.0 + 5.0 * samples[:, 3]
    lhs, rhs = convexity_bound(s, t, lam, p)
    # broadcast, so that a scalar verdict counts once per trial
    results["convexity_violations"] = int(np.count_nonzero(np.broadcast_to(lhs > rhs * (1 + 1e-12), s.shape)))

    grid = make_radial_grid(1, 1.0, 64, "uniform")
    hl_violations = 0
    equi_fail = 0
    idem_fail = 0
    for _ in range(min(n_trials, 200)):
        vals = rng.uniform(size=64)
        rearranged = decreasing_rearrangement_1d(vals, grid.cell_measures)
        if np.abs(np.sort(vals) - np.sort(rearranged)).max() > 1e-12:
            equi_fail += 1
        u = GridFunction(grid, vals)
        star = double_star(u)
        star2 = double_star(star)
        if np.abs(star2.values - star.values).max() > 1e-12:
            idem_fail += 1
        v = GridFunction(u.grid, np.sort(rng.uniform(size=64))[::-1].copy())
        plain, symmetrized = hardy_littlewood_check(u, v)
        if symmetrized < plain - 1e-12:
            hl_violations += 1
    results["equimeasurability_failures"] = equi_fail
    results["idempotence_failures"] = idem_fail
    results["hardy_littlewood_violations"] = hl_violations

    out = _out_dir(cfg)
    _write_json(out / "properties.json", results)
    total = sum(results.values())
    print(f"properties: {len(results)} checks, {total} violations")
    return 0 if total == 0 else 3


# ---------------------------------------------------------------------------
# argument parsing

DEFAULTS = {
    "constant": {"p": 2.0, "alpha": 0.0, "k": 3, "format": "csv", "out": "."},
    "eps-sweep": {"N": 3, "p": 2.0, "alpha": 0.0, "eps_ladder": None, "format": "csv", "out": "."},
    "product-sweep": {
        "N": 4, "k": 3, "p": 2.0, "beta": 2.0, "ladder": None,
        "n_s": 4096, "n_t": 512, "log_r_max": 100.0,
        "format": "csv", "out": ".", "refine": 0,
    },
    "symmetrize": {
        "N": 4, "k": 2, "p": 2.0, "beta": 1.0, "n": 64, "r_max": 8.0,
        "format": "csv", "out": ".", "seed": 0, "refine": 0,
    },
    "minimize": {
        "N": 4, "k": 2, "p": 2.0, "beta": 1.0, "n": 64, "r_max": 8.0,
        "max_iter": 2000, "out": ".", "seed": 0, "refine": 0,
    },
    "split-demo": {
        "omega_width": 1.0, "lambda_scales": [1.0, 4.0, 16.0, 64.0],
        "format": "csv", "out": ".",
    },
    "properties": {"trials": 100000, "out": ".", "seed": 0},
}

HANDLERS = {
    "constant": cmd_constant,
    "eps-sweep": cmd_eps_sweep,
    "product-sweep": cmd_product_sweep,
    "symmetrize": cmd_symmetrize,
    "minimize": cmd_minimize,
    "split-demo": cmd_split_demo,
    "properties": cmd_properties,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per entry of DEFAULTS, helped by its handler's docstring,
    with --config and a flag for each scalar setting, typed by its default.
    Built once per process: every flag defaults to None and `parse_args`
    returns a fresh Namespace, so no call's arguments reach the next."""
    parser = argparse.ArgumentParser(
        prog="hardysym",
        description="Hardy-inequality sharp-constant and symmetrization workbench",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, defaults in DEFAULTS.items():
        doc = HANDLERS[name].__doc__
        p = sub.add_parser(name, help=doc, description=doc)
        p.add_argument("--config", type=str, help="JSON config file (flags override it)")
        for key, default in defaults.items():
            if default is None or isinstance(default, list):
                continue  # ladders are config-only
            flag = "--" + key.replace("_", "-")
            choices = FORMATS if key == "format" else None
            p.add_argument(flag, dest=key, type=type(default), choices=choices, help=f"default {default!r}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args, DEFAULTS[args.command])
        return HANDLERS[args.command](cfg)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IOError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
