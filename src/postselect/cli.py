"""Command-line front end: curve emission, selection-probability tables,
convergence studies, and simulation runs, all driven by a flat config file.

Exit codes: 0 success, 2 config error, 3 numerical-tolerance failure,
4 I/O error.  Output CSVs carry a header line recording the config hash, the
seed and the tool version; numbers are written with 17 significant digits so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotic import LimitParameter, limit_engine, local_shift_vector
from .config import ConfigError, RunConfig, _check_seed, _parse_grid, parse_config
from .distribution import TwoRegressorSetting, _two_regressor_density, finite_sample_engine
from .kernels import QuadratureSpec, norm_pdf
from .montecarlo import ks_distance, ks_grid, simulate, write_report_csv

__all__ = ["main"]


class ToleranceFailure(RuntimeError):
    """A numerical result failed to meet its requested tolerance."""


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path: Path, meta: dict, columns: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _meta(cfg: RunConfig) -> dict:
    return {"config_hash": cfg.digest, "seed": cfg.seed, "version": __version__}


def _spec(cfg: RunConfig) -> QuadratureSpec:
    return QuadratureSpec(abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol)


def _general_components(cfg: RunConfig):
    """Problem objects for the configured scenario (first panel if several)."""
    if cfg.scenario == "general_design":
        return cfg.design, cfg.family, cfg.target, cfg.params
    return cfg.settings()[0].components(theta1=cfg.theta1)


def _check(result) -> float:
    if not result.converged:
        raise ToleranceFailure("quadrature failed to reach the requested tolerance")
    return result.value


def cmd_curves(cfg: RunConfig, outdir: Path) -> None:
    """Density curves per panel plus a sidecar of restricted-model weights."""
    if cfg.scenario != "two_regressor":
        raise ConfigError("scenario.kind: curves requires the two_regressor scenario")
    spec = _spec(cfg)
    grid = cfg.grid_points()
    weight_rows = []
    for setting in cfg.settings():
        sd_narrow = setting.sigma1 * np.sqrt(1.0 - setting.rho**2)
        densities = [
            _check(_two_regressor_density(setting, variant, grid, spec))
            for variant in ("unknown", "known", "cond_m1", "cond_m2")
        ]
        rows = zip(
            grid,
            *densities,
            norm_pdf(grid / sd_narrow) / sd_narrow,
            norm_pdf(grid / setting.sigma1) / setting.sigma1,
        )
        _write_csv(
            outdir / f"curves_theta2_{setting.theta2:g}.csv",
            _meta(cfg),
            ["t", "density_unknown", "density_known", "cond_m1", "cond_m2",
             "gauss_m1", "gauss_m2"],
            rows,
        )
        design, family, _, params = setting.components(theta1=cfg.theta1)
        keep = [
            finite_sample_engine(design, family, None, params, variant).weight(1, spec).value
            for variant in ("known", "unknown")
        ]
        weight_rows.append((setting.theta2, *keep))
    _write_csv(
        outdir / "selection_weights.csv",
        _meta(cfg),
        ["theta2", "keep_known", "keep_unknown"],
        weight_rows,
    )


def cmd_selection_probs(cfg: RunConfig, outdir: Path) -> None:
    """Selection probabilities per order, both variants, optional MC column."""
    spec = _spec(cfg)
    design, family, target, params = _general_components(cfg)
    probs = {}
    for variant in ("known", "unknown"):
        engine = finite_sample_engine(design, family, None, params, variant)
        probs[variant] = [engine.weight(p, spec).value for p in family.orders]
        total = sum(probs[variant])
        if abs(total - 1.0) > 1e-6:
            raise ToleranceFailure(f"{variant} selection probabilities sum to {total}")
    columns_data = [family.orders, probs["known"], probs["unknown"]]
    if cfg.mc_check:
        report = simulate(design, family, target, params, cfg.replications,
                          cfg.variant, cfg.seed)
        columns_data.append([float(np.mean(report.selected == p)) for p in family.orders])
    rows = zip(*columns_data)
    columns = ["p", "known", "unknown"] + (["mc_freq"] if cfg.mc_check else [])
    _write_csv(outdir / "selection_probs.csv", _meta(cfg), columns, rows)


def cmd_convergence(cfg: RunConfig, outdir: Path) -> None:
    """Distance of the data-driven to the idealized and limit distributions over n.

    The two-regressor setting is held fixed across n by keeping the rescaled
    coefficient sqrt(n) * theta2 at its value for the configured n, so the
    distribution shapes stay comparable while the residual-scale law tightens.
    """
    if cfg.scenario != "two_regressor":
        raise ConfigError("scenario.kind: convergence requires the two_regressor scenario")
    n_list = cfg.n_list or (cfg.n,)
    spec = _spec(cfg)
    base = cfg.settings()[0]
    psi2 = np.sqrt(base.n) * base.theta2
    grid = cfg.grid_points()
    psi = local_shift_vector(np.array([cfg.theta1, 0.0]), np.array([0.0, psi2]))
    rows = []
    for n in sorted(n_list):
        st = TwoRegressorSetting(rho=base.rho, sigma1=base.sigma1, sigma2=base.sigma2,
                                 theta2=psi2 / np.sqrt(n), n=n, c2=base.c2)
        design, family, target, params = st.components(theta1=cfg.theta1)
        unknown, known = (
            finite_sample_engine(design, family, target, params, variant)
            for variant in ("unknown", "known")
        )
        limit = limit_engine(LimitParameter(psi=psi, sigma=params.sigma, Q=design.gram),
                             family, target)
        d_cdf = 0.0
        d_lim = 0.0
        for t in grid:
            g_unknown = _check(unknown.cdf(t, spec))
            g_known = _check(known.cdf(t, spec))
            lim = _check(limit.cdf(t, spec))
            base_val = g_unknown if cfg.variant == "unknown" else g_known
            d_cdf = max(d_cdf, abs(g_unknown - g_known))
            d_lim = max(d_lim, abs(base_val - lim))
        d_sel = max(
            abs(unknown.weight(p, spec).value - known.weight(p, spec).value)
            for p in family.orders
        )
        rows.append((n, d_cdf, d_sel, d_lim))
    metrics = ["sup_cdf_known_vs_unknown", "sup_selprob_known_vs_unknown", "sup_cdf_vs_limit"]
    _write_csv(outdir / "convergence.csv", _meta(cfg), ["n", *metrics], rows)
    summary = [
        (name, int(all(b < a for a, b in zip(vals, vals[1:]))), vals[-1])
        for name, vals in zip(metrics, list(zip(*rows))[1:])
    ]
    _write_csv(outdir / "convergence_summary.csv", _meta(cfg),
               ["metric", "strictly_decreasing", "final_value"], summary)


def cmd_simulate(cfg: RunConfig, outdir: Path) -> None:
    """Simulation report plus a summary with selection frequencies and KS distance."""
    spec = _spec(cfg)
    design, family, target, params = _general_components(cfg)
    report = simulate(design, family, target, params, cfg.replications, cfg.variant, cfg.seed)
    write_report_csv(report, outdir / "simulation.csv", _meta(cfg))

    engine = finite_sample_engine(design, family, target, params, cfg.variant)
    summary_cols = ["R", "seed", "variant"]
    summary_row = [report.R, cfg.seed, cfg.variant]
    if target.k == 1:
        ks = ks_distance(report, lambda t: _check(engine.cdf(t, spec)), ks_grid(report))
        summary_cols.append("ks_distance")
        summary_row.append(ks)
    for p in family.orders:
        summary_cols += [f"freq_p{p}", f"prob_p{p}"]
        summary_row += [float(np.mean(report.selected == p)), engine.weight(p, spec).value]
    _write_csv(outdir / "simulation_summary.csv", _meta(cfg), summary_cols, [summary_row])


_COMMANDS = {
    "curves": cmd_curves,
    "selection-probs": cmd_selection_probs,
    "convergence": cmd_convergence,
    "simulate": cmd_simulate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postselect",
        description="Distributions of linear transforms of post-selection estimators",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].strip())
        p.add_argument("--config", required=True, help="path to the run configuration file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="stream seed (overrides config)")
        p.add_argument("--replications", type=int, help="MC replications (overrides config)")
        p.add_argument("--grid", help="evaluation grid, written --grid=LO:HI:COUNT so a "
                       "negative LO is not read as an option (overrides config)")
        p.add_argument("--variant", choices=["known", "unknown"],
                       help="selector variant (overrides config)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = _check_seed(args.seed, "--seed")
        if args.replications is not None:
            if args.replications < 1:
                raise ConfigError("--replications: must be >= 1")
            cfg.replications = args.replications
        if args.grid is not None:
            try:
                cfg.grid = _parse_grid(args.grid)
            except ValueError as exc:
                raise ConfigError(f"--grid: {exc}") from exc
        if args.variant is not None:
            cfg.variant = args.variant
        if args.out is not None:
            cfg.out = args.out
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ToleranceFailure as exc:
        print(f"numerical tolerance failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
