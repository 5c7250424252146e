"""Brute-force simulation oracle for the post-selection distributions.

Simulates Y = X theta + sigma u with standard normal noise, runs the actual
select-then-estimate procedure on every replication, and records the scaled
transformed estimation errors together with the selected orders.  Noise comes
from a counter-based (Philox) stream: replications are laid out in fixed-size
blocks, block b drawing from the b-th jumped substream, so reports are
bit-for-bit reproducible from (seed, design, params, family, R) regardless of
how many worker threads process the blocks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.linalg import solve_triangular

from .config import ConfigError
from .model import (
    ParameterPoint,
    RegressionDesign,
    SelectionFamily,
    TargetFunctional,
)
from .kernels import normals_from_stream
from .selection import _largest_admissible, _tstats_and_scale

__all__ = [
    "SimulationReport",
    "simulate",
    "empirical_cdf",
    "ks_distance",
    "ks_grid",
    "power_check_noncentral_t",
    "write_report_csv",
]

_VARIANTS = ("known", "unknown")


def _worker_count() -> int:
    env = os.environ.get("POSTSEL_THREADS", "").strip()
    if not env:
        return min(8, os.cpu_count() or 1)
    if not env.isdecimal() or int(env) < 1:
        raise ConfigError(f"POSTSEL_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _block_rows(n: int) -> int:
    # keep each block's noise buffer around 16 MB; a function of n only, so
    # the replication -> stream layout never depends on thread count
    return int(max(256, min(1 << 14, (1 << 21) // n)))


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Replication-level record of the simulated selection-and-estimate runs.

    ``draws[r]`` is the scaled transformed estimation error of replication r,
    ``selected[r]`` the selected order.  Bit-for-bit reproducible from the
    seed and the problem inputs.
    """

    draws: np.ndarray
    selected: np.ndarray
    seed: int

    @property
    def R(self) -> int:
        return self.draws.shape[0]

    @property
    def k(self) -> int:
        return self.draws.shape[1]


def _simulate_block(
    seed: int,
    block_index: int,
    rows: int,
    design: RegressionDesign,
    family: SelectionFamily,
    params: ParameterPoint,
    variant: str,
    maps: dict[int, np.ndarray],
    base: np.ndarray,
):
    n, P = design.n, design.P
    O = family.min_order
    stream = Philox(key=seed).jumped(block_index)
    u = normals_from_stream(stream, (rows, n))
    Y = (design.X @ params.theta)[None, :] + params.sigma * u  # (rows, n)

    scale = None if variant == "unknown" else params.sigma
    t, _, z = _tstats_and_scale(design, Y, scale)
    selected = _largest_admissible(family, t)

    draws = np.empty((rows, base.size))
    for p in range(O, P + 1):
        mask = selected == p
        if np.any(mask):
            draws[mask] = base if p == 0 else (maps[p] @ z[:p, mask]).T + base
    return draws, selected


def simulate(
    design: RegressionDesign,
    family: SelectionFamily,
    target: TargetFunctional,
    params: ParameterPoint,
    R: int,
    variant: str = "unknown",
    seed: int = 0,
    workers: int | None = None,
) -> SimulationReport:
    """R independent select-then-estimate replications.

    ``variant`` chooses the selector: "unknown" uses the full-model residual
    scale estimate in the t-ratios, "known" the true sigma.  Blocks of
    replications are processed in parallel (capped by POSTSEL_THREADS) and
    merged in block order.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    if family.P != design.P or target.P != design.P:
        raise ValueError("family/target inconsistent with design")

    # the order-p draw is sqrt(n) A[:, :p] R[:p,:p]^{-1} (Q'y)[:p] + base, the
    # restricted fit mapped through the target; the order-0 fit is zero
    _, r = design.qr
    rootn = math.sqrt(design.n)
    maps = {
        p: rootn * solve_triangular(r[:p, :p], target.A[:, :p].T, trans="T").T
        for p in range(max(family.min_order, 1), design.P + 1)
    }
    base = -rootn * (target.A @ params.theta)

    rows = _block_rows(design.n)
    n_blocks = (R + rows - 1) // rows
    sizes = [rows] * (n_blocks - 1) + [R - rows * (n_blocks - 1)]

    def run(b: int):
        return _simulate_block(seed, b, sizes[b], design, family, params, variant, maps, base)

    workers = workers if workers is not None else _worker_count()
    if workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(n_blocks)))
    else:
        parts = [run(b) for b in range(n_blocks)]

    draws = np.concatenate([p[0] for p in parts], axis=0)
    selected = np.concatenate([p[1] for p in parts], axis=0)
    return SimulationReport(draws=draws, selected=selected, seed=int(seed))


def empirical_cdf(report: SimulationReport, t) -> float:
    """Fraction of draws componentwise <= t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return float(np.mean(np.all(report.draws <= t, axis=1)))


def ks_grid(report: SimulationReport, points: int = 101) -> np.ndarray:
    """Evaluation grid spanning the draw mean +- 5 max-component standard deviations."""
    mean = report.draws.mean(axis=0)
    spread = 5.0 * float(report.draws.std(axis=0, ddof=1).max())
    if report.k == 1:
        return np.linspace(mean[0] - spread, mean[0] + spread, points)
    return np.linspace(mean - spread, mean + spread, points)


def ks_distance(report: SimulationReport, analytic_cdf, grid) -> float:
    """Max over the grid of |empirical cdf - analytic cdf|."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1 and report.k == 1:
        order = np.sort(report.draws[:, 0])
        emp = np.searchsorted(order, grid, side="right") / report.R
        worst = 0.0
        for g, e in zip(grid, emp):
            worst = max(worst, abs(e - float(analytic_cdf(g))))
        return worst
    worst = 0.0
    for row in np.atleast_2d(grid):
        e = empirical_cdf(report, row)
        worst = max(worst, abs(e - float(analytic_cdf(row))))
    return worst


def power_check_noncentral_t(
    df: int, ncp: float, crit: float, R: int, seed: int = 0
) -> float:
    """Monte Carlo estimate of P(T > crit) for T = (Z + ncp)/sqrt(chi2_df/df)."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if R < 1:
        raise ValueError("R must be >= 1")
    stream = Philox(key=int(seed))
    z = normals_from_stream(stream, R)
    chi = np.random.Generator(Philox(key=int(seed)).jumped(1)).chisquare(df, R)
    t = (z + ncp) / np.sqrt(chi / df)
    return float(np.mean(t > crit))


def write_report_csv(report: SimulationReport, path, meta: dict | None = None) -> None:
    """One row per replication: draw components then the selected order."""
    cols = [f"draw_{i + 1}" for i in range(report.k)] + ["selected"]
    with open(path, "w", newline="") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        fh.write(",".join(cols) + "\n")
        for r in range(report.R):
            vals = [format(x, ".17g") for x in report.draws[r]]
            vals.append(str(int(report.selected[r])))
            fh.write(",".join(vals) + "\n")
