"""Brute-force simulation oracle for the post-selection distributions.

Runs the select-then-estimate procedure on replications of the model
Y = X theta + sigma u with standard normal noise, and records the scaled
transformed estimation errors together with the selected orders.

With X = QR and R's diagonal positive, R = sqrt(n) L' for the lower
Cholesky factor L of X'X/n.  The selector and every restricted fit read Y
only through z = Q'y and the full-model residual sum of squares RSS.  For
Gaussian noise these are independent, z ~ N(L'psi, sigma^2 I_P) with
psi = sqrt(n) theta and RSS ~ sigma^2 chi^2_{n-P}, so a replication draws
those P + 1 numbers instead of n noise values: z = L'psi + sigma w from P
standard normals w and, for the data-driven selector, the residual scale
sigma sqrt(chi^2_{n-P} / (n - P)).  The order-p fit mapped through the
target is W[:p]'z[:p], with W from ``model.order_operator`` as in the
engine.  Like ``finite_sample_engine``, the simulator reads a
design only through (L, n), so a design given by its Gram matrix serves.
The reports have the law of the procedure run on whole responses;
``TestSimulationStatistics.test_full_response_procedure_agrees_in_law`` in
``tests/test_montecarlo.py`` keeps that procedure as the oracle.

Draws come from a counter-based (Philox) stream: replications are laid out
in fixed-size blocks, block b drawing from the b-th jumped substream (first
the normals, then the chi-squares), so reports are bit-for-bit reproducible
from (seed, design, params, family, R) regardless of how many worker threads
process the blocks.  The two selectors see the same z under the same seed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .config import ConfigError
from .model import (ParameterPoint, RegressionDesign, SelectionFamily, TargetFunctional,
                    order_operator)
from .kernels import _require_no_nan, normals_from_stream
from .selection import _largest_admissible, _tratios

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
_CSV_BLOCK_ROWS = 1 << 16


def _worker_count() -> int:
    env = os.environ.get("POSTSEL_THREADS", "").strip()
    if not env:
        return min(8, os.cpu_count() or 1)
    if not env.isdecimal() or int(env) < 1:
        raise ConfigError(f"POSTSEL_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _block_rows(P: int) -> int:
    # at most 2^17 normals (1 MB) per block; a function of the design only,
    # so the replication -> stream layout never depends on thread count
    return int(max(256, min(1 << 14, (1 << 17) // P)))


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
    if params.theta.size != design.P:
        raise ValueError("theta length inconsistent with design")

    # the order-p draw is W[:p]'z[:p] - A psi, the restricted fit mapped
    # through the target; maps stacks the k rows of each order's W[:p]',
    # zero-padded to P columns (the order-0 fit is zero)
    n, P, L = design.n, design.P, design.factor
    psi = math.sqrt(n) * params.theta
    W = order_operator(L, target.A)
    maps = np.concatenate([np.where(np.arange(P) < p, W.T, 0.0) for p in family.orders])
    mean, base = L.T @ psi, -(target.A @ psi)

    rows = _block_rows(P)
    n_blocks = (R + rows - 1) // rows
    sizes = [rows] * (n_blocks - 1) + [R - rows * (n_blocks - 1)]

    def run(b: int):
        m = sizes[b]
        gen = Generator(Philox(key=seed).jumped(b))
        # z = Q'y of each replication (one per column), then the residual
        # scale, which is independent of z
        z = mean[:, None] + params.sigma * normals_from_stream(gen, (m, P)).T
        scale = params.sigma
        if variant == "unknown":
            scale = scale * np.sqrt(gen.chisquare(n - P, m) / (n - P))
        selected = _largest_admissible(family, _tratios(z, scale))
        # every order's fit of every replication, then the selected one's
        fits = (maps @ z).reshape(-1, target.k, m)
        return fits[selected - family.min_order, :, np.arange(m)] + base, selected

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
    if t.shape != (report.k,):
        raise ValueError(f"t must have length {report.k}")
    _require_no_nan(t)
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
    """One row per replication: draw components (``%.17g``, round-trip exact)
    then the selected order."""
    cols = [f"draw_{i + 1}" for i in range(report.k)] + ["selected"]
    row = ",".join(["%.17g"] * report.k + ["%d"]) + "\n"
    with open(path, "w", newline="") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        fh.write(",".join(cols) + "\n")
        for lo in range(0, report.R, _CSV_BLOCK_ROWS):
            block = slice(lo, lo + _CSV_BLOCK_ROWS)
            columns = [report.draws[block, i].tolist() for i in range(report.k)]
            columns.append(report.selected[block].tolist())
            fh.write("".join([row % vals for vals in zip(*columns)]))
