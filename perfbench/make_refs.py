#!/usr/bin/env python3
"""Write perfbench/refs.json: the reference values the benchmark checks against.

Every pool point of every workload gets its value at tolerances far tighter
than the library defaults the benchmark times (1-D rules at abs 1e-13 /
rel 1e-12, QMC at qmc_tol 3e-6).  The CLI curve columns come from mpmath
closed forms.  The stored values are then cross-checked once against the
independent oracles: the mpmath normal cdf behind ``delta``, the
two-regressor closed-form densities (scipy and mpmath), integrals of those
densities against the stored cdf increments, and the Monte Carlo oracle.
The result of each cross-check is stored next to the values; the benchmark
refuses to run on references whose cross-check failed.

Run from the repository root (takes several minutes on 2 CPUs):

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import integrate  # noqa: E402

import postselect as ps  # noqa: E402
from postselect.config import parse_config, synthetic_design  # noqa: E402

import workloads as W  # noqa: E402

TIGHT = ps.QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
TIGHT_QMC = ps.QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11, qmc_tol=3e-6, qmc_max=1 << 24)
MC_R = 2_000_000

mpmath.mp.dps = 30


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def pool(centers):
    """The seeded-choice pool: every offset around every stratum center."""
    def shifted(center, offset):
        if isinstance(center, tuple):
            return tuple(c + offset for c in center)
        return center + offset

    return [[shifted(c, o) for o in W.OFFSETS] for c in centers]


def over_pool(points, fn):
    return [[fn(t) for t in row] for row in points]


# -- mpmath closed forms of the two-regressor setting --------------------------


def mp_delta(s, a, b):
    """P(|M - a| < b) for M ~ N(0, s^2), in mpmath."""
    a, b = abs(mpmath.mpf(a)), mpmath.mpf(b)
    if b <= 0:
        return mpmath.mpf(0)
    return mpmath.ncdf((b - a) / s) - mpmath.ncdf(-(a + b) / s)


def mp_chi_density(m, s):
    half = mpmath.mpf(m) / 2
    return 2 * half**half / mpmath.gamma(half) * s ** (m - 1) * mpmath.exp(-half * s * s)


def mp_smooth(f, m):
    return mpmath.quad(lambda s: f(s) * mp_chi_density(m, s), [0, 0.5, 1, 2, mpmath.inf])


def mp_two_regressor(setting, t):
    """Columns of the CLI curves CSV at t, from the closed forms in mpmath."""
    rho, s1, c2, n = (mpmath.mpf(setting.rho), mpmath.mpf(setting.sigma1),
                      mpmath.mpf(setting.c2), setting.n)
    a = mpmath.sqrt(n) * mpmath.mpf(setting.theta2) / mpmath.mpf(setting.sigma2)
    root = mpmath.sqrt(1 - rho * rho)
    t = mpmath.mpf(t)
    phi_r = mpmath.npdf((t + a * rho * s1) / (s1 * root)) / (s1 * root)
    phi_f = mpmath.npdf(t / s1) / s1
    keep = lambda s: mp_delta(1, a, s * c2)  # noqa: E731
    drop = lambda s: 1 - mp_delta(1, (a + rho * t / s1) / root, s * c2 / root)  # noqa: E731
    m = n - 2
    return {
        "density_unknown": phi_r * mp_smooth(keep, m) + phi_f * mp_smooth(drop, m),
        "density_known": phi_r * keep(1) + phi_f * drop(1),
        "cond_m1": phi_r,
        "cond_m2": phi_f * drop(1) / (1 - keep(1)),
        "gauss_m1": mpmath.npdf(t / (s1 * root)) / (s1 * root),
        "gauss_m2": phi_f,
    }


def mp_keep(setting, variant):
    a = mpmath.sqrt(setting.n) * mpmath.mpf(setting.theta2) / mpmath.mpf(setting.sigma2)
    keep = lambda s: mp_delta(1, a, s * mpmath.mpf(setting.c2))  # noqa: E731
    return keep(1) if variant == "known" else mp_smooth(keep, setting.n - 2)


# -- reference values --------------------------------------------------------------


def panel_refs():
    out = []
    for th in W.PANEL_THETA2:
        log(f"panel theta2={th}")
        _, prob = W.classic_components(ps, th)
        design, family, _, params = prob
        points = pool(W.PANEL_CENTERS)
        out.append({
            "theta2": th,
            "points": points,
            "cdf_unknown": over_pool(points, lambda t: ps.cdf_unknown_variance(*prob, t, TIGHT).value),
            "density_unknown": over_pool(
                points, lambda t: ps.density_unknown_variance(*prob, t, TIGHT).value),
            "cdf_known": over_pool(points, lambda t: ps.cdf_known_variance(*prob, t, TIGHT).value),
            "density_known": over_pool(
                points, lambda t: ps.density_known_variance(*prob, t, TIGHT).value),
            "selprob_unknown": [ps.selection_prob_unknown(design, family, params, p, TIGHT)
                                for p in family.orders],
            "selprob_known": [ps.selection_prob_known(design, family, params, p)
                              for p in family.orders],
        })
    return out


def general_refs():
    cfg = parse_config(W.CONFIGS / "general_design.ini")
    targets = {}
    for key, rows in W.GENERAL_TARGETS.items():
        log(f"general target {key}")
        prob = (cfg.design, cfg.family, ps.TargetFunctional(np.array(rows)), cfg.params)
        spec = TIGHT_QMC if key == "A" else TIGHT
        points = pool(W.GENERAL_CENTERS[key])
        entry = {"points": points, "cdf_unknown": over_pool(
            points, lambda t: ps.cdf_unknown_variance(*prob, np.array(t, dtype=float), spec).value)}
        if key == "e1":
            entry["density_unknown"] = over_pool(
                points, lambda t: ps.density_unknown_variance(*prob, t, TIGHT).value)
        targets[key] = entry
    fam = cfg.family
    known = [ps.selection_prob_known(cfg.design, fam, cfg.params, p) for p in fam.orders]
    unknown = [ps.selection_prob_unknown(cfg.design, fam, cfg.params, p, TIGHT)
               for p in fam.orders]
    return {
        "targets": targets,
        "selprob_known": known,
        "selprob_unknown": unknown,
        "selection_probs": [[p, k, u] for p, k, u in zip(fam.orders, known, unknown)],
    }


def p10_refs():
    designs = {}
    for seed in W.P10_DESIGN_SEEDS:
        log(f"P=10 design seed {seed}")
        prob = W.p10_problem(ps, synthetic_design, seed)
        design, family, target, params = prob
        limit = ps.LimitParameter(psi=np.array(W.P10_PSI), sigma=1.0, Q=design.gram)
        points = pool(W.P10_CENTERS)
        designs[str(seed)] = {
            "points": points,
            "cdf_known": over_pool(points, lambda t: ps.cdf_known_variance(*prob, t, TIGHT).value),
            "density_known": over_pool(
                points, lambda t: ps.density_known_variance(*prob, t, TIGHT).value),
            "limit_cdf": over_pool(
                points, lambda t: ps.limit_cdf(limit, family, target, t, TIGHT).value),
            "selprob_known": [ps.selection_prob_known(design, family, params, p)
                              for p in family.orders],
            "limit_selprob": [ps.limit_selection_prob(limit, family, p) for p in family.orders],
        }
    return {"designs": designs}


def local_refs():
    loc = W.local_alternative(ps, parse_config)
    points = pool(W.LOCAL_CENTERS)
    return {"points": points, "value": over_pool(points, lambda t: ps.local_alternative_limit(
        loc["theta"], loc["gamma"], loc["sigma"], loc["Q"], loc["family"], loc["target"], t,
        TIGHT).value)}


def cli_refs():
    cfg = parse_config(W.CONFIGS / "density_panels.ini")
    curves = {}
    for grid in (W.SIZES["full"]["grid"], W.SIZES["smoke"]["grid"]):
        log(f"curves grid {grid}")
        lo, hi, count = grid.split(":")
        ts = np.linspace(float(lo), float(hi), int(count))
        panels = {}
        weights = {"theta2": [], "keep_known": [], "keep_unknown": []}
        for setting in cfg.settings():
            cols = {"t": [float(t) for t in ts]}
            for t in ts:
                for name, value in mp_two_regressor(setting, t).items():
                    cols.setdefault(name, []).append(float(value))
            panels[format(setting.theta2, "g")] = cols
            weights["theta2"].append(setting.theta2)
            weights["keep_known"].append(float(mp_keep(setting, "known")))
            weights["keep_unknown"].append(float(mp_keep(setting, "unknown")))
        curves[grid] = {"panels": panels, "weights": weights}
    return {"curves": curves}


# -- cross-checks against independent oracles ---------------------------------------


def crosscheck(refs):
    out = {}

    mp_cases = [(1.0, 0.0, 2.015), (2.0, 1.3, 0.7), (0.5, -0.2, 0.9), (1.0, 3.0, 1.0),
                (3.0, 0.0, 0.1), (0.7, 4.5, 2.0)]
    out["delta_vs_mpmath"] = max(abs(ps.delta(s, a, b) - float(mp_delta(s, a, b)))
                                 for s, a, b in mp_cases)

    dens_cf, dens_mp, sel_mp, inc, z_mc = 0.0, 0.0, 0.0, 0.0, 0.0
    for panel in refs["panels"]:
        setting, prob = W.classic_components(ps, panel["theta2"])
        for variant in ("known", "unknown"):
            for p_i, value in enumerate(panel[f"selprob_{variant}"]):
                keep = float(mp_keep(setting, variant))
                sel_mp = max(sel_mp, abs(value - (keep if p_i == 0 else 1.0 - keep)))
            flat_t = [t for row in panel["points"] for t in row]
            flat_d = [d for row in panel[f"density_{variant}"] for d in row]
            flat_c = [c for row in panel[f"cdf_{variant}"] for c in row]
            for t, d in zip(flat_t, flat_d):
                dens_cf = max(dens_cf, abs(d - ps.two_regressor_density(setting, variant, t, TIGHT)))
                mp_d = mp_two_regressor(setting, t)[f"density_{variant}"]
                dens_mp = max(dens_mp, abs(d - float(mp_d)))
            # cdf increments against integrals of the closed-form density
            dens = lambda t: ps.two_regressor_density(setting, variant, t, TIGHT)  # noqa: E731
            edges = [-math.inf] + flat_t
            base = [0.0] + flat_c
            for lo, hi, c_lo, c_hi in zip(edges, edges[1:], base, base[1:]):
                mass, _ = integrate.quad(dens, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
                inc = max(inc, abs((c_hi - c_lo) - mass))
            rep = ps.simulate(*prob, MC_R, variant, seed=7 + int(10 * panel["theta2"]))
            for t, c in zip(flat_t, flat_c):
                emp = float(np.mean(rep.draws[:, 0] <= t))
                z_mc = max(z_mc, abs(emp - c) / math.sqrt(max(c * (1 - c), 1e-12) / MC_R))
        log(f"cross-checked panel theta2={panel['theta2']}")
    out["density_vs_closed_form"] = dens_cf
    out["density_vs_mpmath"] = dens_mp
    out["selprob_vs_mpmath"] = sel_mp
    out["cdf_increment_vs_density_integral"] = inc
    out["panel_cdf_vs_monte_carlo_max_z"] = z_mc

    cfg = parse_config(W.CONFIGS / "general_design.ini")
    z_gen = 0.0
    for key, rows in W.GENERAL_TARGETS.items():
        prob = (cfg.design, cfg.family, ps.TargetFunctional(np.array(rows)), cfg.params)
        rep = ps.simulate(*prob, MC_R, "unknown", seed=11)
        entry = refs["general"]["targets"][key]
        slack = W.TOL_QMC if key == "A" else 0.0
        for row_t, row_c in zip(entry["points"], entry["cdf_unknown"]):
            for t, c in zip(row_t, row_c):
                emp = float(np.mean(np.all(rep.draws <= np.atleast_1d(t), axis=1)))
                sd = math.sqrt(max(c * (1 - c), 1e-12) / MC_R)
                z_gen = max(z_gen, max(abs(emp - c) - slack, 0.0) / sd)
        for p, prob_p in zip(cfg.family.orders, refs["general"]["selprob_unknown"]):
            freq = float(np.mean(rep.selected == p))
            z_gen = max(z_gen, abs(freq - prob_p) / math.sqrt(prob_p * (1 - prob_p) / MC_R))
    out["general_vs_monte_carlo_max_z"] = z_gen
    log("cross-checked general design")

    z_p10, lim_sum = 0.0, 0.0
    for seed, entry in refs["p10"]["designs"].items():
        prob = W.p10_problem(ps, synthetic_design, int(seed))
        rep = ps.simulate(*prob, 400_000, "known", seed=13)
        for row_t, row_c in zip(entry["points"], entry["cdf_known"]):
            for t, c in zip(row_t, row_c):
                emp = float(np.mean(rep.draws[:, 0] <= t))
                z_p10 = max(z_p10, abs(emp - c) / math.sqrt(max(c * (1 - c), 1e-12) / 400_000))
        lim_sum = max(lim_sum, abs(sum(entry["limit_selprob"]) - 1.0),
                      abs(sum(entry["selprob_known"]) - 1.0))
    out["p10_cdf_vs_monte_carlo_max_z"] = z_p10
    out["selprob_sum_minus_one"] = lim_sum
    log("cross-checked P=10 designs")

    out["passed"] = bool(
        out["delta_vs_mpmath"] <= 1e-14
        and out["density_vs_closed_form"] <= 1e-12
        and out["density_vs_mpmath"] <= 1e-12
        and out["selprob_vs_mpmath"] <= 1e-12
        and out["cdf_increment_vs_density_integral"] <= 1e-10
        and out["panel_cdf_vs_monte_carlo_max_z"] <= W.MC_SIGMAS
        and out["general_vs_monte_carlo_max_z"] <= W.MC_SIGMAS
        and out["p10_cdf_vs_monte_carlo_max_z"] <= W.MC_SIGMAS
        and out["selprob_sum_minus_one"] <= 1e-12
    )
    return out


def main() -> int:
    refs = {
        "generated_with": {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "postselect": ps.__version__,
        },
        "tolerances": {"tight": [TIGHT.abs_tol, TIGHT.rel_tol],
                       "tight_qmc_tol": TIGHT_QMC.qmc_tol},
        "panels": panel_refs(),
        "general": general_refs(),
        "p10": p10_refs(),
        "local_alt": local_refs(),
        "cli": cli_refs(),
    }
    refs["crosscheck"] = crosscheck(refs)
    log(f"cross-check: {refs['crosscheck']}")
    with open(W.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0 if refs["crosscheck"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
