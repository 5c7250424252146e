"""Workloads of the postselect benchmark.

Each workload is a fixed list of operations (one "round") built from the
benchmark seed.  ``setup`` imports postselect and builds the problem objects;
``build`` turns them into operations, each with a check against a stored
reference (``refs.json``, written by ``make_refs.py`` at tighter tolerances and
cross-checked there against independent oracles) or, for simulations, against
the exact selection probabilities and cdf values within Monte Carlo error.

The seed picks the evaluation points from stored pools (one point per stratum
of each pool), the synthetic design seeds and the Philox simulation seeds;
the library only sees the generated inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"
REFS_PATH = Path(__file__).with_name("refs.json")

# Gates: 1-D paths must match the reference to 1e-10; QMC paths to the
# library's stated qmc_tol (the default QuadratureSpec's).
TOL_1D = 1e-10
TOL_QMC = 1e-4
# Monte Carlo checks allow this many binomial standard errors, so a correct
# simulation fails one by chance with probability ~1e-9.
MC_SIGMAS = 6.0

# -- problem definitions shared with make_refs.py ------------------------------

PANEL_THETA2 = (0.0, 0.1, 0.75, 1.2)
PANEL_CENTERS = (-4.5, -1.5, 1.5, 4.5)
# Pool of seeded offsets around every stratum center.  Kept narrow so that
# the work per round, and with it the timing, depends little on the seed.
OFFSETS = (-0.15, -0.05, 0.05, 0.15)

GENERAL_TARGETS = {
    "A": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),  # bivariate: randomized QMC
    "e1": ((1.0, 0.0, 0.0),),  # 1-D nonsingular path at P = 3
    "e2": ((0.0, 1.0, 0.0),),  # order-2 conditional scale exactly 0
}
GENERAL_CENTERS = {
    "A": ((-1.0, -0.5), (0.2, 0.3), (1.2, 1.0)),
    "e1": (-1.5, 0.0, 1.5),
    "e2": (-1.5, 0.0, 1.5),
}

P10_N, P10_P = 200, 10
P10_THETA = (1.0, 0.15, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0)
P10_CRITICAL = 1.96
# Infinite entries put p_star (3) above the minimal order (1).
P10_PSI = (math.inf, 0.5, -math.inf, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
P10_CENTERS = (-1.5, -0.5, 0.5, 1.5)
P10_DESIGN_SEEDS = tuple(range(1, 9))

LOCAL_CENTERS = (-1.5, 0.0, 1.5)

# The CLI grid override must be passed as one token: argparse reads
# "--grid -6:6:9" as an unknown option because of the leading dash.
CURVES_GRID = "-6:6:9"

# Rounds are kept near a second or two (general_qmc: six), so that a run
# repeats every operation several times (see run.py on why each operation's median call is
# reported).
# ``cases`` caps the panels / targets evaluated and ``strata`` the strata used
# per pool; None means all.
SIZES = {
    "full": {"panel_R": 200_000, "general_R": 100_000, "classic_R": 100_000,
             "p10_known_R": 4_000, "n7_R": 100_000, "p10_R": 25_000,
             "ks_points": 41, "cases": None, "strata": None, "grid": CURVES_GRID},
    "smoke": {"panel_R": 2_000, "general_R": 2_000, "classic_R": 2_000,
              "p10_known_R": 500, "n7_R": 2_000, "p10_R": 500,
              "ks_points": 5, "cases": 2, "strata": 1, "grid": "-6:6:3"},
}


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        refs = json.load(fh)
    if not refs["crosscheck"]["passed"]:
        raise RuntimeError("stored references failed their oracle cross-check")
    return refs


def classic_components(ps, theta2: float):
    """The classic two-regressor setting and its (design, family, target, params)."""
    setting = ps.TwoRegressorSetting(rho=0.75, sigma1=1.0, sigma2=1.0,
                                     theta2=theta2, n=7, c2=2.015)
    return setting, setting.components()


def p10_problem(ps, synthetic_design, design_seed: int):
    design = synthetic_design(P10_N, P10_P, design_seed)
    family = ps.SelectionFamily(min_order=1, criticals=(P10_CRITICAL,) * (P10_P - 1))
    target = ps.TargetFunctional(np.eye(P10_P)[:1])
    params = ps.ParameterPoint(theta=np.array(P10_THETA), sigma=1.0)
    return design, family, target, params


def local_alternative(ps, parse_config):
    """The local alternative of convergence.ini: theta fixed at (theta1, 0)."""
    cfg = parse_config(CONFIGS / "convergence.ini")
    setting = cfg.settings()[0]
    design, family, target, params = setting.components(theta1=cfg.theta1, seed=cfg.seed)
    theta = np.array([cfg.theta1, 0.0])
    gamma = np.array([0.0, math.sqrt(setting.n) * setting.theta2])
    return dict(theta=theta, gamma=gamma, sigma=params.sigma, Q=design.gram,
                family=family, target=target)


# -- operations -------------------------------------------------------------------


@dataclass
class Check:
    ok: bool
    path: str | None = None  # "quad1d" or "qmc" for analytic evaluations
    abs_err: float = 0.0
    err_est_exceeded: bool = False
    nonconverged: bool = False
    csv_bytes: int = 0


@dataclass
class Op:
    """One timed call.  ``kind`` is eval (analytic), sim, cli or io."""

    name: str
    kind: str
    fn: Callable[[dict], object]
    check: Callable[[object, dict], Check]
    reps: int = 0
    span: str | None = None  # span the benchmark opens around the call when tracing


def check_value(result, ref: float, path: str = "quad1d") -> Check:
    """Gate one analytic result (DistributionResult or float) against its reference."""
    tol = TOL_QMC if path == "qmc" else TOL_1D
    if isinstance(result, float):
        err = abs(result - ref)
        return Check(ok=err <= tol, path=path, abs_err=err)
    err = abs(result.value - ref)
    return Check(
        ok=bool(result.converged) and err <= tol,
        path=path,
        abs_err=err,
        err_est_exceeded=err > result.err_est,
        nonconverged=not result.converged,
    )


def mc_close(freq: float, prob: float, R: int, slack: float = 0.0) -> bool:
    """Simulated frequency within MC_SIGMAS binomial standard errors of prob."""
    sd = math.sqrt(max(prob * (1.0 - prob), 0.0) / R)
    return abs(freq - prob) <= MC_SIGMAS * sd + slack + 1e-9


def eval_op(name, call, ref, path="quad1d") -> Op:
    return Op(name, "eval", lambda st: call(), lambda res, st: check_value(res, ref, path))


def read_csv_numbers(path: Path) -> tuple[list[str], np.ndarray]:
    """Header columns and numeric rows of a CLI CSV (comment line skipped)."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return cols, rows.reshape(len(lines) - 1, len(cols))


def csv_check(files: dict[str, dict[str, list[float]]], outdir: Path) -> Check:
    """Compare the named CSV columns with reference values within TOL_1D."""
    worst = 0.0
    size = 0
    try:
        for fname, columns in files.items():
            path = outdir / fname
            size += path.stat().st_size
            cols, rows = read_csv_numbers(path)
            for col, want in columns.items():
                got = rows[:, cols.index(col)]
                if got.shape != (len(want),):
                    return Check(ok=False, csv_bytes=size)
                worst = max(worst, float(np.max(np.abs(got - np.asarray(want)))))
    except (OSError, ValueError, IndexError):
        return Check(ok=False, csv_bytes=size)
    return Check(ok=worst <= TOL_1D, path="quad1d", abs_err=worst, csv_bytes=size)


def cli_op(name: str, argv: list[str], files, outdir: Path) -> Op:
    from postselect import cli

    def run(state):
        return cli.main([*argv, "--out", str(outdir)])

    def check(rc, state):
        return csv_check(files, outdir) if rc == 0 else Check(ok=False)

    return Op(name, "cli", run, check, span=f"cli.{argv[0]}")


def simulate_op(ps, name, problem, R, variant, seed, checks) -> Op:
    """Simulation whose report is kept in the round state for later operations.

    ``checks`` maps ("freq", order) to an exact selection probability and
    ("cdf", t) to an exact cdf value (with its own tolerance as slack).
    """
    design, family, target, params = problem

    def run(state):
        rep = ps.simulate(design, family, target, params, R, variant, seed)
        state[name] = rep
        return rep

    def check(rep, state):
        if rep.R != R:
            return Check(ok=False)
        ok = True
        for (kind, key), (prob, slack) in checks.items():
            if kind == "freq":
                freq = float(np.mean(rep.selected == key))
            else:
                freq = float(np.mean(np.all(rep.draws <= np.atleast_1d(key), axis=1)))
            ok = ok and mc_close(freq, prob, R, slack)
        return Check(ok=ok)

    return Op(name, "sim", run, check, reps=R)


# -- set-up ------------------------------------------------------------------------


def seeded(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def setup(name: str, seed: int) -> dict:
    """Import postselect and build the workload's problem objects."""
    import postselect as ps
    from postselect.config import parse_config, synthetic_design

    problems = {"ps": ps}
    if name in ("panels_smoothed", "unsmoothed_engine", "oracle_sim"):
        problems["panels"] = {th: classic_components(ps, th) for th in PANEL_THETA2}
    if name == "general_qmc":
        cfg = parse_config(CONFIGS / "general_design.ini")
        problems["general"] = {
            key: (cfg.design, cfg.family, ps.TargetFunctional(np.array(rows)), cfg.params)
            for key, rows in GENERAL_TARGETS.items()
        }
    if name == "unsmoothed_engine":
        design_seed = seeded(seed, "design").choice(P10_DESIGN_SEEDS)
        problems["p10_seed"] = design_seed
        problems["p10"] = p10_problem(ps, synthetic_design, design_seed)
        problems["limit"] = ps.LimitParameter(
            psi=np.array(P10_PSI), sigma=1.0, Q=problems["p10"][0].gram
        )
        problems["local"] = local_alternative(ps, parse_config)
    if name == "oracle_sim":
        cfg = parse_config(CONFIGS / "simulation_check.ini")
        setting = cfg.settings()[0]
        problems["n7"] = setting.components(theta1=cfg.theta1, seed=cfg.seed)
        problems["n7_theta2"] = setting.theta2
        design_seed = seeded(seed, "design").randrange(1 << 31)
        problems["p10"] = p10_problem(ps, synthetic_design, design_seed)
    return problems


def pick_strata(rng: random.Random, centers, strata):
    """Index of the seeded pool point in each (or the first ``strata``) stratum."""
    chosen = centers if strata is None else centers[:strata]
    return [(k, rng.randrange(len(OFFSETS))) for k in range(len(chosen))]


# -- workloads ---------------------------------------------------------------------


def build(name: str, problems: dict, seed: int, refs: dict, smoke: bool, tmpdir: Path) -> list[Op]:
    """The operations of one round of the workload."""
    size = SIZES["smoke" if smoke else "full"]
    rng = seeded(seed, "inputs")
    return globals()[f"_build_{name}"](problems, rng, refs, size, tmpdir)


def spread_strata(rng: random.Random, cases: int, strata: int):
    """(stratum, pool index) for each case: a seeded permutation of the strata.

    Each round evaluates one point per case, and across the cases every
    stratum is used once, so the work per round hardly depends on the seed.
    """
    order = rng.sample(range(strata), strata)
    return [(order[i % strata], rng.randrange(len(OFFSETS))) for i in range(cases)]


def _build_panels_smoothed(problems, rng, refs, size, tmpdir) -> list[Op]:
    ps = problems["ps"]
    ops = []
    panels = refs["panels"][:size["cases"]]
    for panel, (k, j) in zip(panels, spread_strata(rng, len(panels), len(PANEL_CENTERS))):
        th = panel["theta2"]
        _, prob = problems["panels"][th]
        design, family, _, params = prob
        t = panel["points"][k][j]
        ops.append(eval_op(f"cdf_unknown[{th},{t:g}]",
                           lambda t=t, prob=prob: ps.cdf_unknown_variance(*prob, t),
                           panel["cdf_unknown"][k][j]))
        # The density, the figure's curve, at a seeded point of every stratum.
        for kd, jd in pick_strata(rng, PANEL_CENTERS, size["strata"]):
            td = panel["points"][kd][jd]
            ops.append(eval_op(f"density_unknown[{th},{td:g}]",
                               lambda td=td, prob=prob: ps.density_unknown_variance(*prob, td),
                               panel["density_unknown"][kd][jd]))
        ops.append(eval_op(
            f"selprob_unknown[{th}]",
            lambda design=design, family=family, params=params:
                ps.selection_prob_unknown(design, family, params, 1),
            panel["selprob_unknown"][0]))
        checks = {("freq", 1): (panel["selprob_unknown"][0], 0.0),
                  ("cdf", t): (panel["cdf_unknown"][k][j], TOL_1D)}
        ops.append(simulate_op(ps, f"simulate[{th}]", prob, size["panel_R"], "unknown",
                               rng.randrange(1 << 31), checks))

    curves = refs["cli"]["curves"][size["grid"]]
    files = {f"curves_theta2_{th}.csv": cols for th, cols in curves["panels"].items()}
    files["selection_weights.csv"] = curves["weights"]
    ops.append(cli_op(
        "cli.curves",
        ["curves", "--config", str(CONFIGS / "density_panels.ini"),
         f"--grid={size['grid']}", "--seed", str(rng.randrange(1 << 31))],
        files, tmpdir / "curves"))
    return ops


def _build_general_qmc(problems, rng, refs, size, tmpdir) -> list[Op]:
    ps = problems["ps"]
    ops = []
    gen = refs["general"]
    family = problems["general"]["A"][1]
    # Oracle for the simulation: the selection frequencies and the bivariate
    # empirical cdf at the evaluated point, within Monte Carlo error.
    sim_checks = {("freq", p): (gen["selprob_unknown"][p - family.min_order], 0.0)
                  for p in family.orders}
    # Every target at a seeded point of every stratum: the cost of a cdf
    # depends on the point, and with one point per target the seed alone
    # moved eval_ms_p75 by 11% (distance between quartiles over ten seeds).
    for key in list(GENERAL_TARGETS)[:size["cases"]]:
        prob = problems["general"][key]
        pool = gen["targets"][key]
        for k, j in pick_strata(rng, GENERAL_CENTERS[key], size["strata"]):
            t = pool["points"][k][j]
            ref = pool["cdf_unknown"][k][j]
            ops.append(eval_op(
                f"cdf_unknown[{key},{t}]",
                lambda t=t, prob=prob: ps.cdf_unknown_variance(*prob, np.array(t, dtype=float)),
                ref, "qmc" if key == "A" else "quad1d"))
            if key == "A":
                sim_checks[("cdf", tuple(t))] = (ref, TOL_QMC)
            if key == "e1":
                ops.append(eval_op(
                    f"density_unknown[{key},{t}]",
                    lambda t=t, prob=prob: ps.density_unknown_variance(*prob, t),
                    pool["density_unknown"][k][j]))
    ops.append(simulate_op(ps, "simulate[general]", problems["general"]["A"], size["general_R"],
                           "unknown", rng.randrange(1 << 31), sim_checks))

    rows = gen["selection_probs"]
    ops.append(cli_op(
        "cli.selection-probs",
        ["selection-probs", "--config", str(CONFIGS / "general_design.ini"),
         "--seed", str(rng.randrange(1 << 31))],
        {"selection_probs.csv": {"p": [r[0] for r in rows], "known": [r[1] for r in rows],
                                 "unknown": [r[2] for r in rows]}},
        tmpdir / "selection_probs"))
    return ops


def _build_unsmoothed_engine(problems, rng, refs, size, tmpdir) -> list[Op]:
    ps = problems["ps"]
    ops = []
    panels = refs["panels"][:size["cases"]]
    for panel in panels:
        th = panel["theta2"]
        _, prob = problems["panels"][th]
        design, family, _, params = prob
        for k, j in pick_strata(rng, PANEL_CENTERS, size["strata"]):
            t = panel["points"][k][j]
            ops.append(eval_op(
                f"cdf_known[{th},{t:g}]",
                lambda t=t, prob=prob: ps.cdf_known_variance(*prob, t),
                panel["cdf_known"][k][j]))
            ops.append(eval_op(
                f"density_known[{th},{t:g}]",
                lambda t=t, prob=prob: ps.density_known_variance(*prob, t),
                panel["density_known"][k][j]))
        for p in family.orders:
            ops.append(eval_op(
                f"selprob_known[{th},{p}]",
                lambda p=p, design=design, family=family, params=params:
                    ps.selection_prob_known(design, family, params, p),
                panel["selprob_known"][p - family.min_order]))

    classic = refs["panels"][PANEL_THETA2.index(0.75)]
    ops.append(simulate_op(
        ps, "simulate[classic,known]", problems["panels"][0.75][1], size["classic_R"], "known",
        rng.randrange(1 << 31), {("freq", 1): (classic["selprob_known"][0], 0.0)}))

    p10_refs = refs["p10"]["designs"][str(problems["p10_seed"])]
    prob = problems["p10"]
    design, family, target, params = prob
    limit = problems["limit"]
    for k, j in pick_strata(rng, P10_CENTERS, size["strata"]):
        t = p10_refs["points"][k][j]
        ops.append(eval_op(f"cdf_known[P10,{t:g}]",
                           lambda t=t: ps.cdf_known_variance(*prob, t),
                           p10_refs["cdf_known"][k][j]))
        ops.append(eval_op(f"density_known[P10,{t:g}]",
                           lambda t=t: ps.density_known_variance(*prob, t),
                           p10_refs["density_known"][k][j]))
        ops.append(eval_op(f"limit_cdf[P10,{t:g}]",
                           lambda t=t: ps.limit_cdf(limit, family, target, t),
                           p10_refs["limit_cdf"][k][j]))
    for p in family.orders:
        i = p - family.min_order
        ops.append(eval_op(f"selprob_known[P10,{p}]",
                           lambda p=p: ps.selection_prob_known(design, family, params, p),
                           p10_refs["selprob_known"][i]))
        ops.append(eval_op(f"limit_selprob[P10,{p}]",
                           lambda p=p: ps.limit_selection_prob(limit, family, p),
                           p10_refs["limit_selprob"][i]))
    ops.append(simulate_op(
        ps, "simulate[P10,known]", prob, size["p10_known_R"], "known", rng.randrange(1 << 31),
        {("freq", p): (p10_refs["selprob_known"][p - family.min_order], 0.0)
         for p in family.orders}))

    loc = problems["local"]
    local_refs = refs["local_alt"]
    for k, j in pick_strata(rng, LOCAL_CENTERS, size["strata"]):
        t = local_refs["points"][k][j]
        ops.append(eval_op(
            f"local_alternative_limit[{t:g}]",
            lambda t=t: ps.local_alternative_limit(
                loc["theta"], loc["gamma"], loc["sigma"], loc["Q"], loc["family"],
                loc["target"], t),
            local_refs["value"][k][j]))
    return ops


def _build_oracle_sim(problems, rng, refs, size, tmpdir) -> list[Op]:
    ps = problems["ps"]
    from postselect import montecarlo

    ops = []
    panel = refs["panels"][PANEL_THETA2.index(problems["n7_theta2"])]
    n7 = problems["n7"]
    family = n7[1]
    R = size["n7_R"]
    emp_points = [(panel["points"][k][j], panel["cdf_unknown"][k][j])
                  for k, j in pick_strata(rng, PANEL_CENTERS, size["strata"])]

    for variant in ("unknown", "known"):
        probs = panel[f"selprob_{variant}"]
        checks = {("freq", p): (probs[p - family.min_order], 0.0) for p in family.orders}
        if variant == "unknown":
            checks.update({("cdf", t): (ref, TOL_1D) for t, ref in emp_points})
        ops.append(simulate_op(ps, f"simulate[n7,{variant}]", n7, R, variant,
                               rng.randrange(1 << 31), checks))

    # The exact selection probabilities of the seeded P = 10 design are the
    # reference for its simulations; computed once, outside the timed rounds.
    design, fam10, _, params = problems["p10"]
    exact = {v: [ps.selection_prob_known(design, fam10, params, p) if v == "known"
                 else ps.selection_prob_unknown(design, fam10, params, p)
                 for p in fam10.orders] for v in ("unknown", "known")}
    for variant in ("unknown", "known"):
        ops.append(simulate_op(
            ps, f"simulate[P10,{variant}]", problems["p10"], size["p10_R"], variant,
            rng.randrange(1 << 31),
            {("freq", p): (exact[variant][p - fam10.min_order], 0.0) for p in fam10.orders}))

    # Kolmogorov-Smirnov distance of the known-scale report to the analytic
    # known-scale cdf: the report's grid, the cdf at every grid point as an
    # evaluation of its own, then the distance from those values.
    def grid(state):
        state["ks_grid"] = ps.ks_grid(state["simulate[n7,known]"], points=size["ks_points"])
        state["ks_cdf"] = {}
        return state["ks_grid"]

    ops.append(Op("ks_grid[n7,known]", "io", grid, lambda g, st: Check(
        ok=len(g) == size["ks_points"] and bool(np.all(np.isfinite(g))))))

    def grid_cdf(state, i):
        t = state["ks_grid"][i]
        res = ps.cdf_known_variance(*n7, t)
        state["ks_cdf"][float(t)] = res.value
        return res

    def check_grid_cdf(res, state):
        # No stored reference for these seeded points: the distance below
        # checks them against the simulation as a whole.
        return Check(ok=bool(res.converged) and 0.0 <= res.value <= 1.0, path="quad1d",
                     nonconverged=not res.converged)

    for i in range(size["ks_points"]):
        ops.append(Op(f"cdf_known[n7,ks{i}]", "eval",
                      lambda state, i=i: grid_cdf(state, i), check_grid_cdf))

    def ks(state):
        values = state["ks_cdf"]

        def cdf(t):
            found = [values[float(x)] for x in np.ravel(t)]
            return found[0] if np.ndim(t) == 0 else np.reshape(found, np.shape(t))

        return ps.ks_distance(state["simulate[n7,known]"], cdf, state["ks_grid"])

    # 3 / sqrt(R) exceeds the sup-distance of a correct simulation with
    # probability ~2 exp(-18).
    ops.append(Op("ks_distance[n7,known]", "io", ks,
                  lambda d, st: Check(ok=0.0 <= d <= 3.0 / math.sqrt(R))))

    def emp(state):
        rep = state["simulate[n7,unknown]"]
        return [ps.empirical_cdf(rep, t) for t, _ in emp_points]

    ops.append(Op("empirical_cdf[n7,unknown]", "io", emp, lambda vals, st: Check(
        ok=all(mc_close(v, ref, R, TOL_1D) for v, (_, ref) in zip(vals, emp_points)))))

    csv_path = tmpdir / "simulation.csv"

    def write(state):
        montecarlo.write_report_csv(state["simulate[n7,unknown]"], csv_path, {"seed": "bench"})
        return csv_path

    def check_csv(path, state):
        rep = state["simulate[n7,unknown]"]
        with open(path) as fh:
            lines = fh.read().splitlines()
        rows = lines[2:]
        if len(rows) != rep.R or lines[1] != "draw_1,selected":
            return Check(ok=False)
        sample = np.random.default_rng(len(rows)).choice(len(rows), size=min(1000, len(rows)),
                                                         replace=False)
        got = np.array([[float(x) for x in rows[i].split(",")] for i in sample])
        ok = (np.allclose(got[:, 0], rep.draws[sample, 0], rtol=1e-15, atol=0.0)
              and np.array_equal(got[:, 1], rep.selected[sample]))
        return Check(ok=bool(ok))

    ops.append(Op("write_report_csv[n7]", "io", write, check_csv))
    return ops

