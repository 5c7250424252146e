"""Run configuration: flat key = value files with bracketed section headers.

The format is deliberately plain (stdlib configparser) so runs are bit-exact
reproducible from a hashable text file.  Two scenarios are supported: the
two-regressor setting parameterized by the joint law of the full-model
estimators, and a general design given by a CSV matrix or a seeded synthetic
draw.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (
    ParameterPoint,
    RegressionDesign,
    SelectionFamily,
    TargetFunctional,
    _integral_n,
    load_design_csv,
)
from .distribution import TwoRegressorSetting

__all__ = ["ConfigError", "RunConfig", "parse_config", "synthetic_design", "config_digest"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration; message names the field."""


def synthetic_design(n: int, P: int, seed: int) -> RegressionDesign:
    """Seeded synthetic design: i.i.d. standard normal entries (Philox stream)."""
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    return RegressionDesign(gen.standard_normal((n, P)))


def config_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _matrix(raw: str) -> np.ndarray:
    rows = [r.strip() for r in raw.split(";") if r.strip()]
    return np.array([[float(tok) for tok in r.split()] for r in rows])


@dataclass
class RunConfig:
    """Validated run configuration.

    ``scenario`` is "two_regressor" or "general_design".  The two-regressor
    block carries (n, rho, sigma1, sigma2, theta2 panels, c2); the general
    block carries the constructed design, parameters, family and target.
    """

    scenario: str
    path: str
    digest: str
    # two-regressor block
    n: int = 0
    rho: float = 0.0
    sigma1: float = 1.0
    sigma2: float = 1.0
    theta2_panels: tuple[float, ...] = ()
    c2: float = 0.0
    theta1: float = 0.0
    # general block
    design: RegressionDesign | None = None
    params: ParameterPoint | None = None
    family: SelectionFamily | None = None
    target: TargetFunctional | None = None
    # run options
    seed: int = 0
    replications: int = 100_000
    grid: tuple[float, float, int] = (-6.0, 6.0, 101)
    variant: str = "unknown"
    out: str = "out"
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    n_list: tuple[int, ...] = ()
    mc_check: bool = False

    def settings(self) -> list[TwoRegressorSetting]:
        if self.scenario != "two_regressor":
            raise ConfigError("scenario: two-regressor settings requested from general config")
        return [
            TwoRegressorSetting(
                rho=self.rho,
                sigma1=self.sigma1,
                sigma2=self.sigma2,
                theta2=t2,
                n=self.n,
                c2=self.c2,
            )
            for t2 in self.theta2_panels
        ]

    def grid_points(self) -> np.ndarray:
        lo, hi, count = self.grid
        return np.linspace(lo, hi, count)


def _require(section, key: str, cast, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key}: missing required field")
    try:
        return cast(section[key])
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from exc


def _optional(section, key: str, cast, where: str, default):
    return _require(section, key, cast, where) if key in section else default


def _check_seed(seed: int, field: str) -> int:
    """``seed`` if it is a Philox key, in [0, 2^128); else a ``ConfigError``
    naming ``field``."""
    if not 0 <= seed < 1 << 128:
        raise ConfigError(f"{field}: must lie in [0, 2^128)")
    return seed


# Largest evaluation grid: a million points is far beyond any plotted curve,
# and a larger COUNT is a typo that would exhaust memory in the grid array.
_MAX_GRID_COUNT = 1_000_000


def _parse_grid(raw: str) -> tuple[float, float, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError("expected LO:HI:COUNT")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("LO and HI must be finite")
    if count < 2 or not lo < hi:
        raise ValueError("need LO < HI and COUNT >= 2")
    if count > _MAX_GRID_COUNT:
        raise ValueError(f"COUNT must be at most {_MAX_GRID_COUNT}")
    return lo, hi, count


def parse_config(path) -> RunConfig:
    """Load and validate a run configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    if "scenario" not in parser:
        raise ConfigError("scenario: missing [scenario] section")
    kind = parser["scenario"].get("kind", "").strip()
    if kind not in ("two_regressor", "general_design"):
        raise ConfigError(f"scenario.kind: must be two_regressor or general_design, got {kind!r}")
    if "model" not in parser:
        raise ConfigError("model: missing [model] section")
    model = parser["model"]

    cfg = RunConfig(scenario=kind, path=str(path), digest=config_digest(path))

    if kind == "two_regressor":
        cfg.n = _require(model, "n", int, "model")
        cfg.rho = _require(model, "rho", float, "model")
        cfg.sigma1 = _optional(model, "sigma1", float, "model", 1.0)
        cfg.sigma2 = _optional(model, "sigma2", float, "model", 1.0)
        cfg.c2 = _require(model, "c2", float, "model")
        cfg.theta1 = _optional(model, "theta1", float, "model", 0.0)
        panels = _require(model, "theta2", _floats, "model")
        if not panels:
            raise ConfigError("model.theta2: need at least one value")
        cfg.theta2_panels = tuple(panels)
        if not abs(cfg.rho) < 1.0:
            raise ConfigError("model.rho: need |rho| < 1")
        for name in ("sigma1", "sigma2", "c2"):
            if not 0.0 < getattr(cfg, name) < math.inf:
                raise ConfigError(f"model.{name}: must be positive and finite")
        if not math.isfinite(cfg.theta1):
            raise ConfigError("model.theta1: must be finite")
        if not all(math.isfinite(t2) for t2 in panels):
            raise ConfigError("model.theta2: every value must be finite")
        if cfg.n <= 2:
            raise ConfigError("model.n: need n > 2")
    else:
        if "design_csv" in model:
            csv_path = Path(model["design_csv"])
            if not csv_path.is_absolute():
                csv_path = path.parent / csv_path
            if not csv_path.exists():
                raise ConfigError(f"model.design_csv: file not found: {csv_path}")
            try:
                cfg.design = load_design_csv(csv_path)
            except Exception as exc:
                raise ConfigError(f"model.design_csv: {exc}") from exc
        else:
            n = _require(model, "n", int, "model")
            P = _require(model, "p", int, "model")
            dseed = _check_seed(
                _optional(model, "design_seed", int, "model", 0), "model.design_seed"
            )
            try:
                cfg.design = synthetic_design(n, P, dseed)
            except Exception as exc:
                raise ConfigError(f"model.n/p: {exc}") from exc
        theta = np.array(_require(model, "theta", _floats, "model"))
        sigma = _require(model, "sigma", float, "model")
        if sigma <= 0.0:
            raise ConfigError("model.sigma: must be positive")
        try:
            cfg.params = ParameterPoint(theta=theta, sigma=sigma)
        except ValueError as exc:
            raise ConfigError(f"model.theta/sigma: {exc}") from exc
        min_order = _require(model, "min_order", int, "model")
        crits = _require(model, "criticals", _floats, "model")
        try:
            cfg.family = SelectionFamily(min_order=min_order, criticals=tuple(crits))
        except ValueError as exc:
            raise ConfigError(f"model.min_order/criticals: {exc}") from exc
        try:
            cfg.target = TargetFunctional(_matrix(_require(model, "a_rows", str, "model")))
        except ValueError as exc:
            raise ConfigError(f"model.a_rows: {exc}") from exc
        if cfg.family.P != cfg.design.P:
            raise ConfigError(
                f"model.criticals: family spans orders up to {cfg.family.P} "
                f"but design has {cfg.design.P} regressors"
            )
        if cfg.target.P != cfg.design.P:
            raise ConfigError("model.a_rows: row width must equal the number of regressors")
        if cfg.params.theta.size != cfg.design.P:
            raise ConfigError("model.theta: length must equal the number of regressors")

    run = parser["run"] if "run" in parser else {}
    try:
        cfg.seed = int(run.get("seed", cfg.seed))
        cfg.replications = int(run.get("replications", cfg.replications))
        if "grid" in run:
            try:
                cfg.grid = _parse_grid(run["grid"])
            except ValueError as exc:
                raise ConfigError(f"run.grid: {exc}") from exc
        cfg.variant = run.get("variant", cfg.variant).strip()
        cfg.out = run.get("out", cfg.out)
        cfg.abs_tol = float(run.get("abs_tol", cfg.abs_tol))
        cfg.rel_tol = float(run.get("rel_tol", cfg.rel_tol))
        if "n_list" in run:
            try:
                cfg.n_list = tuple(_integral_n(x) for x in _floats(run["n_list"]))
            except ValueError as exc:
                raise ConfigError(f"run.n_list: {exc}") from exc
        mc_check = run.get("mc_check", "false").strip().lower()
        if mc_check not in parser.BOOLEAN_STATES:
            raise ConfigError(
                f"run.mc_check: must be true/false, 1/0, yes/no or on/off, got {mc_check!r}"
            )
        cfg.mc_check = parser.BOOLEAN_STATES[mc_check]
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"run: {exc}") from exc
    _check_seed(cfg.seed, "run.seed")
    if any(n <= 2 for n in cfg.n_list):
        raise ConfigError("run.n_list: every n must exceed 2")
    if cfg.variant not in ("known", "unknown"):
        raise ConfigError(f"run.variant: must be known or unknown, got {cfg.variant!r}")
    if cfg.replications < 1:
        raise ConfigError("run.replications: must be >= 1")
    if not (0.0 < cfg.abs_tol < 1.0 and 0.0 < cfg.rel_tol < 1.0):
        raise ConfigError("run.abs_tol/rel_tol: must lie in (0, 1)")
    return cfg
