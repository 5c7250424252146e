"""Exact finite-sample distributions of the transformed post-selection estimator.

The object of interest is sqrt(n) A (theta_tilde - theta), where theta_tilde
fits by restricted least squares in the selected model.  Its cdf is a sum
over candidate orders of weighted conditional components; the lowest order
contributes a shifted Gaussian cdf times acceptance probabilities, every
higher order a Gaussian region integral whose integrand carries the rejection
probability of that order's test.  ``finite_sample_engine`` builds the one
mixture engine at psi = sqrt(n) theta with Q = X'X/n, the same constructor
the large-sample limits use.  The two variants differ only in the law of the
residual scale ratio against which the interval probabilities are
integrated: the scaled-chi law for the data-driven (estimated scale)
selector (``kernels.ScaleSmoother``), the point mass at s = 1 for the known
scale (``kernels.PointScale``); ``finite_sample_engine`` picks the law
through ``h_df``.

A two-regressor closed form (one protected regressor, one tested regressor,
scalar target = first coefficient) is provided both as a fast path and as an
independent cross-check of the general machinery.  Its independence lies in
the closed form in (rho, sigma1, sigma2); its scale integrals use the same
two laws as the engine, with the weight g = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import (
    DEFAULT_SPEC,
    PointScale,
    QuadResult,
    QuadratureSpec,
    ScaleSmoother,
    _require_no_nan,
    norm_pdf,
)
from .mixture import DistributionResult, MixtureEngine
from .model import (
    ParameterPoint,
    RegressionDesign,
    SelectionFamily,
    TargetFunctional,
    _integral_n,
    design_from_gram,
)

__all__ = [
    "DensityUndefinedError",
    "DistributionResult",
    "TwoRegressorSetting",
    "finite_sample_engine",
    "cdf_known_variance",
    "cdf_unknown_variance",
    "density_known_variance",
    "density_unknown_variance",
    "weighted_conditional_cdf",
    "two_regressor_density",
]

_VARIANTS = ("known", "unknown")


class DensityUndefinedError(ValueError):
    """The distribution has no Lebesgue density for this target transform."""


def finite_sample_engine(
    design: RegressionDesign,
    family: SelectionFamily,
    target: TargetFunctional | None,
    params: ParameterPoint,
    variant: str,
) -> MixtureEngine:
    """Mixture engine of the finite-sample distribution: the engine at
    psi = sqrt(n) theta on the factor of X'X/n.

    With ``target=None`` the engine evaluates only the selection weights.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    if family.P != design.P:
        raise ValueError("family order range inconsistent with design")
    if params.theta.size != design.P:
        raise ValueError("theta length inconsistent with design")
    psi = math.sqrt(design.n) * params.theta
    A = None if target is None else target.A
    h_df = None if variant == "known" else design.n - design.P
    return MixtureEngine(design.factor, params.sigma, family, psi, A=A, h_df=h_df)


def cdf_known_variance(
    design, family, target, params, t, spec: QuadratureSpec = DEFAULT_SPEC
) -> DistributionResult:
    """Cdf of the transformed estimator under the known-scale selector."""
    return finite_sample_engine(design, family, target, params, "known").cdf(t, spec)


def cdf_unknown_variance(
    design, family, target, params, t, spec: QuadratureSpec = DEFAULT_SPEC
) -> DistributionResult:
    """Cdf of the transformed estimator under the data-driven selector."""
    return finite_sample_engine(design, family, target, params, "unknown").cdf(t, spec)


def _density_engine(design, family, target, params, variant: str) -> MixtureEngine:
    """``finite_sample_engine`` of a distribution that has a Lebesgue density."""
    if family.min_order == 0:
        raise DensityUndefinedError(
            "minimal order 0 puts an atom at the origin: no Lebesgue density"
        )
    engine = finite_sample_engine(design, family, target, params, variant)
    # psi is finite, so the mixture starts at the minimal order
    if engine.component(family.min_order).rank < target.k:
        raise DensityUndefinedError(
            "leading transform block is rank deficient: some components are degenerate"
        )
    return engine


def density_known_variance(
    design, family, target, params, t, spec: QuadratureSpec = DEFAULT_SPEC
) -> DistributionResult:
    """Density of the transformed estimator under the known-scale selector."""
    return _density_engine(design, family, target, params, "known").density(t, spec)


def density_unknown_variance(
    design, family, target, params, t, spec: QuadratureSpec = DEFAULT_SPEC
) -> DistributionResult:
    """Density of the transformed estimator under the data-driven selector."""
    return _density_engine(design, family, target, params, "unknown").density(t, spec)


def weighted_conditional_cdf(
    design,
    family,
    target,
    params,
    p: int,
    t,
    variant: str = "unknown",
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> DistributionResult:
    """Single order-p term of the cdf: conditional cdf times selection weight.

    Its total mass as t -> infinity is the order-p selection probability.
    """
    engine = finite_sample_engine(design, family, target, params, variant)
    if not family.min_order <= p <= family.P:
        raise ValueError(f"order {p} outside [{family.min_order}, {family.P}]")
    res = engine.term_cdf(p, t, spec)
    terms = np.zeros(family.P - family.min_order + 1)
    terms[p - family.min_order] = res.value
    return DistributionResult(
        value=min(max(res.value, 0.0), 1.0),
        per_model_terms=terms,
        err_est=res.err_est,
        converged=res.converged,
    )


@dataclass(frozen=True)
class TwoRegressorSetting:
    """One protected and one tested regressor; target = first coefficient.

    Parameterized by the joint law of the full-model estimators: sigma1 and
    sigma2 are the standard deviations of the two scaled coefficient
    estimates, rho their correlation.  The distribution of the scaled first
    coefficient after selection depends on the model only through these,
    theta2, n and the threshold c2.
    """

    rho: float
    sigma1: float
    sigma2: float
    theta2: float
    n: int
    c2: float

    def __post_init__(self) -> None:
        if not abs(self.rho) < 1.0:
            raise ValueError("need |rho| < 1")
        if not (0.0 < self.sigma1 < np.inf and 0.0 < self.sigma2 < np.inf):
            raise ValueError("sigma1, sigma2 must be positive and finite")
        if not math.isfinite(self.theta2):
            raise ValueError("theta2 must be finite")
        object.__setattr__(self, "n", _integral_n(self.n))
        if self.n <= 2:
            raise ValueError("need n > 2")
        if not (0.0 < self.c2 < np.inf):
            raise ValueError("c2 must be positive and finite")

    @cached_property
    def estimator_covariance(self) -> np.ndarray:
        off = self.rho * self.sigma1 * self.sigma2
        return np.array([[self.sigma1**2, off], [off, self.sigma2**2]])

    def components(self, theta1: float = 0.0, seed: int = 0):
        """Equivalent general-model objects (design, family, target, params).

        The error scale is normalized to one, so the Gram matrix is the
        inverse of the estimator covariance; the design holds it and n only
        (no X).  ``seed`` has no effect; it is kept for compatibility.
        """
        gram = np.linalg.inv(self.estimator_covariance)
        design = design_from_gram(self.n, gram, seed=seed)
        family = SelectionFamily(min_order=1, criticals=(self.c2,))
        target = TargetFunctional(np.array([[1.0, 0.0]]))
        params = ParameterPoint(theta=np.array([theta1, self.theta2]), sigma=1.0)
        return design, family, target, params


def two_regressor_density(
    setting: TwoRegressorSetting,
    variant: str,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Closed-form density of the scaled first coefficient after selection.

    ``variant``: "known" and "unknown" give the unconditional densities under
    the known-scale and data-driven selectors; "cond_m1" and "cond_m2" give
    the known-scale densities conditional on selecting the restricted and the
    full model.
    """
    return float(_two_regressor_density(setting, variant, t, spec).value)


def _two_regressor_density(
    setting: TwoRegressorSetting,
    variant: str,
    t,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadResult:
    """``two_regressor_density`` at every point of ``t`` (any shape), with the
    error estimate and convergence flag of its scale integrals (exact forms
    report 0 and True).  ``value`` and ``err_est`` have the shape of ``t``."""
    if variant not in ("known", "unknown", "cond_m1", "cond_m2"):
        raise ValueError("variant must be one of: known, unknown, cond_m1, cond_m2")
    _require_no_nan(t)
    t = np.asarray(t, dtype=float)
    rho, s1, s2, c2 = setting.rho, setting.sigma1, setting.sigma2, setting.c2
    a = math.sqrt(setting.n) * setting.theta2 / s2
    root = math.sqrt(1.0 - rho * rho)
    # density of the order-1 fit (narrower) and the full fit, at their shifts
    phi_restricted = norm_pdf((t + a * rho * s1) / (s1 * root)) / (s1 * root)
    phi_full = norm_pdf(t / s1) / s1
    # the order-2 test rejects at scale s when |drop_center + Z| >= s c2 / root
    drop_center = (a + rho * t / s1) / root

    law = ScaleSmoother(setting.n - 2) if variant == "unknown" else PointScale()
    keep = law.mass() - float(law.reject(a, 1.0, c2))
    drop = law.reject(drop_center, 1.0, c2 / root)
    if variant == "cond_m1":
        value = phi_restricted
    elif variant == "cond_m2":
        value = phi_full * drop / (1.0 - keep)
    else:
        value = phi_restricted * keep + phi_full * drop
    return QuadResult(value, (phi_restricted + phi_full) * law.err_est, law.converged(spec))
