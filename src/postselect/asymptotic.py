"""Large-sample limits of the post-selection distributions.

Along parameter sequences whose rescaled coefficients sqrt(n) theta^(n)
converge in the extended reals to psi, the finite-sample cdfs converge to a
mixture of the same structure, driven by the Gram limit Q, the limit scale
sigma, and psi.  The mixture starts at p_star, the largest tested order whose
rescaled coefficient diverges; orders below it lose all selection mass.
Infinite entries of psi are encoded as IEEE infinities, never as large finite
sentinels, because the limit formulas branch structurally on infiniteness.

The limit engine is the finite-sample engine's constructor
(``mixture.MixtureEngine``) at the limit psi and Q instead of psi = sqrt(n)
theta and Q = X'X/n, with the point mass s = 1 in place of the chi law of
the residual scale; ``p_star`` lives in ``mixture`` and is re-exported here.

Fixed-parameter limits are the special case psi in {0, +-inf}^P; local
alternatives theta + gamma/sqrt(n) give psi entries gamma_j at the orders
where theta vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distribution import DistributionResult, finite_sample_engine
from .kernels import DEFAULT_SPEC, QuadratureSpec
from .mixture import MixtureEngine, p_star
from .model import (
    ParameterPoint,
    RegressionDesign,
    SelectionFamily,
    TargetFunctional,
    _checked_gram,
    _readonly,
    order_operator,
    order_shift,
)

__all__ = [
    "LimitParameter",
    "p_star",
    "limit_bias",
    "limit_engine",
    "limit_cdf",
    "limit_selection_prob",
    "local_alternative_limit",
    "local_shift_vector",
    "recentered_cdf",
]


@dataclass(frozen=True, eq=False)
class LimitParameter:
    """Limit of rescaled parameters: psi in (R u {-inf, inf})^P, sigma, Gram limit Q.

    Q passes the check of ``design_from_gram`` (finite, symmetric, with a
    Cholesky factor); ``factor`` is that lower Cholesky factor.
    """

    psi: np.ndarray
    sigma: float
    Q: np.ndarray
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        psi = np.atleast_1d(np.asarray(self.psi, dtype=float))
        if psi.ndim != 1 or np.any(np.isnan(psi)):
            raise ValueError("psi must be a vector of reals or +-inf")
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive and finite")
        if np.atleast_2d(self.Q).shape != (psi.size, psi.size):
            raise ValueError("Q shape inconsistent with psi")
        Q, factor = _checked_gram(self.Q, "Q")
        object.__setattr__(self, "psi", _readonly(psi))
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "factor", factor)

    @property
    def P(self) -> int:
        return self.psi.size

    @classmethod
    def from_design(cls, design: RegressionDesign, psi, sigma: float) -> "LimitParameter":
        return cls(psi=psi, sigma=sigma, Q=design.gram)


def limit_bias(limit: LimitParameter, p: int) -> np.ndarray:
    """Limit of the scaled bias of the order-p restricted fit.

    Defined whenever all entries of psi above order p are finite; otherwise
    infinite entries would enter and the bias diverges.
    """
    if not 0 <= p <= limit.P:
        raise ValueError(f"order {p} outside [0, {limit.P}]")
    tail = limit.psi[p:]
    if np.any(np.isinf(tail)):
        raise ValueError(f"bias at order {p} undefined: divergent entries above p")
    L, psi = limit.factor, np.where(np.arange(limit.P) < p, 0.0, limit.psi)
    return order_shift(order_operator(L, np.eye(limit.P)), L.T @ psi, p)


def limit_engine(
    limit: LimitParameter,
    family: SelectionFamily,
    target: TargetFunctional | None,
) -> MixtureEngine:
    """Mixture engine of the limit distribution: the engine at ``limit.psi``
    on the factor of ``limit.Q``, with no residual-scale smoothing."""
    if family.P != limit.P:
        raise ValueError("family order range inconsistent with psi")
    if target is not None and target.P != limit.P:
        raise ValueError("target transform width inconsistent with psi")
    return MixtureEngine(
        limit.factor, limit.sigma, family, limit.psi, A=None if target is None else target.A
    )


def limit_cdf(
    limit: LimitParameter,
    family: SelectionFamily,
    target: TargetFunctional,
    t,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> DistributionResult:
    """Limit cdf of the transformed post-selection estimator.

    Component terms below p_star are zero; orders at and above it carry the
    limit biases as mean shifts and the limit interval centers in the
    acceptance probabilities.
    """
    return limit_engine(limit, family, target).cdf(t, spec)


def limit_selection_prob(limit: LimitParameter, family: SelectionFamily, p: int) -> float:
    """Limit of the selection probability of order p (zero below p_star)."""
    return limit_engine(limit, family, None).weight(p).value


def local_shift_vector(theta, gamma) -> np.ndarray:
    """psi for local alternatives theta + gamma/sqrt(n).

    Coordinates with nonzero theta diverge (signed infinity); the rest carry
    the finite local shifts gamma.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    if theta.shape != gamma.shape:
        raise ValueError("theta and gamma must have the same length")
    with np.errstate(invalid="ignore"):
        diverging = np.sign(theta) * np.inf
    return np.where(theta != 0.0, diverging, gamma)


def local_alternative_limit(
    theta,
    gamma,
    sigma: float,
    Q,
    family: SelectionFamily,
    target: TargetFunctional,
    t,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> DistributionResult:
    """Limit cdf along theta + gamma/sqrt(n) (gamma = 0 gives the fixed-theta limit)."""
    limit = LimitParameter(psi=local_shift_vector(theta, gamma), sigma=sigma, Q=Q)
    return limit_cdf(limit, family, target, t, spec)


def recentered_cdf(
    design: RegressionDesign,
    family: SelectionFamily,
    target: TargetFunctional,
    params: ParameterPoint,
    d,
    t,
    spec: QuadratureSpec = DEFAULT_SPEC,
    variant: str = "unknown",
) -> DistributionResult:
    """Cdf of the estimator centered at d instead of theta (argument shift).

    Divergent centering shifts push all mass to one side: as the shift grows
    in a coordinate, the value at fixed t tends to 1 (or 0 from the other
    side).
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if d.shape != params.theta.shape:
        raise ValueError("d must have the same length as theta")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (target.k,):
        raise ValueError(f"t must have length {target.k}")
    shifted = t + math.sqrt(design.n) * (target.A @ (d - params.theta))
    return finite_sample_engine(design, family, target, params, variant).cdf(shifted, spec)
