"""Shared evaluation engine for selected-model mixture distributions.

Both the finite-sample and the large-sample distributions of the transformed
post-selection estimator have the same structure: a sum over candidate orders
p of (conditional component) x (selection weight), where the component of the
lowest order enters as a plain shifted Gaussian cdf times a product of
interval probabilities, and every higher order contributes a Gaussian region
integral whose integrand removes the mass on which the order-p test accepts.
Every interval probability is integrated against the law of the scale ratio
s = sigma_hat/sigma: the scaled-chi law for the data-driven selector, the
point mass at s = 1 for the known scale.  The two variants differ only in
that law: weights, rejection terms and the breakpoints of the outer rule all
go through one law object per order (``kernels.ScaleSmoother`` or
``kernels.PointScale``), whose weight is the product of the acceptance
probabilities of the orders above.

The engine takes the Cholesky factor L of a Gram matrix Q, sigma and a
rescaled parameter psi, and derives p_star(psi) and, per order p from there,
from one vector m = L'psi the test (sigma xi_p, center m_{p-1} xi_p, c_p)
and, with a target A, from one solve W = L^{-1} A' the component (shift
``model.order_shift``, factor F by ``model.order_fit``) and how the tested
coefficient loads on it: for z = shift + F w the coefficient is its center
plus sigma (a'w + zeta Z), with a and zeta from the fit.  Region integrals
read y = sigma a'w and densities read F; nothing is factorized again.  The
finite-sample case is psi = sqrt(n) theta, Q = X'X/n; the limit case is the
limit psi and Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .kernels import (
    _WINDOW,
    DEFAULT_SPEC,
    PointScale,
    QuadResult,
    QuadratureSpec,
    ScaleSmoother,
    _as_point,
    _region_integral,
    delta,
)
from .model import (
    GaussianComponent,
    SelectionFamily,
    order_fit,
    order_operator,
    order_shift,
    xi_from_factor,
)

__all__ = ["DistributionResult", "MixtureEngine", "p_star"]


def p_star(psi, family: SelectionFamily) -> int:
    """Largest tested order whose rescaled coefficient diverges (else the minimal order)."""
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    out = family.min_order
    for p in range(family.min_order + 1, family.P + 1):
        if math.isinf(psi[p - 1]):
            out = p
    return out


def _accept_all(tests, s):
    """Probability that every test (scale d, center c, critical k) in
    ``tests`` accepts at residual scale s: the product of P(|M - c| < s k d)
    for M ~ N(0, d^2).  A module function, not an engine method, so that a
    scale law weighted by it does not hold the engine that caches the law in
    a reference cycle, which would leave every engine to the cyclic garbage
    collector."""
    out = 1.0 if np.isscalar(s) else np.ones_like(np.asarray(s, dtype=float))
    for d, c, k in tests:
        out = out * delta(d, c, s * k * d)
    return out


@dataclass(frozen=True, eq=False)
class DistributionResult:
    """A cdf or density evaluation with its per-order decomposition.

    ``per_model_terms[i]`` is the weighted contribution of candidate order
    min_order + i; ``value`` is their sum (clipped to [0, 1] for cdfs).
    ``err_est`` aggregates quadrature error estimates; ``converged`` is False
    if any underlying quadrature failed to meet its tolerance.
    """

    value: float
    per_model_terms: np.ndarray
    err_est: float
    converged: bool = True


class MixtureEngine:
    """Evaluator bound to one (factor, sigma, family, psi, target) problem.

    ``factor`` is the lower Cholesky factor of the Gram matrix (``gram_factor``)
    and ``psi`` the rescaled parameter; orders below ``p_lo = p_star(psi)``
    carry no mass.  ``h_df`` selects the law of the residual scale ratio, and
    with it the variant: None is the point mass at s = 1 (the known-scale
    forms, all interval probabilities at unit residual scale), an integer m
    the scaled-chi law with m degrees of freedom (the data-driven forms).  The
    choice is made once, in ``smoother``; every other method reads the law.
    """

    def __init__(
        self,
        factor: np.ndarray,
        sigma: float,
        family: SelectionFamily,
        psi,
        A: np.ndarray | None = None,
        h_df: int | None = None,
    ) -> None:
        self.factor = np.asarray(factor, dtype=float)
        self.sigma = float(sigma)
        self.family = family
        self.P = family.P
        if self.factor.shape != (self.P, self.P):
            raise ValueError("factor shape inconsistent with family")
        psi = np.atleast_1d(np.asarray(psi, dtype=float))
        if psi.shape != (self.P,) or np.isnan(psi).any():
            raise ValueError("psi must be a length-P vector of reals or +-inf")
        self.p_lo = p_star(psi, family)
        self.A = None if A is None else np.atleast_2d(np.asarray(A, dtype=float))
        if h_df is not None and h_df < 1:
            raise ValueError("h_df must be >= 1")
        self.h_df = h_df
        # (test, component, fit) per order from p_lo on; the test (sigma xi_p,
        # center, c_p) accepts when the scaled estimate lies within s c_p sigma
        # xi_p of its center (None at p_lo); the rest is None without a target.
        # m[p_lo:] reads psi[p_lo:] only, which is finite
        m = self.factor.T @ np.where(np.arange(self.P) < self.p_lo, 0.0, psi)
        W = None if self.A is None else order_operator(self.factor, self.A)
        self._orders: dict[int, tuple] = {}
        for p in range(self.p_lo, self.P + 1):
            test = comp = fit = None
            if p > self.p_lo:
                xi_p = xi_from_factor(self.factor, p)
                test = (self.sigma * xi_p, float(m[p - 1] * xi_p), family.critical(p))
            if W is not None:
                fit = order_fit(self.factor, self.A, W, p)
                comp = fit.component(self.sigma, order_shift(W, m, p))
            self._orders[p] = (test, comp, fit)
        # the one lazily filled cache: a weights-only call reads one order's law
        self._smoothers: dict[int, ScaleSmoother | PointScale] = {}

    def component(self, p: int) -> GaussianComponent:
        comp = self._orders[p][1]
        if comp is None:
            raise ValueError("engine built without a target transform")
        return comp

    # -- interval probabilities ---------------------------------------------

    def _tests_above(self, p: int) -> tuple:
        return tuple(self._orders[q][0] for q in range(p + 1, self.P + 1))

    def gamma_tail(self, p: int, s):
        """Product of acceptance probabilities for all orders above p."""
        return _accept_all(self._tests_above(p), s)

    # -- scale smoothing -------------------------------------------------------

    def smoother(self, p: int) -> ScaleSmoother | PointScale:
        """Scale law of order p, weighted by gamma_tail(p, .): the point mass
        at s = 1 for the known scale, else the scaled-chi law."""
        if p not in self._smoothers:
            g = partial(_accept_all, self._tests_above(p))
            self._smoothers[p] = PointScale(g) if self.h_df is None else ScaleSmoother(self.h_df, g)
        return self._smoothers[p]

    def _smoothed_reject(self, p: int, u, v: float) -> np.ndarray:
        """int P(|u + v Z| >= s c_p sigma xi_p) gamma_tail(p, s) law(ds)."""
        d, _, c = self._orders[p][0]
        return self.smoother(p).reject(u, v, c * d)

    # -- selection weights ---------------------------------------------------

    def weight(self, p: int, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
        """Mass of candidate order p (its selection probability; 0 below p_lo)."""
        if not self.family.min_order <= p <= self.P:
            raise ValueError(f"order {p} outside [{self.family.min_order}, {self.P}]")
        if p < self.p_lo:
            return QuadResult(0.0, 0.0, True)
        smoother = self.smoother(p)
        if p == self.p_lo:
            val = smoother.mass()
        else:
            d, center, _ = self._orders[p][0]
            val = float(self._smoothed_reject(p, center, d))
        return QuadResult(val, smoother.err_est, smoother.converged(spec))

    # -- cdf terms ------------------------------------------------------------

    def term_cdf(self, p: int, t, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
        """Weighted contribution of order p to the cdf at t."""
        comp = self.component(p)
        t = _as_point(t, comp.k)
        if p == self.p_lo:
            w = self.weight(p, spec)
            base = _region_integral(comp, t, None, None, spec)
            return QuadResult(
                base.value * w.value,
                base.err_est + w.err_est,
                base.converged and w.converged,
            )

        (d, center, c), _, fit = self._orders[p]
        # The integrand reads the tested coefficient u = center + y + sigma
        # zeta Z, y = sigma a'w, through y alone, and varies fast only in
        # windows of half-width 9 sigma zeta around the edges of the scale law
        # (|u| = c_p sigma xi_p at known scale, u = 0 when data driven); at
        # zeta = 0 they close to a jump or a kink.  Their edges, as values of
        # y, are the breakpoints of the outer rule.
        smoother = self.smoother(p)
        v = self.sigma * math.sqrt(fit.zeta_sq)
        reach = _WINDOW * v
        outer = _region_integral(
            comp, t, lambda y: self._smoothed_reject(p, y + center, v), self.sigma * fit.a,
            spec, [e - center + r for e in smoother.edges(c * d) for r in (-reach, reach)],
        )
        return QuadResult(
            outer.value, outer.err_est + smoother.err_est,
            outer.converged and smoother.converged(spec),
        )

    # -- density terms ----------------------------------------------------------

    def term_density(self, p: int, t, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
        """Weighted contribution of order p to the density at t."""
        comp = self.component(p)
        t = _as_point(t, comp.k)
        if comp.rank < comp.k:
            raise ValueError("degenerate covariance: density undefined")
        # F's columns are orthogonal, so t = shift + F w solves to w = F'x / |F_j|^2
        F = comp.factor
        col_sq = np.einsum("ij,ij->j", F, F)
        w = (t - comp.mean_shift) @ F / col_sq
        pdf = float(np.exp(-0.5 * (w @ w)) / np.prod(np.sqrt(2.0 * math.pi * col_sq)))
        if p == self.p_lo:
            wt = self.weight(p, spec)
            return QuadResult(pdf * wt.value, pdf * wt.err_est, wt.converged)
        (_, center, _), _, fit = self._orders[p]
        u = self.sigma * float(fit.a @ w) + center
        val = float(self._smoothed_reject(p, u, self.sigma * math.sqrt(fit.zeta_sq)))
        smoother = self.smoother(p)
        return QuadResult(val * pdf, smoother.err_est * pdf, smoother.converged(spec))

    # -- assembly -----------------------------------------------------------------

    def _assemble(self, term, t, spec: QuadratureSpec, clip_unit: bool) -> DistributionResult:
        """Sum ``term(p, t, spec)`` over the candidate orders."""
        terms = np.zeros(self.P - self.family.min_order + 1)
        err = 0.0
        ok = True
        for p in range(self.p_lo, self.P + 1):
            res = term(p, t, spec)
            terms[p - self.family.min_order] = res.value
            err += res.err_est
            ok = ok and res.converged
        total = float(terms.sum())
        value = min(max(total, 0.0), 1.0) if clip_unit else max(total, 0.0)
        return DistributionResult(value=value, per_model_terms=terms, err_est=err, converged=ok)

    def cdf(self, t, spec: QuadratureSpec = DEFAULT_SPEC) -> DistributionResult:
        return self._assemble(self.term_cdf, t, spec, clip_unit=True)

    def density(self, t, spec: QuadratureSpec = DEFAULT_SPEC) -> DistributionResult:
        return self._assemble(self.term_density, t, spec, clip_unit=False)
