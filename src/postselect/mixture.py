"""Shared evaluation engine for selected-model mixture distributions.

Both the finite-sample and the large-sample distributions of the transformed
post-selection estimator have the same structure: a sum over candidate orders
p of (conditional component) x (selection weight), where the component of the
lowest order enters as a plain shifted Gaussian cdf times a product of
interval probabilities, and every higher order contributes a Gaussian region
integral whose integrand removes the mass on which the order-p test accepts.
The unknown-scale variant smooths every interval probability against the
scaled-chi law of the residual scale estimate.

The engine is parameterized by the Cholesky factor of the Gram matrix, the
interval centers, and the component mean shifts, so the finite-sample case
(centers sqrt(n) eta_p(p), shifts sqrt(n) A (eta(p) - theta)) and the limit
case (centers delta_p + psi_p, shifts A delta(p)) share all code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import integrate

from .kernels import (
    DEFAULT_SPEC,
    QuadResult,
    QuadratureSpec,
    chi_scaled_density,
    chi_scaled_quantile,
    delta,
    gaussian_density,
    gaussian_region_prob,
    integrate_against_h,
)
from .model import (
    GaussianComponent,
    SelectionFamily,
    _numerical_rank,
    component_covariance,
    conditional_from_factor,
    xi_from_factor,
)

__all__ = ["DistributionResult", "MixtureEngine"]


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
    """Evaluator bound to one (factor, sigma, family, target, centers, shifts) tuple.

    ``factor`` is the lower Cholesky factor of the Gram matrix (``gram_factor``).
    ``h_df`` selects the variant: None evaluates the known-scale forms (all
    interval probabilities at unit residual scale), an integer m smooths them
    against the scaled-chi density with m degrees of freedom.
    """

    def __init__(
        self,
        factor: np.ndarray,
        sigma: float,
        family: SelectionFamily,
        p_lo: int,
        center_args: Mapping[int, float],
        shifts: Mapping[int, np.ndarray] | None = None,
        A: np.ndarray | None = None,
        h_df: int | None = None,
    ) -> None:
        self.factor = np.asarray(factor, dtype=float)
        self.sigma = float(sigma)
        self.family = family
        self.P = family.P
        if self.factor.shape != (self.P, self.P):
            raise ValueError("factor shape inconsistent with family")
        if not family.min_order <= p_lo <= self.P:
            raise ValueError("p_lo outside the candidate range")
        self.p_lo = int(p_lo)
        self.center_args = {int(q): float(center_args[q]) for q in range(p_lo + 1, self.P + 1)}
        self.A = None if A is None else np.atleast_2d(np.asarray(A, dtype=float))
        self.shifts = None
        if shifts is not None:
            self.shifts = {
                int(p): np.atleast_1d(np.asarray(shifts[p], dtype=float))
                for p in range(p_lo, self.P + 1)
            }
        self.h_df = None if h_df is None else int(h_df)
        if self.h_df is not None and self.h_df < 1:
            raise ValueError("h_df must be >= 1")
        self._xi = {q: xi_from_factor(self.factor, q) for q in range(p_lo + 1, self.P + 1)}
        self._cond: dict[int, tuple[np.ndarray, float]] = {}
        self._comp: dict[int, GaussianComponent] = {}
        self._weight_cache: dict[tuple, QuadResult] = {}
        self._cum_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- derived quantities ------------------------------------------------

    def xi_at(self, q: int) -> float:
        return self._xi[q]

    def _conditional(self, p: int) -> tuple[np.ndarray, float]:
        """(regression row b, conditional scale zeta) of order p."""
        if p not in self._cond:
            if self.A is None:
                raise ValueError("engine built without a target transform")
            _, b, zeta_sq = conditional_from_factor(self.factor, self.A, p)
            self._cond[p] = (b, math.sqrt(zeta_sq))
        return self._cond[p]

    def component(self, p: int) -> GaussianComponent:
        if p not in self._comp:
            if self.A is None or self.shifts is None:
                raise ValueError("engine built without a target transform")
            cov = component_covariance(self.factor, self.A, self.sigma, p)
            rank = _numerical_rank(self.A[:, :p])
            self._comp[p] = GaussianComponent(
                mean_shift=self.shifts[p], covariance=cov, rank=rank
            )
        return self._comp[p]

    # -- interval probabilities ---------------------------------------------

    def gamma(self, q: int, s):
        """Probability that the order-q test accepts, at residual scale s."""
        sxi = self.sigma * self._xi[q]
        return delta(sxi, self.center_args[q], s * self.family.critical(q) * sxi)

    def gamma_tail(self, p: int, s):
        """Product of acceptance probabilities for all orders above p."""
        out = 1.0 if np.isscalar(s) else np.ones_like(np.asarray(s, dtype=float))
        for q in range(p + 1, self.P + 1):
            out = out * self.gamma(q, s)
        return out

    def _reject_given(self, p: int, u, s):
        """Probability that the order-p test rejects, given regression value u."""
        _, zeta = self._conditional(p)
        width = s * self.family.critical(p) * self.sigma * self.xi_at(p)
        return 1.0 - delta(self.sigma * zeta, u, width)

    def _tail_cumulative(self, p: int):
        """Fine-grid cumulative of gamma_tail(p, s) h(s) ds, for degenerate orders.

        When the conditional scale of order p vanishes, the smoothed rejection
        probability given regression value u reduces to the integral of the
        acceptance tail product over s <= |u| / (c_p sigma xi_p); this caches
        that cumulative on a dense grid (trapezoid error ~1e-8, well inside
        the QMC tolerance it serves).
        """
        if p not in self._cum_cache:
            s_lo = chi_scaled_quantile(self.h_df, 1e-14)
            s_hi = chi_scaled_quantile(self.h_df, 1.0 - 1e-14)
            grid = np.linspace(s_lo, s_hi, 16_385)
            vals = self.gamma_tail(p, grid) * chi_scaled_density(self.h_df, grid)
            cum = np.concatenate(([0.0], integrate.cumulative_trapezoid(vals, grid)))
            self._cum_cache[p] = (grid, cum)
        return self._cum_cache[p]

    def _smoothed_reject(self, p: int, u, inner_spec: QuadratureSpec) -> QuadResult:
        """int (1 - accept_p(u, s)) gamma_tail(p, s) h(s) ds over the scale law.

        ``u`` may be a scalar or a batch; batches share one adaptive
        subdivision.  The degenerate case (zero conditional scale) is a step
        function in s and is evaluated as an incomplete integral of the tail
        product instead of being fed to the adaptive rule.
        """
        _, zeta = self._conditional(p)
        width_unit = self.family.critical(p) * self.sigma * self.xi_at(p)
        if zeta == 0.0:
            x = np.abs(np.asarray(u, dtype=float)) / width_unit
            if x.ndim == 0:
                s_lo = chi_scaled_quantile(self.h_df, 1e-14)
                s_hi = chi_scaled_quantile(self.h_df, 1.0 - 1e-14)
                ub = min(float(x), s_hi)
                if ub <= s_lo:
                    return QuadResult(0.0, 2e-14, True)
                out = integrate.quad(
                    lambda s: float(self.gamma_tail(p, s)) * chi_scaled_density(self.h_df, s),
                    s_lo,
                    ub,
                    epsabs=inner_spec.abs_tol,
                    epsrel=inner_spec.rel_tol,
                    limit=inner_spec.subdivision_limit,
                    full_output=1,
                )
                return QuadResult(float(out[0]), float(out[1]) + 2e-14, len(out) < 4)
            grid, cum = self._tail_cumulative(p)
            return QuadResult(np.interp(x, grid, cum), 1e-8, True)
        if np.ndim(u) == 0:
            f = lambda s: self._reject_given(p, float(u), s) * self.gamma_tail(p, s)
            return integrate_against_h(f, self.h_df, inner_spec)
        f = lambda s: self._reject_given(p, u, s) * self.gamma_tail(p, s)
        return integrate_against_h(f, self.h_df, inner_spec, vectorized=True)

    # -- selection weights ---------------------------------------------------

    def weight(self, p: int, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
        """Mass of candidate order p (its selection probability)."""
        if not self.p_lo <= p <= self.P:
            raise ValueError(f"order {p} outside [{self.p_lo}, {self.P}]")
        key = (p, spec.abs_tol, spec.rel_tol)
        if key in self._weight_cache:
            return self._weight_cache[key]
        if self.h_df is None:
            if p == self.p_lo:
                val = float(self.gamma_tail(self.p_lo, 1.0))
            else:
                val = float((1.0 - self.gamma(p, 1.0)) * self.gamma_tail(p, 1.0))
            res = QuadResult(val, 0.0, True)
        else:
            if p == self.p_lo:
                f = lambda s: self.gamma_tail(self.p_lo, s)
            else:
                f = lambda s: (1.0 - self.gamma(p, s)) * self.gamma_tail(p, s)
            res = integrate_against_h(f, self.h_df, spec)
        self._weight_cache[key] = res
        return res

    # -- cdf terms ------------------------------------------------------------

    def term_cdf(self, p: int, t, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
        """Weighted contribution of order p to the cdf at t."""
        comp = self.component(p)
        if p == self.p_lo:
            w = self.weight(p, spec)
            base = gaussian_region_prob(comp, t, None, spec)
            return QuadResult(
                base.value * w.value,
                base.err_est + w.err_est,
                base.converged and w.converged,
            )

        b, _ = self._conditional(p)
        shift = self.shifts[p]
        center = self.center_args[p]

        if self.h_df is None:
            tail = float(self.gamma_tail(p, 1.0))

            def integrand(zb: np.ndarray) -> np.ndarray:
                u = (zb - shift) @ b + center
                return self._reject_given(p, u, 1.0) * tail

            return gaussian_region_prob(comp, t, integrand, spec)

        # inner tolerance 10x tighter than whichever outer path will run:
        # the 1-D adaptive rule for scalar nonsingular components, else QMC
        one_dim = comp.k == 1 and comp.rank == 1 and comp.covariance[0, 0] > 0.0
        if one_dim:
            inner_spec = spec.tightened()
        else:
            qtol = spec.qmc_tol / 10.0
            inner_spec = QuadratureSpec(
                abs_tol=qtol,
                rel_tol=qtol,
                max_nodes=spec.max_nodes,
                qmc_tol=spec.qmc_tol,
                qmc_initial=spec.qmc_initial,
                qmc_max=spec.qmc_max,
            )
        inner_err = 0.0
        inner_ok = True
        memo: dict[float, float] = {}

        def integrand(zb: np.ndarray) -> np.ndarray:
            nonlocal inner_err, inner_ok
            u = (zb - shift) @ b + center
            if u.size == 1:
                u0 = float(u[0])
                if u0 in memo:
                    return np.array([memo[u0]])
                res = self._smoothed_reject(p, u0, inner_spec)
                memo[u0] = res.value
                inner_err = max(inner_err, res.err_est)
                inner_ok = inner_ok and res.converged
                return np.array([res.value])
            res = self._smoothed_reject(p, u, inner_spec)
            inner_err = max(inner_err, float(np.max(res.err_est)))
            inner_ok = inner_ok and res.converged
            return np.asarray(res.value, dtype=float)

        outer = gaussian_region_prob(comp, t, integrand, spec)
        return QuadResult(
            outer.value, outer.err_est + inner_err, outer.converged and inner_ok
        )

    # -- density terms ----------------------------------------------------------

    def term_density(self, p: int, t, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
        """Weighted contribution of order p to the density at t."""
        comp = self.component(p)
        pdf = gaussian_density(comp.mean_shift, comp.covariance, t)
        if p == self.p_lo:
            w = self.weight(p, spec)
            return QuadResult(pdf * w.value, pdf * w.err_est, w.converged)
        b, _ = self._conditional(p)
        x = np.atleast_1d(np.asarray(t, dtype=float)) - self.shifts[p]
        u = float(x @ b) + self.center_args[p]
        if self.h_df is None:
            val = float(self._reject_given(p, u, 1.0) * self.gamma_tail(p, 1.0))
            return QuadResult(val * pdf, 0.0, True)
        res = self._smoothed_reject(p, u, spec.tightened())
        return QuadResult(res.value * pdf, res.err_est * pdf, res.converged)

    # -- assembly -----------------------------------------------------------------

    def _assemble(self, term, t, spec: QuadratureSpec, clip_unit: bool) -> DistributionResult:
        """Sum ``term(p, t, spec)`` over the candidate orders."""
        if np.any(np.isnan(np.asarray(t, dtype=float))):
            raise ValueError("evaluation point t must not be NaN")
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
