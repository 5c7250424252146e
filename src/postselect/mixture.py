"""Shared evaluation engine for selected-model mixture distributions.

Both the finite-sample and the large-sample distributions of the transformed
post-selection estimator have the same structure: a sum over candidate orders
p of (conditional component) x (selection weight), where the component of the
lowest order enters as a plain shifted Gaussian cdf times a product of
interval probabilities, and every higher order contributes a Gaussian region
integral whose integrand removes the mass on which the order-p test accepts.
The unknown-scale variant smooths every interval probability against the
scaled-chi law of the residual scale estimate; weights and rejection terms
alike go through one ``kernels.ScaleSmoother`` per order, whose weight is the
product of the acceptance probabilities of the orders above.

The engine is parameterized by the Cholesky factor of the Gram matrix, the
interval centers, and the component mean shifts, so the finite-sample case
(centers sqrt(n) eta_p(p), shifts sqrt(n) A (eta(p) - theta)) and the limit
case (centers delta_p + psi_p, shifts A delta(p)) share all code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np

from .kernels import (
    _WINDOW,
    DEFAULT_SPEC,
    QuadResult,
    QuadratureSpec,
    ScaleSmoother,
    delta,
    gaussian_density,
    gaussian_region_prob,
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


def _require_no_nan(t) -> None:
    """Raise ``ValueError`` when the evaluation point ``t`` has a NaN entry."""
    if np.isnan(np.asarray(t, dtype=float)).any():
        raise ValueError("evaluation point t must not be NaN")


def _accept(test: tuple[float, float, float], s):
    """Probability that a test (scale d, center c, critical k) accepts at
    residual scale s: P(|M - c| < s k d) for M ~ N(0, d^2)."""
    d, c, k = test
    return delta(d, c, s * k * d)


def _accept_all(tests, s):
    """Product of ``_accept`` over ``tests``.  A module function, not an
    engine method, so that a smoother weighted by it does not hold the engine
    that caches the smoother in a reference cycle, which would leave every
    engine to the cyclic garbage collector."""
    out = 1.0 if np.isscalar(s) else np.ones_like(np.asarray(s, dtype=float))
    for test in tests:
        out = out * _accept(test, s)
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
        # (sigma xi_q, center, c_q): the order-q test accepts when the scaled
        # estimate lies within s c_q sigma xi_q of its center
        self._tests = {
            q: (self.sigma * self._xi[q], self.center_args[q], family.critical(q))
            for q in self._xi
        }
        self._cond: dict[int, tuple[np.ndarray, float]] = {}
        self._comp: dict[int, GaussianComponent] = {}
        self._smoothers: dict[int, ScaleSmoother] = {}

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
        return _accept(self._tests[q], s)

    def _tests_above(self, p: int) -> tuple:
        return tuple(self._tests[q] for q in range(p + 1, self.P + 1))

    def gamma_tail(self, p: int, s):
        """Product of acceptance probabilities for all orders above p."""
        return _accept_all(self._tests_above(p), s)

    def _reject_given(self, p: int, u, s):
        """Probability that the order-p test rejects, given regression value u."""
        _, zeta = self._conditional(p)
        width = s * self.family.critical(p) * self.sigma * self.xi_at(p)
        return 1.0 - delta(self.sigma * zeta, u, width)

    # -- scale smoothing -------------------------------------------------------

    def smoother(self, p: int) -> ScaleSmoother:
        """Smoother of order p: the scaled-chi law weighted by gamma_tail(p, .)."""
        if p not in self._smoothers:
            self._smoothers[p] = ScaleSmoother(self.h_df, partial(_accept_all, self._tests_above(p)))
        return self._smoothers[p]

    def _smoothed_reject(self, p: int, u, v: float) -> np.ndarray:
        """int_I P(|u + v Z| >= s c_p sigma xi_p) gamma_tail(p, s) h(s) ds."""
        return self.smoother(p).reject(u, v, self.family.critical(p) * self.sigma * self.xi_at(p))

    # -- selection weights ---------------------------------------------------

    def weight(self, p: int, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
        """Mass of candidate order p (its selection probability)."""
        if not self.p_lo <= p <= self.P:
            raise ValueError(f"order {p} outside [{self.p_lo}, {self.P}]")
        if self.h_df is None:
            if p == self.p_lo:
                val = float(self.gamma_tail(self.p_lo, 1.0))
            else:
                val = float((1.0 - self.gamma(p, 1.0)) * self.gamma_tail(p, 1.0))
            return QuadResult(val, 0.0, True)
        smoother = self.smoother(p)
        if p == self.p_lo:
            val = smoother.mass()
        else:
            val = float(self._smoothed_reject(p, self.center_args[p], self.sigma * self.xi_at(p)))
        return QuadResult(val, smoother.err_est, smoother.converged(spec))

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

        b, zeta = self._conditional(p)
        shift = self.shifts[p]
        center = self.center_args[p]
        # The integrand reads z only through u = b'z - b'shift + center, and
        # varies fast only in windows of half-width 9 sigma zeta: around
        # |u| = c_p sigma xi_p at known scale, around u = 0 when data driven.
        # At zeta = 0 the windows close to a jump or a kink.  The window edges
        # are the breakpoints of the outer rule.
        offset = float(b @ shift) - center
        reach = _WINDOW * self.sigma * zeta
        edge = self.family.critical(p) * self.sigma * self.xi_at(p)

        if self.h_df is None:
            tail = float(self.gamma_tail(p, 1.0))

            def integrand(zb: np.ndarray) -> np.ndarray:
                u = (zb - shift) @ b + center
                return self._reject_given(p, u, 1.0) * tail

            return gaussian_region_prob(
                comp, t, integrand, spec, projection=b,
                breakpoints=[offset + e + r for e in (-edge, edge) for r in (-reach, reach)],
            )

        def integrand(zb: np.ndarray) -> np.ndarray:
            return self._smoothed_reject(p, (zb - shift) @ b + center, self.sigma * zeta)

        outer = gaussian_region_prob(
            comp, t, integrand, spec, projection=b, breakpoints=(offset - reach, offset + reach)
        )
        smoother = self.smoother(p)
        return QuadResult(
            outer.value, outer.err_est + smoother.err_est,
            outer.converged and smoother.converged(spec),
        )

    # -- density terms ----------------------------------------------------------

    def term_density(self, p: int, t, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
        """Weighted contribution of order p to the density at t."""
        comp = self.component(p)
        pdf = gaussian_density(comp.mean_shift, comp.covariance, t)
        if p == self.p_lo:
            w = self.weight(p, spec)
            return QuadResult(pdf * w.value, pdf * w.err_est, w.converged)
        b, zeta = self._conditional(p)
        x = np.atleast_1d(np.asarray(t, dtype=float)) - self.shifts[p]
        u = float(x @ b) + self.center_args[p]
        if self.h_df is None:
            val = float(self._reject_given(p, u, 1.0) * self.gamma_tail(p, 1.0))
            return QuadResult(val * pdf, 0.0, True)
        val = float(self._smoothed_reject(p, u, self.sigma * zeta))
        smoother = self.smoother(p)
        return QuadResult(val * pdf, smoother.err_est * pdf, smoother.converged(spec))

    # -- assembly -----------------------------------------------------------------

    def _assemble(self, term, t, spec: QuadratureSpec, clip_unit: bool) -> DistributionResult:
        """Sum ``term(p, t, spec)`` over the candidate orders."""
        _require_no_nan(t)
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
