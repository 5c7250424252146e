"""Shared evaluation engine for selected-model mixture distributions.

Both the finite-sample and the large-sample distributions of the transformed
post-selection estimator have the same structure: a sum over candidate orders
p of (conditional component) x (selection weight), where the component of the
lowest order enters as a plain shifted Gaussian cdf times a product of
interval probabilities, and every higher order contributes a Gaussian region
integral whose integrand removes the mass on which the order-p test accepts.
The unknown-scale variant smooths every interval probability against the
scaled-chi law of the residual scale estimate; weights and rejection terms
alike go through one evaluator, ``MixtureEngine._smoothed_reject``.

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
from numpy.polynomial import Chebyshev

from .kernels import (
    _TAIL_Q,
    DEFAULT_SPEC,
    QuadResult,
    QuadratureSpec,
    chi_scaled_density,
    chi_scaled_quantile,
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

# Scale smoothing: degree of the Chebyshev interpolant of each tail product
# against h, Gauss-Legendre nodes across the window in which a rejection
# probability moves from 1 to 0 (half-width 9 conditional standard
# deviations), and rows per block so that batches keep memory bounded.
_CHEB_DEGREE = 64
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_WINDOW = 9.0
_CHUNK_ROWS = 2048


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
        self._antiderivs: dict[int, tuple[Chebyshev, float]] = {}
        if self.h_df is not None:
            self._support = (
                chi_scaled_quantile(self.h_df, _TAIL_Q),
                chi_scaled_quantile(self.h_df, 1.0 - _TAIL_Q),
            )

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

    # -- scale smoothing -------------------------------------------------------

    def _tail_antiderivative(self, p: int):
        """(F_p, err): antiderivative of gamma_tail(p, s) h(s) on the support I.

        F_p integrates a degree-64 Chebyshev interpolant and vanishes at the
        lower end of I; ``err`` bounds its error by the interpolant's last
        coefficients times |I|, plus the mass of h outside I.
        """
        if p not in self._antiderivs:
            s_lo, s_hi = self._support
            cheb = Chebyshev.interpolate(
                lambda s: self.gamma_tail(p, s) * chi_scaled_density(self.h_df, s),
                _CHEB_DEGREE,
                domain=[s_lo, s_hi],
            )
            err = float(np.abs(cheb.coef[-4:]).sum()) * (s_hi - s_lo) + 2.0 * _TAIL_Q
            self._antiderivs[p] = (cheb.integ(lbnd=s_lo), err)
        return self._antiderivs[p]

    def _smoothed_reject(self, p: int, u, v: float) -> np.ndarray:
        """S_p(u, v) = int_I P(|u + v Z| >= s w_p) gamma_tail(p, s) h(s) ds.

        Here w_p = c_p sigma xi_p, Z is standard normal and I the support of
        the scaled-chi law h.  ``u`` may have any shape.  The rejection
        probability is 1 for s below |u|/w_p - 9 v/w_p and 0 above
        |u|/w_p + 9 v/w_p, to better than 1e-18, so S_p is the
        antiderivative of the tail product up to the lower end of that window
        plus a Gauss-Legendre rule of the exact integrand across it.  With
        v = 0 the window is empty and S_p is the antiderivative at |u|/w_p.
        """
        antideriv, _ = self._tail_antiderivative(p)
        s_lo, s_hi = self._support
        w = self.family.critical(p) * self.sigma * self.xi_at(p)
        a = np.abs(np.asarray(u, dtype=float))
        flat = a.ravel()
        lo = np.clip((flat - _WINDOW * v) / w, s_lo, s_hi)
        hi = np.clip((flat + _WINDOW * v) / w, s_lo, s_hi)
        out = antideriv(lo)
        # only rows whose window meets I need the rule
        open_rows = np.flatnonzero(hi > lo)
        for start in range(0, open_rows.size, _CHUNK_ROWS):
            rows = open_rows[start:start + _CHUNK_ROWS]
            half = 0.5 * (hi[rows] - lo[rows])
            s = (lo[rows] + half)[:, None] + half[:, None] * _GL_NODES
            f = 1.0 - delta(v, flat[rows, None], s * w)
            f *= self.gamma_tail(p, s) * chi_scaled_density(self.h_df, s)
            out[rows] += half * (f @ _GL_WEIGHTS)
        return out.reshape(a.shape)

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
        antideriv, err = self._tail_antiderivative(p)
        if p == self.p_lo:
            val = float(antideriv(self._support[1]))
        else:
            val = float(self._smoothed_reject(p, self.center_args[p], self.sigma * self.xi_at(p)))
        return QuadResult(val, err, err <= spec.abs_tol)

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
        _, err = self._tail_antiderivative(p)
        return QuadResult(
            outer.value, outer.err_est + err, outer.converged and err <= spec.abs_tol
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
        _, err = self._tail_antiderivative(p)
        return QuadResult(val * pdf, err * pdf, err <= spec.abs_tol)

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
