"""Kernel primitives: interval probabilities, scaled-chi law, quadratures."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, stats
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

import postselect
from postselect.config import parse_config
from postselect.distribution import finite_sample_engine
from postselect.kernels import (
    _QMC_BATCHES,
    _QMC_ROOT_SEED,
    _TAIL_Q,
    DEFAULT_SPEC,
    QuadResult,
    QuadratureSpec,
    ScaleSmoother,
    _gauss_kronrod,
    chi_scaled_density,
    chi_scaled_quantile,
    delta,
    gaussian_region_prob,
    normals_from_stream,
    sample_gaussian,
)
from postselect.mixture import MixtureEngine
from postselect.model import GaussianComponent, SelectionFamily


def integrate_against_h(f, m, spec=DEFAULT_SPEC):
    """Differential oracle: scalar adaptive quadrature of f(s) h_m(s) ds.

    scipy's QUADPACK rule on the support I of the scaled-chi law (its 1e-14
    and 1 - 1e-14 quantiles), at a hundredth of the requested tolerances
    (its estimate is optimistic next to jumps), with at most one subinterval
    per 21 of ``spec.max_nodes``.  The truncated mass (<= 2e-14 for
    |f| <= 1) is added to the error estimate.
    """
    s_lo = chi_scaled_quantile(m, _TAIL_Q)
    s_hi = chi_scaled_quantile(m, 1.0 - _TAIL_Q)
    out = integrate.quad(
        lambda s: float(f(s)) * chi_scaled_density(m, s),
        s_lo,
        s_hi,
        epsabs=max(spec.abs_tol / 100.0, 1e-14),
        epsrel=max(spec.rel_tol / 100.0, 1e-13),
        limit=max(1, spec.max_nodes // 21),
        full_output=1,
    )
    value, abserr = out[0], out[1]
    converged = len(out) < 4 or float(abserr) <= spec.abs_tol
    return QuadResult(float(value), float(abserr) + 2.0 * _TAIL_Q, converged)

# Frozen against a 30-digit mpmath normal-cdf oracle (independent of the
# scipy implementation under test).
MP_DELTA = {
    (1.0, 0.0, 2.015): 0.95609535092468359,
    (2.0, 1.3, 0.7): 0.22343332387959029,
    (0.5, -0.2, 0.9): 0.90533989325273035,
    (1.0, 3.0, 1.0): 0.022718460706346087,
    (3.0, 0.0, 0.1): 0.026591227634184212,
}


class TestDelta:
    def test_matches_high_precision_oracle(self):
        for (s, a, b), want in MP_DELTA.items():
            assert delta(s, a, b) == pytest.approx(want, abs=1e-14)

    def test_degenerate_scale_is_indicator(self):
        assert delta(0.0, 0.5, 1.0) == 1.0
        assert delta(0.0, 1.5, 1.0) == 0.0
        assert delta(0.0, -1.0, 1.0) == 0.0  # boundary |a| = b is outside

    def test_infinite_center_gives_zero(self):
        assert delta(2.0, np.inf, 7.0) == 0.0
        assert delta(2.0, -np.inf, 7.0) == 0.0
        assert delta(0.0, np.inf, 7.0) == 0.0

    def test_nonpositive_width_gives_zero(self):
        assert delta(1.0, 0.3, 0.0) == 0.0
        assert delta(1.0, 0.3, -1.0) == 0.0

    def test_array_broadcast_matches_scalar(self):
        a = np.array([-np.inf, -2.0, 0.0, 1.4, np.inf])
        out = delta(1.3, a, 0.8)
        for i, ai in enumerate(a):
            assert out[i] == delta(1.3, float(ai), 0.8)

    @given(
        st.floats(0.0, 5.0),
        st.floats(-30.0, 30.0),
        st.floats(-2.0, 30.0),
    )
    def test_symmetric_in_center_and_in_unit_range(self, s, a, b):
        v = delta(s, a, b)
        assert v == delta(s, -a, b)
        assert 0.0 <= v <= 1.0

    @given(
        st.floats(0.01, 5.0),
        st.floats(0.0, 20.0),
        st.floats(0.0, 20.0),
        st.floats(0.01, 5.0),
        st.floats(0.01, 5.0),
    )
    def test_monotone_in_center_magnitude_and_width(self, s, a, da, b, db):
        assert delta(s, a + da, b) <= delta(s, a, b) + 1e-12
        assert delta(s, a, b + db) >= delta(s, a, b) - 1e-12


class TestChiScaled:
    def test_closed_form_values(self):
        assert chi_scaled_density(2, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)
        assert chi_scaled_density(5, 0.8) == pytest.approx(1.229511498142845, rel=1e-13)
        assert chi_scaled_density(5, 0.0) == 0.0
        assert chi_scaled_density(5, -1.0) == 0.0

    @pytest.mark.parametrize("m", [1, 5, 50])
    def test_normalizes(self, m):
        val, err, ok = integrate_against_h(lambda s: 1.0, m)
        assert ok
        assert val == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("m", [1, 4, 30])
    def test_second_moment_is_one(self, m):
        val, _, ok = integrate_against_h(lambda s: s * s, m)
        assert ok
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_large_df_does_not_overflow(self):
        assert np.isfinite(chi_scaled_density(5000, 1.0))
        assert chi_scaled_density(5000, 1.0) > 0.0

    @pytest.mark.parametrize("m,q", [(5, 0.5), (2, 0.01), (40, 0.99)])
    def test_quantile_against_scipy_chi(self, m, q):
        want = stats.chi.ppf(q, m) / math.sqrt(m)
        assert chi_scaled_quantile(m, q) == pytest.approx(want, rel=1e-10)

    def test_quantile_validates(self):
        with pytest.raises(ValueError):
            chi_scaled_quantile(5, 0.0)
        with pytest.raises(ValueError):
            chi_scaled_density(0, 1.0)


class TestIntegrateAgainstH:
    def test_median_indicator(self):
        med = stats.chi.ppf(0.5, 5) / math.sqrt(5)
        val, _, ok = integrate_against_h(lambda s: float(s > med), 5)
        assert ok
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_interval_weight_matches_t_distribution(self):
        # P(|Z| < 2.015 * S) with S the scaled chi_5 is P(|t_5| < 2.015)
        val, _, ok = integrate_against_h(lambda s: delta(1.0, 0.0, 2.015 * s), 5)
        want = 1.0 - 2.0 * stats.t.sf(2.015, 5)
        assert ok
        assert val == pytest.approx(want, abs=1e-10)

    def test_against_monte_carlo_chi_draws(self):
        val, _, _ = integrate_against_h(lambda s: delta(1.0, 0.0, 2.015 * s), 5)
        draws = stats.chi.rvs(5, size=10_000_000, random_state=20240811) / math.sqrt(5)
        mc = delta(1.0, np.zeros_like(draws), 2.015 * draws)
        se = mc.std(ddof=1) / math.sqrt(mc.size)
        assert abs(val - mc.mean()) <= 3.0 * se

    def test_dominated_integrand_is_dominated(self):
        lo, _, _ = integrate_against_h(lambda s: delta(1.0, 1.0, s), 7)
        hi, _, _ = integrate_against_h(lambda s: delta(1.0, 0.5, s), 7)
        assert lo <= hi + 1e-12

    def test_exhausted_budget_reports_partial_value_and_flag(self):
        # a jump integrand with a single permitted subinterval cannot meet the
        # tolerance: the result must still be usable but flagged
        med = stats.chi.ppf(0.5, 5) / math.sqrt(5)
        tight = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_nodes=21)
        res = integrate_against_h(lambda s: float(s > med), 5, tight)
        assert not res.converged
        assert abs(res.value - 0.5) < 0.05  # partial value still sensible


# S(u, v) = int_0^inf P(|u + vZ| >= 2.015 s) delta(1, 0.7, 1.5 s) h_m(s) ds,
# keyed by (m, v, u): the order-2 scale smoothing of a P = 3 engine with
# identity Gram (so xi_2 = 1 and v is zeta/xi), unit scale and order-3 center
# 0.7, for conditional scales from 0 through the near-step regime to smooth.
# Frozen against mpmath at 30 digits (tanh-sinh on [0, 12], split at
# |u|/2.015 + k v/2.015 for k in 0, +-1, +-3, +-9).
MP_SMOOTHED_REJECT = {
    (1, 0, 0.0): 0.0,
    (1, 0, 1.6): 0.19094179604997375171,
    (1, 0, -2.9): 0.41242077261625129743,
    (1, 7e-4, 0.0): 4.5100895285575131125e-8,
    (1, 7e-4, 1.6): 0.19094179981798752153,
    (1, 7e-4, -2.9): 0.41242075355015167346,
    (1, 0.06, 0.0): 0.00033104923299643205286,
    (1, 0.06, 1.6): 0.19096958346674276023,
    (1, 0.06, -2.9): 0.41228082747755612777,
    (1, 0.35, 0.0): 0.010934123026347588738,
    (1, 0.35, 1.6): 0.19199687496192005482,
    (1, 0.35, -2.9): 0.40780577002750960024,
    (5, 0, 0.0): 0.0,
    (5, 0, 1.6): 0.17280206021943712135,
    (5, 0, -2.9): 0.65626065346686102757,
    (5, 7e-4, 0.0): 6.1199827135516220706e-20,
    (5, 7e-4, 1.6): 0.1728021585736428171,
    (5, 7e-4, -2.9): 0.65626056945861619285,
    (5, 0.06, 0.0): 2.3968568907910133867e-8,
    (5, 0.06, 1.6): 0.17352055694257347648,
    (5, 0.06, -2.9): 0.65564427404065119335,
    (5, 0.35, 0.0): 0.00064364905315225683704,
    (5, 0.35, 1.6): 0.1934127010225906326,
    (5, 0.35, -2.9): 0.63636907798802664448,
    (48, 0, 0.0): 0.0,
    (48, 0, 1.6): 0.013550666706585219927,
    (48, 0, -2.9): 0.76809538560640897988,
    (48, 7e-4, 0.0): 5.1585744662640548858e-130,
    (48, 7e-4, 1.6): 0.013551142135040338932,
    (48, 7e-4, -2.9): 0.76809538415570538028,
    (48, 0.06, 0.0): 9.8557276712273581856e-36,
    (48, 0.06, 1.6): 0.017125443307086954692,
    (48, 0.06, -2.9): 0.76808183414101112652,
    (48, 0.35, 0.0): 3.7244966133167086301e-7,
    (48, 0.35, 1.6): 0.11620761754231063352,
    (48, 0.35, -2.9): 0.75654210762986394945,
}


class TestScaleSmoothing:
    @staticmethod
    def _engine(m):
        family = SelectionFamily(min_order=1, criticals=(2.015, 1.5))
        return MixtureEngine(np.eye(3), 1.0, family, [0.0, 0.4, 0.7], h_df=m)

    @pytest.mark.parametrize("m", [1, 5, 48])
    def test_matches_high_precision_oracle(self, m):
        engine = self._engine(m)
        err = engine.smoother(2).err_est
        for (df, v, u), want in MP_SMOOTHED_REJECT.items():
            if df != m:
                continue
            got = float(engine._smoothed_reject(2, u, v))
            assert abs(got - want) <= 1e-13
            assert abs(got - want) <= err

    @pytest.mark.parametrize("m", [1, 5, 48])
    def test_batch_matches_adaptive_reference(self, m):
        # the adaptive rule is reliable once the step in s is resolved
        engine = self._engine(m)
        u = np.array([[0.0, 1.6], [-2.9, 0.9]])
        for v in (0.06, 0.35):
            batch = engine._smoothed_reject(2, u, v)
            assert batch.shape == u.shape
            for got, ui in zip(batch.ravel(), u.ravel()):
                ref = integrate_against_h(
                    lambda s: (1.0 - delta(v, ui, 2.015 * s)) * engine.gamma_tail(2, s), m
                )
                assert got == pytest.approx(ref.value, abs=1e-10)

    @pytest.mark.parametrize("m", [1000, 9998])
    def test_point_scale_is_large_m_limit(self, m):
        # the scaled-chi law has mean 1 - O(1/m) and variance O(1/m), so
        # integrals of smooth functions of s against it approach their value
        # at s = 1, the point law of the known scale, at rate 1/m
        smoothed, point = self._engine(m), self._engine(None)
        for p in (1, 2, 3):
            assert abs(smoothed.weight(p).value - point.weight(p).value) <= 2.0 / m
        u = np.array([[0.0, 1.6], [-2.9, 0.9]])
        for v in (0.06, 0.35):
            gap = smoothed._smoothed_reject(2, u, v) - point._smoothed_reject(2, u, v)
            assert np.max(np.abs(gap)) <= 2.0 / m

    @pytest.mark.parametrize("m", [1, 5, 48])
    def test_unit_tail_matches_noncentral_t(self, m):
        # with g = 1, (u + vZ) / (v S) is noncentral t with m df and
        # noncentrality u/v, so the integral is P(|T| >= w/v)
        smoother = ScaleSmoother(m)
        u = np.array([0.0, 0.8, -2.5, 4.0])
        for v, w in ((1.0, 2.015), (0.3, 1.2), (2.0, 0.5)):
            got = smoother.reject(u, v, w)
            want = stats.nct.sf(w / v, m, u / v) + stats.nct.cdf(-w / v, m, u / v)
            assert np.max(np.abs(got - want)) <= 1e-12
        assert smoother.mass() == pytest.approx(1.0, abs=1e-13)


def _scalar_normal_component(mean=0.0, var=1.0):
    return GaussianComponent(
        mean_shift=np.array([mean]), covariance=np.array([[var]]), rank=1
    )


class TestGaussianRegionProb:
    def test_total_mass(self):
        res = gaussian_region_prob(_scalar_normal_component(), np.array([np.inf]))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_component(self):
        comp = GaussianComponent(
            mean_shift=np.array([0.5, -1.0]), covariance=np.zeros((2, 2)), rank=0
        )
        assert gaussian_region_prob(comp, np.array([1.0, 0.0])).value == 1.0
        assert gaussian_region_prob(comp, np.array([1.0, -2.0])).value == 0.0

    def test_plain_cdf_path(self):
        res = gaussian_region_prob(_scalar_normal_component(0.3, 4.0), np.array([1.1]))
        assert res.value == pytest.approx(stats.norm.cdf(1.1, loc=0.3, scale=2.0), abs=1e-12)

    def test_two_sided_exceedance_weight(self):
        # E[1 - P(|M - Z| < 2.015 | Z)] over independent standard normals
        # equals P(|M - Z| >= 2.015) with M - Z ~ N(0, 2); mpmath oracle value
        # 2 (1 - Phi(2.015 / sqrt 2)), cross-checked by the 2-D Monte Carlo
        # below.
        g = lambda z: 1.0 - delta(1.0, z[:, 0], 2.015)
        res = gaussian_region_prob(_scalar_normal_component(), np.array([np.inf]), g)
        assert res.converged
        assert res.value == pytest.approx(0.15420919202460535, abs=1e-9)

        rng = np.random.default_rng(77)
        z = rng.standard_normal(4_000_000)
        m = rng.standard_normal(4_000_000)
        hits = (np.abs(m - z) >= 2.015).astype(float)
        se = hits.std(ddof=1) / math.sqrt(hits.size)
        assert abs(res.value - hits.mean()) <= 3.0 * se

    def test_integrand_bounded_by_cdf(self):
        g = lambda z: 0.5 * np.ones(z.shape[0])
        t = np.array([0.7])
        full = gaussian_region_prob(_scalar_normal_component(), t).value
        part = gaussian_region_prob(_scalar_normal_component(), t, g).value
        assert 0.0 <= part <= full + 1e-12

    def test_qmc_matches_scipy_bivariate_cdf(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        comp = GaussianComponent(mean_shift=np.array([0.2, -0.1]), covariance=cov, rank=2)
        t = np.array([0.4, 0.3])
        res = gaussian_region_prob(comp, t)
        want = stats.multivariate_normal(mean=comp.mean_shift, cov=cov).cdf(t)
        assert abs(res.value - want) <= max(res.err_est, 2e-4)

    def test_singular_covariance_uses_sampling(self):
        # rank-1 bivariate: both coordinates equal the same normal
        cov = np.ones((2, 2))
        comp = GaussianComponent(mean_shift=np.zeros(2), covariance=cov, rank=1)
        res = gaussian_region_prob(comp, np.array([0.5, 1.5]))
        assert res.value == pytest.approx(stats.norm.cdf(0.5), abs=5e-4)

    def test_rank_one_bivariate_matches_ndtr(self):
        # z = (0.1 + x, -0.3 - 2x) with x standard normal: z <= t bounds x on
        # both sides, so the region probability is a normal interval
        comp = GaussianComponent(
            mean_shift=np.array([0.1, -0.3]),
            covariance=np.array([[1.0, -2.0], [-2.0, 4.0]]),
            rank=1,
        )
        res = gaussian_region_prob(comp, np.array([0.4, 0.9]))
        assert abs(res.value - (ndtr(0.3) - ndtr(-0.6))) <= 1e-14
        far = gaussian_region_prob(comp, np.array([8.1, -14.3]))
        assert far.value == pytest.approx(ndtr(-7.0) - ndtr(-8.0), rel=1e-12)
        # an integrand reading a projection of zero variance is a constant
        g = lambda z: 0.3 + 2.0 * z[:, 0] + z[:, 1]
        const = gaussian_region_prob(comp, np.array([0.4, 0.9]), g, projection=[2.0, 1.0])
        assert abs(const.value - 0.2 * (ndtr(0.3) - ndtr(-0.6))) <= 1e-14

    def test_low_rank_trivariate_is_deterministic(self):
        # rank one: z = mean + (1, -2, 0.5) x, so z <= t bounds x on both sides
        beta = np.array([1.0, -2.0, 0.5])
        mean = np.array([0.1, -0.3, 0.2])
        comp = GaussianComponent(mean_shift=mean, covariance=np.outer(beta, beta), rank=1)
        res = gaussian_region_prob(comp, np.array([0.4, 0.9, 0.6]))
        assert abs(res.value - (ndtr(0.3) - ndtr(-0.6))) <= 1e-14
        # rank two: z3 = z1 + z2, inert at t3 = inf
        cov2 = np.array([[2.0, 0.6], [0.6, 1.0]])
        lift = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        comp = GaussianComponent(
            mean_shift=np.array([0.2, -0.1, 0.1]), covariance=lift @ cov2 @ lift.T, rank=2
        )
        res = gaussian_region_prob(comp, np.array([0.4, 0.3, np.inf]))
        want = stats.multivariate_normal(mean=[0.2, -0.1], cov=cov2).cdf([0.4, 0.3])
        assert res.converged
        assert abs(res.value - want) <= 1e-9

    def test_jump_integrand_with_and_without_breakpoint(self):
        g = lambda z: (z[:, 0] > 0.3).astype(float)
        comp = _scalar_normal_component()
        t = np.array([np.inf])
        split = gaussian_region_prob(comp, t, g, projection=[1.0], breakpoints=(0.3,))
        assert split.converged
        assert abs(split.value - ndtr(-0.3)) <= 1e-13
        # without the breakpoint the rule localizes the jump by bisection
        res = gaussian_region_prob(comp, t, g)
        assert res.converged
        assert abs(res.value - ndtr(-0.3)) <= res.err_est
        # a starved budget stops after the first pass and says so
        starved = gaussian_region_prob(comp, t, g, QuadratureSpec(max_nodes=15))
        assert not starved.converged
        assert abs(starved.value - ndtr(-0.3)) <= starved.err_est

    def test_qmc_matches_scipy_trivariate_cdf(self):
        cov = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 1.5]])
        comp = GaussianComponent(mean_shift=np.array([0.2, -0.1, 0.4]), covariance=cov, rank=3)
        t = np.array([0.4, 0.3, 0.9])
        res = gaussian_region_prob(comp, t)
        want = stats.multivariate_normal(mean=comp.mean_shift, cov=cov).cdf(t)
        assert res.converged
        assert abs(res.value - want) <= max(res.err_est, 2e-4)

    def test_qmc_evaluates_integrand_only_inside_region(self):
        cov = np.array([[1.0, 0.4, 0.1], [0.4, 1.2, -0.2], [0.1, -0.2, 0.8]])
        mean = np.array([0.1, -0.2, 0.3])
        comp = GaussianComponent(mean_shift=mean, covariance=cov, rank=3)
        t = np.array([0.5, 0.2, 0.6])
        spec = QuadratureSpec(qmc_tol=0.5, qmc_initial=1 << 10)  # one pass
        g = lambda z: np.cos(z.sum(axis=1))
        seen = []
        res = gaussian_region_prob(comp, t, lambda z: seen.append(z) or g(z), spec)
        assert res.converged
        assert all(np.all(z <= t) for z in seen)
        assert sum(len(z) for z in seen) < spec.qmc_initial
        # the estimate of evaluating g on every point and masking afterwards
        per_batch = spec.qmc_initial // _QMC_BATCHES
        batch_means = []
        for b in range(_QMC_BATCHES):
            sob = qmc.Sobol(d=3, scramble=True, seed=np.random.default_rng(_QMC_ROOT_SEED + b))
            u = np.clip(sob.random(per_batch), 0.5**54, 1.0 - 0.5**54)
            z = mean + ndtri(u) @ comp.factor.T
            vals = np.where(np.all(z <= t, axis=1), g(z), 0.0)
            batch_means.append(vals.sum() / per_batch)
        assert abs(res.value - np.mean(batch_means)) <= 1e-15

    @pytest.mark.parametrize(
        "cov, rank, t",
        [
            ([[2.0, 0.6], [0.6, 1.0]], 2, [0.0, np.nan]),
            ([[1.0, 1.0], [1.0, 1.0]], 1, [0.5, np.nan]),
            ([[1.0]], 1, [np.nan]),
            (np.eye(3), 3, [0.0, 0.0, np.nan]),
        ],
        ids=["rank2-bivariate", "rank1-bivariate", "scalar", "rank3-trivariate"],
    )
    def test_nan_point_rejected(self, cov, rank, t):
        cov = np.asarray(cov, dtype=float)
        comp = GaussianComponent(mean_shift=np.zeros(len(t)), covariance=cov, rank=rank)
        with pytest.raises(ValueError, match="evaluation point t must not be NaN"):
            gaussian_region_prob(comp, np.array(t))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_integrand_stops_unconverged(self, bad):
        # a NaN error estimate marks no subinterval for bisection, so the
        # rule must stop instead of repeating the same pass
        with np.errstate(invalid="ignore"):
            res = _gauss_kronrod(lambda x: np.where(x > 0.5, bad, 1.0), 0.0, 1.0, DEFAULT_SPEC, ())
        assert not res.converged
        assert res.err_est == math.inf


# Run in a fresh interpreter: the CLI on general_design.ini (ranks one and two
# only) must not load scipy.stats; the first rank-3 integral loads it for its
# Sobol sequences.  Prints that integral's value in hex.
_FRESH_PROCESS = """
import json, sys, tempfile
import numpy as np
import postselect
from postselect import cli

def stats_loaded():
    return any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in sys.modules)

assert not stats_loaded(), "import postselect loaded scipy.stats"
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["selection-probs", "--config", sys.argv[1], "--out", out]) == 0
assert not stats_loaded(), "selection-probs loaded scipy.stats"
mean, cov, t = json.loads(sys.argv[2])
comp = postselect.GaussianComponent(mean_shift=np.array(mean), covariance=np.array(cov), rank=3)
value = postselect.gaussian_region_prob(comp, np.array(t)).value
assert stats_loaded(), "the rank-3 integral did not load scipy.stats"
print(value.hex())
"""


def test_scipy_stats_loaded_only_by_rank_three_integral():
    # the rank-3 component of test_qmc_matches_scipy_trivariate_cdf
    mean = [0.2, -0.1, 0.4]
    cov = [[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 1.5]]
    t = [0.4, 0.3, 0.9]
    src = str(Path(postselect.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, str(GENERAL_DESIGN_INI), json.dumps([mean, cov, t])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    comp = GaussianComponent(mean_shift=np.array(mean), covariance=np.array(cov), rank=3)
    want = gaussian_region_prob(comp, np.array(t)).value
    assert float.fromhex(run.stdout.split()[-1]) == want


GENERAL_DESIGN_INI = Path(__file__).resolve().parents[1] / "scripts/configs/general_design.ini"

# Order-2 and order-3 terms of the cdf of the bivariate target of
# general_design.ini at t = (0.15, 0.25), keyed by (variant, order): order 2
# has zeta = 0 (a jump in the integrand at known scale, a kink when data
# driven), order 3 has zeta > 0.  Frozen from 2-D scipy dblquad at
# epsabs 1e-13 over z > mean - 9 sd, with the outer range split where the
# order-2 integrand jumps or kinks.
DBLQUAD_TERMS = {
    ("known", 2): 0.01168016427156819,
    ("known", 3): 0.014637473358353663,
    ("unknown", 2): 0.012940154512339775,
    ("unknown", 3): 0.01649996210070875,
}


class TestConditionedTerms:
    @pytest.mark.parametrize("variant", ["known", "unknown"])
    def test_bivariate_terms_match_2d_reference(self, variant):
        cfg = parse_config(GENERAL_DESIGN_INI)
        engine = finite_sample_engine(cfg.design, cfg.family, cfg.target, cfg.params, variant)
        for p in (2, 3):
            res = engine.term_cdf(p, np.array([0.15, 0.25]))
            gap = abs(res.value - DBLQUAD_TERMS[variant, p])
            assert res.converged
            assert gap <= 1e-12
            assert gap <= res.err_est


class TestSampling:
    def test_point_mass_draws(self):
        comp = GaussianComponent(
            mean_shift=np.array([1.0, 2.0]), covariance=np.zeros((2, 2)), rank=0
        )
        out = sample_gaussian(comp, 5, stream=1)
        assert np.array_equal(out, np.tile([1.0, 2.0], (5, 1)))

    def test_mean_within_clt_band(self):
        comp = _scalar_normal_component(0.7, 2.25)
        draws = sample_gaussian(comp, 1_000_000, stream=11)
        assert abs(draws.mean() - 0.7) <= 4.0 * 1.5 / 1000.0

    def test_sample_covariance_close(self):
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        comp = GaussianComponent(mean_shift=np.zeros(2), covariance=cov, rank=2)
        draws = sample_gaussian(comp, 1_000_000, stream=5)
        sample_cov = np.cov(draws.T)
        rel = np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov)
        assert rel < 0.01

    def test_reproducible_from_seed(self):
        comp = _scalar_normal_component()
        a = sample_gaussian(comp, 100, stream=9)
        b = sample_gaussian(comp, 100, stream=9)
        assert np.array_equal(a, b)

    def test_normals_inverse_transform_quality(self):
        z = normals_from_stream(3, 200_000)
        d = stats.kstest(z, "norm").statistic
        assert d <= 1.63 / math.sqrt(z.size)


class TestQuadratureSpec:
    def test_validates(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_nodes=10)
