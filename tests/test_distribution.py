"""Finite-sample cdfs/densities and the two-regressor closed forms."""

import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import integrate, stats

import postselect as ps
from postselect.config import synthetic_design
from postselect.distribution import _two_regressor_density, finite_sample_engine

from conftest import CLASSIC, PANEL_THETA2, classic_setting


class TestCdfBasics:
    def test_limits(self, classic_components):
        design, family, target, params = classic_components
        assert ps.cdf_unknown_variance(design, family, target, params, 60.0).value == (
            pytest.approx(1.0, abs=1e-9)
        )
        assert ps.cdf_unknown_variance(design, family, target, params, -60.0).value == (
            pytest.approx(0.0, abs=1e-9)
        )
        assert ps.cdf_known_variance(design, family, target, params, 60.0).value == (
            pytest.approx(1.0, abs=1e-10)
        )

    def test_monotone_on_grid(self, classic_components):
        design, family, target, params = classic_components
        grid = np.linspace(-6.0, 6.0, 31)
        vals = [
            ps.cdf_known_variance(design, family, target, params, t).value for t in grid
        ]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    @given(
        st.floats(-0.95, 0.95),
        st.floats(-2.0, 2.0),
        st.floats(0.3, 3.0),
        st.floats(0.5, 3.0),
    )
    # a projection b of order 1e-160, whose variance is subnormal
    @example(rho=1.7247977080362405e-160, theta2=0.0, c2=1.0, sigma1=1.0)
    def test_monotone_for_random_settings(self, rho, theta2, c2, sigma1):
        setting = ps.TwoRegressorSetting(
            rho=rho, sigma1=sigma1, sigma2=1.0, theta2=theta2, n=9, c2=c2
        )
        design, family, target, params = setting.components()
        grid = np.linspace(-5.0 * sigma1, 5.0 * sigma1, 9)
        vals = [
            ps.cdf_known_variance(design, family, target, params, t).value for t in grid
        ]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_terms_sum_to_value(self, classic_components):
        design, family, target, params = classic_components
        for t in (-1.0, 0.2, 2.5):
            res = ps.cdf_unknown_variance(design, family, target, params, t)
            assert res.value == pytest.approx(float(res.per_model_terms.sum()),
                                              abs=max(res.err_est, 1e-12))

    def test_terms_bounded_by_selection_probs(self, classic_components):
        design, family, target, params = classic_components
        res = ps.cdf_unknown_variance(design, family, target, params, 0.7)
        for i, p in enumerate(family.orders):
            pi = ps.selection_prob_unknown(design, family, params, p)
            assert -1e-12 <= res.per_model_terms[i] <= pi + 1e-9

    def test_known_cdf_matches_integrated_closed_form_density(self):
        # independent route: numerically integrate the closed-form density
        setting = classic_setting(0.75)
        design, family, target, params = setting.components()
        lo = -12.0
        for t in np.linspace(-4.0, 4.0, 41):
            want, _ = integrate.quad(
                lambda x: ps.two_regressor_density(setting, "known", x),
                lo,
                t,
                epsabs=1e-9,
                limit=200,
            )
            got = ps.cdf_known_variance(design, family, target, params, t).value
            assert got == pytest.approx(want, abs=1e-6)

    def test_unknown_cdf_matches_integrated_closed_form_density(self):
        # opposite-order route: the engine integrates the scale law inside a
        # region integral, the oracle integrates the closed-form density in t
        setting = classic_setting(0.75)
        design, family, target, params = setting.components()
        for t in (-2.5, 0.0, 1.4):
            want, _ = integrate.quad(
                lambda x: ps.two_regressor_density(setting, "unknown", x),
                -12.0,
                t,
                epsabs=1e-8,
                limit=200,
            )
            got = ps.cdf_unknown_variance(design, family, target, params, t).value
            assert got == pytest.approx(want, abs=1e-6)

    def test_minimal_order_zero_matches_monte_carlo(self):
        # exercises the point-mass leading component and the degenerate
        # (zero conditional scale) first tested order
        design, _, target, params = classic_setting(0.75).components()
        family = ps.SelectionFamily(min_order=0, criticals=(2.015, 2.015))
        R = 200_000
        for variant, cdf in (
            ("known", ps.cdf_known_variance),
            ("unknown", ps.cdf_unknown_variance),
        ):
            rep = ps.simulate(design, family, target, params, R, variant, seed=37)
            for t in (-1.0, 0.5, 2.0):
                got = cdf(design, family, target, params, t)
                emp = ps.empirical_cdf(rep, t)
                assert got.converged
                assert abs(got.value - emp) <= 3.0 * math.sqrt(0.25 / R) + got.err_est

    def test_unknown_cdf_matches_monte_carlo(self):
        setting = classic_setting(0.1)
        design, family, target, params = setting.components()
        R = 200_000
        rep = ps.simulate(design, family, target, params, R, "unknown", seed=23)
        grid = ps.ks_grid(rep, points=21)
        ks = ps.ks_distance(
            rep,
            lambda t: ps.cdf_unknown_variance(design, family, target, params, t).value,
            grid,
        )
        assert ks <= 1.95 / math.sqrt(R)  # 99.9% one-sample band


class TestZeroCorrelationCollapse:
    def test_cdf_and_density_reduce_to_full_model_gaussian(self):
        setting = ps.TwoRegressorSetting(
            rho=0.0, sigma1=1.3, sigma2=0.8, theta2=0.6, n=9, c2=2.0
        )
        design, family, target, params = setting.components()
        for t in np.linspace(-5.0, 5.0, 41):
            want_cdf = stats.norm.cdf(t / setting.sigma1)
            want_pdf = stats.norm.pdf(t / setting.sigma1) / setting.sigma1
            assert ps.cdf_unknown_variance(
                design, family, target, params, t
            ).value == pytest.approx(want_cdf, abs=1e-8)
            assert ps.density_unknown_variance(
                design, family, target, params, t
            ).value == pytest.approx(want_pdf, abs=1e-8)
            assert ps.cdf_known_variance(
                design, family, target, params, t
            ).value == pytest.approx(want_cdf, abs=1e-8)


class TestDensity:
    @pytest.mark.parametrize(
        "fn", [ps.density_unknown_variance, ps.density_known_variance]
    )
    def test_normalizes(self, classic_components, fn):
        design, family, target, params = classic_components
        val, err = integrate.quad(
            lambda t: fn(design, family, target, params, t).value,
            -12.0,
            12.0,
            epsabs=1e-8,
            limit=200,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("theta2", PANEL_THETA2)
    def test_nonnegative_on_grid(self, theta2):
        design, family, target, params = classic_setting(theta2).components()
        for t in np.linspace(-6.0, 6.0, 201):
            assert ps.density_unknown_variance(
                design, family, target, params, t
            ).value >= 0.0

    @pytest.mark.parametrize("variant", ["known", "unknown"])
    def test_general_path_equals_closed_form(self, variant):
        setting = classic_setting(0.75)
        design, family, target, params = setting.components()
        fn = (
            ps.density_known_variance if variant == "known" else ps.density_unknown_variance
        )
        for t in np.linspace(-4.0, 4.0, 41):
            want = ps.two_regressor_density(setting, variant, t)
            assert fn(design, family, target, params, t).value == pytest.approx(
                want, abs=1e-10
            )

    @pytest.mark.parametrize(
        "fn", [ps.density_unknown_variance, ps.density_known_variance]
    )
    def test_wrong_length_point_rejected(self, classic_components, fn):
        design, family, target, params = classic_components
        with pytest.raises(ValueError, match="t must have length 1"):
            fn(design, family, target, params, [0.1, 0.2])

    def test_density_undefined_when_minimal_order_zero(self, classic_components):
        design, _, target, params = classic_components
        family0 = ps.SelectionFamily(min_order=0, criticals=(2.015, 2.015))
        with pytest.raises(ps.DensityUndefinedError):
            ps.density_unknown_variance(design, family0, target, params, 0.0)
        # the cdf path still works
        res = ps.cdf_unknown_variance(design, family0, target, params, 0.5)
        assert 0.0 < res.value < 1.0

    def test_density_undefined_when_leading_block_degenerate(self):
        gram = np.eye(3) + 0.2
        design = ps.design_from_gram(20, gram)
        family = ps.SelectionFamily(min_order=1, criticals=(2.0, 2.0))
        target = ps.TargetFunctional(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        params = ps.ParameterPoint(theta=np.zeros(3), sigma=1.0)
        with pytest.raises(ps.DensityUndefinedError):
            ps.density_known_variance(design, family, target, params, np.zeros(2))
        res = ps.cdf_known_variance(design, family, target, params, np.zeros(2))
        assert 0.0 < res.value < 1.0

    def test_multivariate_density_identity_gram(self):
        # identity Gram, parameter in the protected block, target = first two
        # coordinates: all component covariances are I2 with zero shifts and
        # the tested order is uncorrelated with the target, so the mixture
        # collapses to the standard bivariate normal density
        design = ps.design_from_gram(30, np.eye(3), seed=21)
        family = ps.SelectionFamily(min_order=2, criticals=(2.0,))
        target = ps.TargetFunctional(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        params = ps.ParameterPoint(theta=np.array([0.7, -0.2, 0.0]), sigma=1.0)
        for t in ([0.0, 0.0], [1.0, -0.5], [-2.0, 0.3]):
            t = np.asarray(t)
            want = math.exp(-0.5 * float(t @ t)) / (2.0 * math.pi)
            for fn in (ps.density_known_variance, ps.density_unknown_variance):
                assert fn(design, family, target, params, t).value == pytest.approx(
                    want, abs=1e-9
                )

    def test_known_unknown_gap_shrinks_with_n(self):
        psi2 = math.sqrt(7) * 0.75
        sups = []
        for n in (7, 100, 1000):
            setting = ps.TwoRegressorSetting(
                rho=0.75, sigma1=1.0, sigma2=1.0, theta2=psi2 / math.sqrt(n), n=n, c2=2.015
            )
            sup = max(
                abs(
                    ps.two_regressor_density(setting, "known", t)
                    - ps.two_regressor_density(setting, "unknown", t)
                )
                for t in np.linspace(-5.0, 5.0, 41)
            )
            sups.append(sup)
        assert sups[0] > sups[1] > sups[2]


class TestWeightedConditional:
    def test_terms_recompose_cdf(self, classic_components):
        design, family, target, params = classic_components
        for variant, cdf in (
            ("known", ps.cdf_known_variance),
            ("unknown", ps.cdf_unknown_variance),
        ):
            t = 0.8
            total = sum(
                ps.weighted_conditional_cdf(
                    design, family, target, params, p, t, variant
                ).value
                for p in family.orders
            )
            assert total == pytest.approx(
                cdf(design, family, target, params, t).value, abs=1e-9
            )

    def test_mass_matches_selection_probability(self, classic_components):
        # second problem: one residual degree of freedom and a target almost
        # orthogonal to the protected coefficient, so the order-2 conditional
        # scale is ~7e-4 of xi_2 and the rejection probability nearly a step
        design, family, _, params = ps.TwoRegressorSetting(
            theta2=0.75, **{**CLASSIC, "n": 3}
        ).components()
        near_step = (design, family, ps.TargetFunctional(np.array([[0.001, 1.0]])), params)
        for design, family, target, params in (classic_components, near_step):
            for p in family.orders:
                known = ps.weighted_conditional_cdf(
                    design, family, target, params, p, 50.0, "known"
                ).value
                assert known == pytest.approx(
                    ps.selection_prob_known(design, family, params, p), abs=1e-9
                )
                unknown = ps.weighted_conditional_cdf(
                    design, family, target, params, p, 50.0, "unknown"
                ).value
                assert unknown == pytest.approx(
                    ps.selection_prob_unknown(design, family, params, p), abs=1e-9
                )

    def test_known_term_densities_match_conditional_closed_forms(self):
        setting = classic_setting(0.75)
        design, family, target, params = setting.components()
        engine = finite_sample_engine(design, family, target, params, "known")
        keep = ps.selection_prob_known(design, family, params, 1)
        for t in np.linspace(-4.0, 4.0, 21):
            t1 = engine.term_density(1, t).value
            t2 = engine.term_density(2, t).value
            assert t1 == pytest.approx(
                keep * ps.two_regressor_density(setting, "cond_m1", t), abs=1e-8
            )
            assert t2 == pytest.approx(
                (1.0 - keep) * ps.two_regressor_density(setting, "cond_m2", t), abs=1e-8
            )


class TestTwoRegressorClosedForm:
    def test_validation(self):
        with pytest.raises(ValueError):
            ps.TwoRegressorSetting(rho=1.0, sigma1=1.0, sigma2=1.0, theta2=0.0, n=7, c2=2.0)
        with pytest.raises(ValueError):
            ps.TwoRegressorSetting(rho=0.0, sigma1=0.0, sigma2=1.0, theta2=0.0, n=7, c2=2.0)
        with pytest.raises(ValueError):
            ps.two_regressor_density(classic_setting(0.0), "bogus", 0.0)

    @pytest.mark.parametrize("variant", ["known", "unknown", "cond_m1", "cond_m2"])
    @pytest.mark.parametrize("theta2", [0.1, 0.75])
    def test_sign_flip_symmetries(self, variant, theta2):
        base = classic_setting(theta2)
        flipped_rho = ps.TwoRegressorSetting(
            rho=-base.rho, sigma1=base.sigma1, sigma2=base.sigma2,
            theta2=base.theta2, n=base.n, c2=base.c2,
        )
        flipped_theta = ps.TwoRegressorSetting(
            rho=base.rho, sigma1=base.sigma1, sigma2=base.sigma2,
            theta2=-base.theta2, n=base.n, c2=base.c2,
        )
        for t in np.linspace(-4.0, 4.0, 17):
            v = ps.two_regressor_density(base, variant, t)
            assert v == pytest.approx(
                ps.two_regressor_density(flipped_rho, variant, -t), abs=1e-12
            )
            assert v == pytest.approx(
                ps.two_regressor_density(flipped_theta, variant, -t), abs=1e-12
            )

    def test_zero_correlation_is_gaussian(self):
        setting = ps.TwoRegressorSetting(
            rho=0.0, sigma1=1.4, sigma2=0.9, theta2=0.5, n=11, c2=1.8
        )
        for t in np.linspace(-4.0, 4.0, 17):
            want = stats.norm.pdf(t / 1.4) / 1.4
            assert ps.two_regressor_density(setting, "known", t) == pytest.approx(
                want, abs=1e-13
            )
            assert ps.two_regressor_density(setting, "unknown", t) == pytest.approx(
                want, abs=1e-11
            )

    @pytest.mark.parametrize("theta2", PANEL_THETA2)
    def test_conditional_mixture_identity(self, theta2):
        setting = classic_setting(theta2)
        keep = ps.delta(1.0, math.sqrt(setting.n) * theta2 / setting.sigma2, setting.c2)
        for t in np.linspace(-5.0, 5.0, 41):
            mix = keep * ps.two_regressor_density(setting, "cond_m1", t) + (
                1.0 - keep
            ) * ps.two_regressor_density(setting, "cond_m2", t)
            assert mix == pytest.approx(
                ps.two_regressor_density(setting, "known", t), abs=1e-12
            )

    def test_conditional_mean_of_kept_model(self):
        # conditional on keeping the smaller model, the density is a shifted
        # Gaussian with mean -sqrt(n) theta2 rho sigma1 / sigma2
        setting = classic_setting(0.75)
        mean, _ = integrate.quad(
            lambda t: t * ps.two_regressor_density(setting, "cond_m1", t), -15, 15
        )
        assert mean == pytest.approx(-math.sqrt(7) * 0.75 * 0.75, abs=1e-9)

    @pytest.mark.parametrize("variant", ["known", "unknown", "cond_m1", "cond_m2"])
    def test_grid_matches_pointwise(self, variant):
        setting = classic_setting(0.75)
        grid = np.linspace(-6.0, 6.0, 241)
        res = _two_regressor_density(setting, variant, grid)
        assert res.converged
        assert np.shape(res.value) == grid.shape
        for t, got in zip(grid, res.value):
            point = _two_regressor_density(setting, variant, float(t))
            assert abs(got - point.value) <= 1e-15


class TestResultInvariants:
    @pytest.mark.parametrize(
        "entry",
        ["cdf_known_variance", "cdf_unknown_variance", "density_known_variance", "limit_cdf",
         "weighted_conditional_cdf", "two_regressor_density", "recentered_cdf",
         "empirical_cdf"],
    )
    def test_nan_argument_rejected(self, classic_components, entry):
        design, family, target, params = classic_components
        kwargs = {}
        if entry == "recentered_cdf":
            args = (design, family, target, params, params.theta)
        elif entry == "empirical_cdf":
            args = (ps.simulate(design, family, target, params, 100, "known", seed=1),)
        elif entry == "limit_cdf":
            limit = ps.LimitParameter(psi=np.array([np.inf, 2.0]), sigma=1.0, Q=design.gram)
            args = (limit, family, target)
        elif entry == "weighted_conditional_cdf":
            args = (design, family, target, params, 1)
            kwargs = {"variant": "known"}
        elif entry == "two_regressor_density":
            args = (classic_setting(0.75), "unknown")
        else:
            args = (design, family, target, params)
        with pytest.raises(ValueError, match="NaN"):
            getattr(ps, entry)(*args, float("nan"), **kwargs)

    def test_evaluation_leaves_no_cyclic_garbage(self, classic_components):
        # engines and their smoothers must be freed by reference counting;
        # a reference cycle leaves each one to the cyclic collector, which
        # slows every evaluation
        design, family, target, params = classic_components
        gc.collect()
        gc.disable()
        try:
            ps.cdf_unknown_variance(design, family, target, params, 0.4)
            ps.density_unknown_variance(design, family, target, params, -1.1)
            ps.two_regressor_density(classic_setting(0.75), "unknown", 0.4)
            ps.cdf_known_variance(design, family, target, params, 0.4)
            ps.density_known_variance(design, family, target, params, -1.1)
            ps.selection_prob_known(design, family, params, 2)
            ps.two_regressor_density(classic_setting(0.75), "known", 0.4)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_error_estimate_covers_gap(self, classic_components):
        design, family, target, params = classic_components
        res = ps.cdf_unknown_variance(design, family, target, params, 1.1)
        assert res.converged
        assert abs(res.value - res.per_model_terms.sum()) <= res.err_est + 1e-15

    def test_k2_cdf_agrees_with_simulation(self):
        gram = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
        design = ps.design_from_gram(50, gram, seed=3)
        family = ps.SelectionFamily(min_order=1, criticals=(2.0, 2.0))
        target = ps.TargetFunctional(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        params = ps.ParameterPoint(theta=np.array([0.5, 0.0, 0.0]), sigma=1.0)
        t = np.array([0.5, 0.8])
        R = 400_000
        for variant, cdf in (
            ("known", ps.cdf_known_variance),
            ("unknown", ps.cdf_unknown_variance),
        ):
            res = cdf(design, family, target, params, t)
            rep = ps.simulate(design, family, target, params, R, variant, seed=31)
            emp = ps.empirical_cdf(rep, t)
            assert res.converged
            assert abs(res.value - emp) <= 3.0 * math.sqrt(0.25 / R) + res.err_est


class TestNearlyDependentTarget:
    """A second target row (1, eps, 0) next to (1, 0, 0): as eps -> 0 the
    bivariate cdf at (0.3, 0.5) tends to the scalar cdf at 0.3, since the
    second coordinate exceeds the first by more than 0.2 with vanishing
    probability.  The order-2 and order-3 components are then nearly
    singular, which a factor taken from the covariance W'W resolves only to
    about eps / eps^2."""

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize(
        "cdf", [ps.cdf_known_variance, ps.cdf_unknown_variance], ids=["known", "unknown"]
    )
    def test_bivariate_cdf_tends_to_scalar_cdf(self, cdf, eps):
        design = synthetic_design(50, 3, 7)
        family = ps.SelectionFamily(min_order=1, criticals=(2.0, 2.0))
        params = ps.ParameterPoint(theta=np.array([0.5, 0.1, 0.0]), sigma=1.0)
        scalar = ps.TargetFunctional(np.array([[1.0, 0.0, 0.0]]))
        pair = ps.TargetFunctional(np.array([[1.0, 0.0, 0.0], [1.0, eps, 0.0]]))
        want = cdf(design, family, scalar, params, 0.3)
        got = cdf(design, family, pair, params, np.array([0.3, 0.5]))
        assert want.converged and got.converged
        assert abs(got.value - want.value) <= got.err_est
