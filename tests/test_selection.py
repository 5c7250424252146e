"""The general-to-specific selector and its exact selection probabilities."""

import math

import numpy as np
import pytest
from scipy import stats

import postselect as ps
from postselect.config import synthetic_design
from postselect.kernels import normals_from_stream

from conftest import classic_setting


def _draw_y(design, params, R, seed):
    u = normals_from_stream(seed, (R, design.n))
    return (design.X @ params.theta)[None, :] + params.sigma * u


class TestSelectModel:
    def test_zero_response_selects_minimal_order(self, classic_components):
        design, family, _, _ = classic_components
        out = ps.select_model(np.zeros(design.n), design, family)
        assert out.p_hat == family.min_order
        assert np.all(out.t_stats == 0.0)

    def test_degenerate_nonzero_fit_raises(self, classic_components):
        design, family, _, _ = classic_components
        y = design.X @ np.array([1.0, 2.0])  # exactly in the span, nonzero fit
        with pytest.raises(ps.DegenerateResidualError):
            ps.select_model(y, design, family)

    def test_top_order_rejection_wins(self, classic_components):
        design, family, _, params = classic_components
        rng = np.random.default_rng(3)
        for _ in range(200):
            y = design.X @ params.theta + rng.standard_normal(design.n)
            out = ps.select_model(y, design, family)
            if abs(out.t_stats[family.P]) >= family.critical(family.P):
                assert out.p_hat == family.P

    def test_outcome_invariants(self, classic_components):
        design, family, _, params = classic_components
        rng = np.random.default_rng(4)
        for _ in range(300):
            y = design.X @ params.theta + rng.standard_normal(design.n)
            out = ps.select_model(y, design, family)
            for q in range(out.p_hat + 1, family.P + 1):
                assert abs(out.t_stats[q]) < family.critical(q)
            if out.p_hat > family.min_order:
                assert abs(out.t_stats[out.p_hat]) >= family.critical(out.p_hat)

    def test_scale_invariance(self, classic_components):
        design, family, _, _ = classic_components
        rng = np.random.default_rng(5)
        y = design.X @ np.array([0.4, 0.2]) + rng.standard_normal(design.n)
        base = ps.select_model(y, design, family)
        scaled = ps.select_model(3.7 * y, design, family)
        assert scaled.p_hat == base.p_hat
        assert scaled.t_stats == pytest.approx(base.t_stats, rel=1e-12)

    def test_known_and_unknown_share_ratios_up_to_scale(self, classic_components):
        design, family, _, params = classic_components
        rng = np.random.default_rng(6)
        y = design.X @ params.theta + rng.standard_normal(design.n)
        u = ps.select_model(y, design, family)
        k = ps.select_model_known_sigma(y, design, family, params.sigma)
        assert u.t_stats[1:] * u.sigma_hat == pytest.approx(
            k.t_stats[1:] * params.sigma, rel=1e-12
        )

    def test_known_sigma_ratio_is_standard_normal_under_null(self, classic_components):
        design, family, _, _ = classic_components
        params = ps.ParameterPoint(theta=np.array([1.0, 0.0]), sigma=1.0)
        R = 100_000
        ys = _draw_y(design, params, R, seed=7)
        # the top-order ratio is exactly standard normal when theta lies in
        # the smaller model
        coef = np.linalg.lstsq(design.X, ys.T, rcond=None)[0]
        t2 = math.sqrt(design.n) * coef[1] / (params.sigma * ps.xi(design, 2))
        d = stats.kstest(t2, "norm").statistic
        assert d <= 1.63 / math.sqrt(R)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_t_ratios_match_per_order_least_squares(self, seed):
        design = synthetic_design(200, 10, seed)
        n, P = design.n, design.P
        family = ps.SelectionFamily(min_order=1, criticals=(2.0,) * (P - 1))
        rng = np.random.default_rng(seed)
        y = design.X @ rng.standard_normal(P) + rng.standard_normal(n)
        out = ps.select_model(y, design, family)
        full = np.linalg.lstsq(design.X, y, rcond=None)[0]
        resid = y - design.X @ full
        scale = math.sqrt(resid @ resid / (n - P))
        want = np.zeros(P + 1)
        for p in range(1, P + 1):
            Xp = design.X[:, :p]
            coef = np.linalg.lstsq(Xp, y, rcond=None)[0]
            xi = math.sqrt(np.linalg.inv(Xp.T @ Xp / n)[-1, -1])
            want[p] = math.sqrt(n) * coef[-1] / (scale * xi)
        assert out.sigma_hat == pytest.approx(scale, rel=1e-12)
        assert out.t_stats == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_shapes(self, classic_components):
        design, family, _, _ = classic_components
        with pytest.raises(ValueError):
            ps.select_model(np.zeros(design.n + 1), design, family)
        with pytest.raises(ValueError):
            ps.select_model_known_sigma(np.zeros(design.n), design, family, -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_response_rejected(self, classic_components, bad):
        # a NaN or inf response has no t-ratios; it must not select min_order
        design, family, _, params = classic_components
        y = np.ones(design.n)
        y[2] = bad
        with pytest.raises(ValueError, match="Y must be finite"):
            ps.select_model(y, design, family)
        with pytest.raises(ValueError, match="Y must be finite"):
            ps.select_model_known_sigma(y, design, family, params.sigma)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, classic_components, sigma):
        # sigma = inf would read every t-ratio as 0
        design, family, _, _ = classic_components
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            ps.select_model_known_sigma(np.ones(design.n), design, family, sigma)

    def test_gram_only_design_rejected(self):
        # observed responses need the regressor matrix, which a design given
        # by its Gram matrix does not have
        design, family, _, params = classic_setting(0.75).components()
        assert design.X is None
        y = np.ones(design.n)
        with pytest.raises(ValueError, match="regressor matrix"):
            ps.select_model(y, design, family)
        with pytest.raises(ValueError, match="regressor matrix"):
            ps.select_model_known_sigma(y, design, family, params.sigma)


class TestSelectionProbKnown:
    def test_classic_weights(self):
        for theta2, want in [(0.75, 0.51), (1.2, 0.12)]:
            design, family, _, params = classic_setting(theta2).components()
            assert ps.selection_prob_known(design, family, params, 1) == pytest.approx(
                want, abs=5e-3
            )

    def test_null_weight_is_two_sided_normal_interval(self):
        design, family, _, params = classic_setting(0.0).components()
        assert ps.selection_prob_known(design, family, params, 1) == pytest.approx(
            0.95609535092468359, abs=1e-12
        )

    def test_sums_to_one_and_positive(self):
        design, family, _, params = classic_setting(0.4).components()
        vals = [ps.selection_prob_known(design, family, params, p) for p in family.orders]
        assert all(v > 0.0 for v in vals)
        assert sum(vals) == pytest.approx(1.0, abs=1e-12)

    def test_matches_monte_carlo(self):
        design, family, target, params = classic_setting(0.75).components()
        R = 300_000
        rep = ps.simulate(design, family, target, params, R, "known", seed=17)
        for p in family.orders:
            pi = ps.selection_prob_known(design, family, params, p)
            freq = float(np.mean(rep.selected == p))
            assert abs(freq - pi) <= 3.0 * math.sqrt(pi * (1 - pi) / R)


class TestSelectionProbUnknown:
    def test_sums_to_one_and_positive(self):
        design, family, _, params = classic_setting(0.75).components()
        vals = [
            ps.selection_prob_unknown(design, family, params, p) for p in family.orders
        ]
        assert all(v > 0.0 for v in vals)
        assert sum(vals) == pytest.approx(1.0, abs=1e-9)

    def test_null_weight_is_t_interval(self):
        design, family, _, params = classic_setting(0.0).components()
        want = 1.0 - 2.0 * stats.t.sf(2.015, design.n - design.P)
        assert ps.selection_prob_unknown(design, family, params, 1) == pytest.approx(
            want, abs=1e-9
        )

    def test_matches_monte_carlo(self):
        design, family, target, params = classic_setting(0.75).components()
        R = 300_000
        rep = ps.simulate(design, family, target, params, R, "unknown", seed=19)
        for p in family.orders:
            pi = ps.selection_prob_unknown(design, family, params, p)
            freq = float(np.mean(rep.selected == p))
            assert abs(freq - pi) <= 3.0 * math.sqrt(pi * (1 - pi) / R)

    def test_approaches_limit_for_large_n(self, classic_gram):
        # fixed parameters in the smaller model: the selection probability of
        # the smaller model tends to the two-sided normal interval weight
        setting = ps.TwoRegressorSetting(
            rho=0.75, sigma1=1.0, sigma2=1.0, theta2=0.0, n=1000, c2=2.015
        )
        design, family, _, params = setting.components()
        val = ps.selection_prob_unknown(design, family, params, 1)
        assert abs(val - 0.95609535092468359) < 0.01

    def test_known_unknown_gap_shrinks_with_n(self):
        psi2 = math.sqrt(7) * 0.75
        gaps = []
        for n in (7, 20, 100, 1000):
            setting = ps.TwoRegressorSetting(
                rho=0.75, sigma1=1.0, sigma2=1.0, theta2=psi2 / math.sqrt(n), n=n, c2=2.015
            )
            design, family, _, params = setting.components()
            gap = max(
                abs(
                    ps.selection_prob_unknown(design, family, params, p)
                    - ps.selection_prob_known(design, family, params, p)
                )
                for p in family.orders
            )
            gaps.append(gap)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
