"""Large-sample limits: limit bias, limit cdf, limit selection probabilities."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import postselect as ps
from postselect.asymptotic import limit_engine
from postselect.config import parse_config
from postselect.distribution import finite_sample_engine

from conftest import classic_setting
from test_montecarlo import p10_components

GENERAL_DESIGN_INI = Path(__file__).resolve().parents[1] / "scripts/configs/general_design.ini"


def _fixed_limit_oracle_two_regressor(Q, sigma, c2, t):
    """Hand-coded fixed-parameter limit cdf for P=2, min order 1, target (1,0).

    Written directly from the two-term structure with plain scipy calls,
    independent of the package's mixture engine.
    """
    Qinv = np.linalg.inv(Q)
    xi2 = math.sqrt(Qinv[1, 1])
    sd_full = sigma * math.sqrt(Qinv[0, 0])
    sd_restricted = sigma * math.sqrt(1.0 / Q[0, 0])
    C = Qinv[0, 1]
    b = C / Qinv[0, 0]
    zeta = math.sqrt(xi2**2 - b * C)
    width = c2 * sigma * xi2

    def accept(center, s):
        return stats.norm.cdf((center + width) / s) - stats.norm.cdf((center - width) / s)

    term1 = stats.norm.cdf(t / sd_restricted) * accept(0.0, sigma * xi2)
    term2, _ = integrate.quad(
        lambda z: (1.0 - accept(b * z, sigma * zeta))
        * stats.norm.pdf(z / sd_full)
        / sd_full,
        -10.0 * sd_full,
        t,
        epsabs=1e-12,
        limit=300,
    )
    return term1 + term2


class TestPStar:
    def test_all_finite_gives_min_order(self):
        family = ps.SelectionFamily(min_order=1, criticals=(2.0, 2.0))
        assert ps.p_star(np.array([1.0, 2.0, 3.0]), family) == 1

    def test_protected_infinite_entry_ignored(self):
        family = ps.SelectionFamily(min_order=1, criticals=(2.0, 2.0))
        assert ps.p_star(np.array([np.inf, 3.0, 0.0]), family) == 1

    def test_largest_divergent_tested_order(self):
        family = ps.SelectionFamily(min_order=0, criticals=(2.0, 2.0, 2.0))
        assert ps.p_star(np.array([2.0, -np.inf, 0.0]), family) == 2


class TestLimitBias:
    def test_identity_gram(self):
        limit = ps.LimitParameter(
            psi=np.array([1.0, 2.0, -3.0]), sigma=1.0, Q=np.eye(3)
        )
        assert ps.limit_bias(limit, 1) == pytest.approx([0.0, -2.0, 3.0])

    def test_full_order_is_zero(self):
        limit = ps.LimitParameter(
            psi=np.array([np.inf, 2.0]), sigma=1.0, Q=np.eye(2) + 0.3
        )
        assert ps.limit_bias(limit, 2) == pytest.approx([0.0, 0.0])

    def test_two_by_two_cross_block(self):
        g = 1.7
        limit = ps.LimitParameter(
            psi=np.array([np.inf, g]), sigma=1.0, Q=np.array([[1.0, 0.5], [0.5, 1.0]])
        )
        assert ps.limit_bias(limit, 1) == pytest.approx([0.5 * g, -g], abs=1e-12)

    def test_zero_order_negates(self):
        limit = ps.LimitParameter(psi=np.array([1.0, -2.0]), sigma=1.0, Q=np.eye(2))
        assert ps.limit_bias(limit, 0) == pytest.approx([-1.0, 2.0])

    def test_divergent_tail_rejected(self):
        limit = ps.LimitParameter(psi=np.array([0.0, np.inf]), sigma=1.0, Q=np.eye(2))
        with pytest.raises(ValueError):
            ps.limit_bias(limit, 1)
        assert np.all(np.isfinite(ps.limit_bias(limit, 2)))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ps.LimitParameter(psi=np.array([0.0]), sigma=0.0, Q=np.eye(1))
        with pytest.raises(ValueError):
            ps.LimitParameter(psi=np.zeros(2), sigma=1.0, Q=np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestLimitCdf:
    def test_fixed_parameter_form_matches_independent_oracle(self, classic_gram):
        family = ps.SelectionFamily(min_order=1, criticals=(2.015,))
        target = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        limit = ps.LimitParameter(
            psi=np.array([np.inf, 0.0]), sigma=1.0, Q=classic_gram
        )
        for t in np.linspace(-4.0, 4.0, 17):
            want = _fixed_limit_oracle_two_regressor(classic_gram, 1.0, 2.015, t)
            got = ps.limit_cdf(limit, family, target, t)
            assert got.value == pytest.approx(want, abs=1e-9)

    def test_zero_asymptotic_correlation_reduces_to_gaussian(self):
        # identity Gram: above the protected order the transform carries no
        # information on the tested coefficient, so the limit is the plain
        # full-model Gaussian cdf
        family = ps.SelectionFamily(min_order=1, criticals=(2.015,))
        target = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        for psi2 in (0.0, 1.3):
            limit = ps.LimitParameter(
                psi=np.array([np.inf, psi2]), sigma=2.0, Q=np.eye(2)
            )
            for t in np.linspace(-5.0, 5.0, 21):
                got = ps.limit_cdf(limit, family, target, t)
                assert got.value == pytest.approx(stats.norm.cdf(t / 2.0), abs=1e-9)

    def test_terms_below_p_star_are_zero(self, classic_gram):
        family = ps.SelectionFamily(min_order=0, criticals=(2.0, 2.0))
        target = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        limit = ps.LimitParameter(psi=np.array([np.inf, 0.5]), sigma=1.0, Q=classic_gram)
        res = ps.limit_cdf(limit, family, target, 0.7)
        assert res.per_model_terms[0] == 0.0  # order 0 lost all mass

    def test_finite_sample_at_matching_gram_coincides(self, classic_gram):
        # when the design Gram equals Q exactly and theta = gamma/sqrt(n), the
        # known-scale finite-sample cdf is structurally identical to the limit
        family = ps.SelectionFamily(min_order=1, criticals=(2.015,))
        target = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        n = 10_000
        design = ps.design_from_gram(n, classic_gram, seed=2)
        gamma = np.array([0.0, math.sqrt(7) * 0.75])
        theta_n = gamma / math.sqrt(n)
        params = ps.ParameterPoint(theta=theta_n, sigma=1.0)
        for t in (-2.0, 0.0, 1.5):
            fin = ps.cdf_known_variance(design, family, target, params, t).value
            lim = ps.local_alternative_limit(
                np.zeros(2), gamma, 1.0, design.gram, family, target, t
            ).value
            assert fin == pytest.approx(lim, abs=1e-10)

    def test_finite_sample_converges_along_noisy_designs(self):
        # rows drawn iid with second-moment matrix Q: the sample Gram differs
        # from Q by O(1/sqrt(n)) and the finite-sample cdf approaches the
        # Q-limit
        Q = np.linalg.inv(np.array([[1.0, 0.75], [0.75, 1.0]]))
        family = ps.SelectionFamily(min_order=1, criticals=(2.015,))
        target = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        gamma = np.array([0.0, math.sqrt(7) * 0.75])
        chol = np.linalg.cholesky(Q)
        rng = np.random.default_rng(99)
        grid = np.linspace(-4.0, 4.0, 21)
        sups = []
        for n in (100, 1000, 10_000):
            design = ps.RegressionDesign(rng.standard_normal((n, 2)) @ chol.T)
            params = ps.ParameterPoint(theta=gamma / math.sqrt(n), sigma=1.0)
            sup = 0.0
            for t in grid:
                fin = ps.cdf_known_variance(design, family, target, params, t).value
                lim = ps.local_alternative_limit(
                    np.zeros(2), gamma, 1.0, Q, family, target, t
                ).value
                sup = max(sup, abs(fin - lim))
            sups.append(sup)
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 0.01


def _general_design_problem():
    cfg = parse_config(GENERAL_DESIGN_INI)
    return cfg.design, cfg.family, cfg.target, cfg.params


class TestFiniteSampleIsLimitEngine:
    """The known-scale finite-sample engine at (X'X/n, sigma, theta) is the
    limit engine at psi = sqrt(n) theta with Q = X'X/n, value for value."""

    @pytest.mark.parametrize(
        "problem,points",
        [
            (lambda: classic_setting(0.75).components(), [[-1.0], [0.5]]),
            (p10_components, [[-0.4], [0.3]]),
            (_general_design_problem, [[0.15, 0.25], [-0.5, 1.0]]),
        ],
        ids=["classic_n7", "p10", "general_design_k2"],
    )
    def test_bit_identical(self, problem, points):
        design, family, target, params = problem()
        finite = finite_sample_engine(design, family, target, params, "known")
        limit = ps.LimitParameter(
            psi=math.sqrt(design.n) * params.theta, sigma=params.sigma, Q=design.gram
        )
        lim = limit_engine(limit, family, target)
        for t in points:
            a, b = finite.cdf(np.array(t)), lim.cdf(np.array(t))
            assert a.value == b.value
            assert np.array_equal(a.per_model_terms, b.per_model_terms)
        for p in family.orders:
            assert finite.weight(p).value == lim.weight(p).value
            comp = ps.gaussian_component(design, target, params, p)
            for engine in (finite, lim):
                assert np.array_equal(comp.mean_shift, engine.component(p).mean_shift)
                assert np.array_equal(comp.covariance, engine.component(p).covariance)
                assert comp.rank == engine.component(p).rank


class TestLimitSelectionProb:
    def test_sums_to_one(self, classic_gram):
        family = ps.SelectionFamily(min_order=1, criticals=(2.015,))
        for psi in ([np.inf, 0.0], [np.inf, 1.4], [0.3, -0.7]):
            limit = ps.LimitParameter(psi=np.array(psi), sigma=1.0, Q=classic_gram)
            total = sum(ps.limit_selection_prob(limit, family, p) for p in family.orders)
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_fixed_parameter_values(self, classic_gram):
        # psi = (inf, 0): acceptance of the top test at center 0
        family = ps.SelectionFamily(min_order=1, criticals=(2.015,))
        limit = ps.LimitParameter(psi=np.array([np.inf, 0.0]), sigma=1.0, Q=classic_gram)
        assert ps.limit_selection_prob(limit, family, 1) == pytest.approx(
            0.95609535092468359, abs=1e-12
        )
        assert ps.limit_selection_prob(limit, family, 2) == pytest.approx(
            1.0 - 0.95609535092468359, abs=1e-12
        )

    def test_vanishes_below_p_star(self, classic_gram):
        family = ps.SelectionFamily(min_order=1, criticals=(2.015,))
        limit = ps.LimitParameter(psi=np.array([0.0, np.inf]), sigma=1.0, Q=classic_gram)
        assert ps.limit_selection_prob(limit, family, 1) == 0.0
        assert ps.limit_selection_prob(limit, family, 2) == 1.0

    def test_matches_large_n_finite_sample(self, classic_gram):
        family = ps.SelectionFamily(min_order=1, criticals=(2.015,))
        n = 10_000
        design = ps.design_from_gram(n, classic_gram, seed=8)
        psi2 = math.sqrt(7) * 0.75
        params = ps.ParameterPoint(
            theta=np.array([1.0, psi2 / math.sqrt(n)]), sigma=1.0
        )
        limit = ps.LimitParameter(
            psi=np.array([np.inf, psi2]), sigma=1.0, Q=classic_gram
        )
        for p in family.orders:
            lim = ps.limit_selection_prob(limit, family, p)
            assert abs(ps.selection_prob_known(design, family, params, p) - lim) < 0.01
            assert abs(
                ps.selection_prob_unknown(design, family, params, p) - lim
            ) < 0.01


class TestLocalAlternatives:
    def test_shift_vector_construction(self):
        psi = ps.local_shift_vector(np.array([0.0, -2.0, 0.0]), np.array([1.0, 5.0, -3.0]))
        assert psi[0] == 1.0
        assert psi[1] == -np.inf
        assert psi[2] == -3.0

    def test_zero_theta_keeps_gamma(self, classic_gram):
        family = ps.SelectionFamily(min_order=0, criticals=(2.0, 2.0))
        target = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        gamma = np.array([0.4, -0.9])
        got = ps.local_alternative_limit(
            np.zeros(2), gamma, 1.0, classic_gram, family, target, 0.6
        )
        limit = ps.LimitParameter(psi=gamma, sigma=1.0, Q=classic_gram)
        want = ps.limit_cdf(limit, family, target, 0.6)
        assert got.value == pytest.approx(want.value, abs=1e-12)

    def test_full_order_theta_gives_plain_gaussian(self, classic_gram):
        family = ps.SelectionFamily(min_order=1, criticals=(2.015,))
        target = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        theta = np.array([0.5, -0.8])  # order P: no selection effect survives
        sd = math.sqrt(np.linalg.inv(classic_gram)[0, 0])
        for t in (-1.0, 0.3, 2.2):
            got = ps.local_alternative_limit(
                theta, np.zeros(2), 1.0, classic_gram, family, target, t
            )
            assert got.value == pytest.approx(stats.norm.cdf(t / sd), abs=1e-12)

    def test_matches_large_n_finite_sample(self, classic_gram):
        family = ps.SelectionFamily(min_order=1, criticals=(2.015,))
        target = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        n = 10_000
        design = ps.design_from_gram(n, classic_gram, seed=12)
        theta = np.array([1.0, 0.0])
        gamma = np.array([0.0, math.sqrt(7) * 0.75])
        params = ps.ParameterPoint(theta=theta + gamma / math.sqrt(n), sigma=1.0)
        for t in np.linspace(-3.0, 3.0, 13):
            fin = ps.cdf_unknown_variance(design, family, target, params, t).value
            lim = ps.local_alternative_limit(
                theta, gamma, 1.0, design.gram, family, target, t
            ).value
            assert abs(fin - lim) < 0.01

    def test_fixed_parameter_limit_reached_at_n_1000(self, classic_gram):
        # data-driven cdf at a fixed parameter in the smaller model, against
        # the fixed-parameter limit (zero local shift), full 101-point grid
        family = ps.SelectionFamily(min_order=1, criticals=(2.015,))
        target = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        design = ps.design_from_gram(1000, classic_gram, seed=13)
        theta = np.array([1.0, 0.0])
        params = ps.ParameterPoint(theta=theta, sigma=1.0)
        sup = 0.0
        for t in np.linspace(-5.0, 5.0, 101):
            fin = ps.cdf_unknown_variance(design, family, target, params, t).value
            lim = ps.local_alternative_limit(
                theta, np.zeros(2), 1.0, design.gram, family, target, t
            ).value
            sup = max(sup, abs(fin - lim))
        assert sup < 0.01

    def test_limit_term_masses_equal_limit_selection_probs(self, classic_gram):
        family = ps.SelectionFamily(min_order=1, criticals=(2.015,))
        target = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        limit = ps.LimitParameter(
            psi=np.array([np.inf, 1.4]), sigma=1.0, Q=classic_gram
        )
        res = ps.limit_cdf(limit, family, target, 60.0)
        for i, p in enumerate(family.orders):
            assert res.per_model_terms[i] == pytest.approx(
                ps.limit_selection_prob(limit, family, p), abs=1e-9
            )


class TestRecentered:
    def test_centering_at_theta_is_identity(self, classic_components):
        design, family, target, params = classic_components
        for t in (-0.7, 0.9):
            got = ps.recentered_cdf(design, family, target, params, params.theta, t)
            want = ps.cdf_unknown_variance(design, family, target, params, t)
            assert got.value == pytest.approx(want.value, abs=1e-12)

    def test_pure_argument_shift(self, classic_components):
        design, family, target, params = classic_components
        nu = 0.9
        d = params.theta + nu / math.sqrt(design.n) * np.array([1.0, 0.0])
        got = ps.recentered_cdf(design, family, target, params, d, 0.2)
        want = ps.cdf_unknown_variance(design, family, target, params, 0.2 + nu)
        assert got.value == pytest.approx(want.value, abs=1e-10)

    def test_wrong_length_point_rejected(self):
        # a scalar t must not be broadcast against the bivariate target
        design, family, target, params = _general_design_problem()
        with pytest.raises(ValueError, match="t must have length 2"):
            ps.recentered_cdf(design, family, target, params, params.theta, 0.3)

    def test_divergent_centering_degenerates(self, classic_components):
        design, family, target, params = classic_components
        d = params.theta + np.array([100.0, 0.0])
        res = ps.recentered_cdf(design, family, target, params, d, 0.0)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        d = params.theta - np.array([100.0, 0.0])
        res = ps.recentered_cdf(design, family, target, params, d, 0.0)
        assert res.value == pytest.approx(0.0, abs=1e-9)
