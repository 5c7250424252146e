"""Simulation oracle: determinism, statistical agreement, report utilities."""

import math
import os
import warnings

import numpy as np
import pytest
from scipy import stats

import postselect as ps
from postselect.config import synthetic_design
from postselect.kernels import normals_from_stream
from postselect.montecarlo import write_report_csv
from postselect.selection import _largest_admissible, _tstats_and_scale

from conftest import (
    CLASSIC,
    classic_components_with_matrix,
    classic_setting,
    design_with_matrix,
)


def p10_components():
    """A seeded P = 10, n = 200 design with a sparse theta and the first
    coefficient as target."""
    design = synthetic_design(200, 10, 7)
    family = ps.SelectionFamily(min_order=1, criticals=(1.96,) * 9)
    target = ps.TargetFunctional(np.eye(10)[:1])
    theta = np.array([1.0, 0.15, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
    return design, family, target, ps.ParameterPoint(theta=theta, sigma=1.0)


def order0_k2_components():
    """P = 3 with minimal order 0 (the empty model) and a bivariate target."""
    gram = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
    design = design_with_matrix(50, gram, seed=3)
    family = ps.SelectionFamily(min_order=0, criticals=(2.0, 2.0, 2.0))
    target = ps.TargetFunctional(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    params = ps.ParameterPoint(theta=np.array([0.5, 0.3, 0.0]), sigma=1.0)
    return design, family, target, params


PROBLEMS = {
    "classic": classic_components_with_matrix,
    "p10": p10_components,
    "order0_k2": order0_k2_components,
}


def full_response_procedure(design, family, target, params, R, variant, seed):
    """The select-then-estimate procedure on simulated responses.

    Draws Y = X theta + sigma u in full, selects from its t-ratios and fits
    each selected order by its own least squares.
    """
    Y = design.X @ params.theta + params.sigma * normals_from_stream(seed, (R, design.n))
    t, _ = _tstats_and_scale(design, Y, None if variant == "unknown" else params.sigma)
    selected = _largest_admissible(family, t)
    draws = np.empty((R, target.A.shape[0]))
    for p in family.orders:
        rows = selected == p
        coef = np.zeros((design.P, int(rows.sum())))
        if p > 0:
            coef[:p] = np.linalg.lstsq(design.X[:, :p], Y[rows].T, rcond=None)[0]
        draws[rows] = (math.sqrt(design.n) * target.A @ (coef - params.theta[:, None])).T
    return draws, selected


class TestDeterminism:
    def test_bitwise_reproducible(self, classic_components):
        design, family, target, params = classic_components
        a = ps.simulate(design, family, target, params, 30_000, "unknown", seed=1)
        b = ps.simulate(design, family, target, params, 30_000, "unknown", seed=1)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.selected, b.selected)

    def test_worker_count_does_not_change_results(self, classic_components):
        design, family, target, params = classic_components
        one = ps.simulate(design, family, target, params, 50_000, "known", seed=2, workers=1)
        eight = ps.simulate(design, family, target, params, 50_000, "known", seed=2, workers=8)
        assert np.array_equal(one.draws, eight.draws)
        assert np.array_equal(one.selected, eight.selected)

    def test_thread_env_cap_respected(self, classic_components, monkeypatch):
        design, family, target, params = classic_components
        monkeypatch.setenv("POSTSEL_THREADS", "2")
        a = ps.simulate(design, family, target, params, 30_000, "unknown", seed=3)
        monkeypatch.setenv("POSTSEL_THREADS", "5")
        b = ps.simulate(design, family, target, params, 30_000, "unknown", seed=3)
        assert np.array_equal(a.draws, b.draws)

    def test_different_seeds_differ(self, classic_components):
        design, family, target, params = classic_components
        a = ps.simulate(design, family, target, params, 1000, "unknown", seed=4)
        b = ps.simulate(design, family, target, params, 1000, "unknown", seed=5)
        assert not np.array_equal(a.draws, b.draws)

    @pytest.mark.parametrize("variant", ["known", "unknown"])
    def test_design_enters_only_through_its_gram(self, variant):
        # the simulator reads n and X'X/n: a Gram-only copy of an X-built
        # design gives the same report bit for bit
        built, family, target, params = p10_components()
        gram_only = ps.design_from_gram(built.n, built.gram)
        a = ps.simulate(built, family, target, params, 20_000, variant, seed=23)
        b = ps.simulate(gram_only, family, target, params, 20_000, variant, seed=23)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.selected, b.selected)

    def test_rejects_wrong_theta_length(self, classic_components):
        design, family, target, _ = classic_components
        params = ps.ParameterPoint(theta=np.zeros(3), sigma=1.0)
        with pytest.raises(ValueError, match="theta length inconsistent with design"):
            ps.simulate(design, family, target, params, 100)


class TestSimulationStatistics:
    def test_vanishing_noise_shrinks_draws_but_not_selection(self, classic_components):
        # t-ratios are scale-free, so the selection law at theta = 0 does not
        # depend on sigma; only the draws collapse with the noise
        design, family, target, _ = classic_components
        params = ps.ParameterPoint(theta=np.zeros(2), sigma=1e-8)
        rep = ps.simulate(design, family, target, params, 100_000, "unknown", seed=6)
        assert np.max(np.abs(rep.draws)) < 1e-6
        pi = ps.selection_prob_unknown(design, family, params, family.min_order)
        freq = float(np.mean(rep.selected == family.min_order))
        assert abs(freq - pi) <= 3.0 * math.sqrt(pi * (1 - pi) / rep.R)

    def test_selection_frequencies_match_analytic(self):
        design, family, target, params = classic_setting(0.75).components()
        R = 200_000
        for variant, prob in (
            ("known", ps.selection_prob_known),
            ("unknown", ps.selection_prob_unknown),
        ):
            rep = ps.simulate(design, family, target, params, R, variant, seed=7)
            for p in family.orders:
                pi = prob(design, family, params, p)
                freq = float(np.mean(rep.selected == p))
                assert abs(freq - pi) <= 3.0 * math.sqrt(pi * (1.0 - pi) / R)

    def test_conditional_mean_given_kept_model(self):
        # conditional on keeping the restricted model, the draw mean is the
        # negated scaled bias -sqrt(n) theta2 rho sigma1/sigma2 ~ -1.488
        design, family, target, params = classic_setting(0.75).components()
        R = 400_000
        rep = ps.simulate(design, family, target, params, R, "known", seed=8)
        kept = rep.draws[rep.selected == 1, 0]
        want = -math.sqrt(7) * 0.75 * 0.75
        sd = 1.0 * math.sqrt(1 - 0.75**2)
        assert abs(kept.mean() - want) <= 3.0 * sd / math.sqrt(kept.size)

    @pytest.mark.parametrize("variant", ["known", "unknown"])
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_full_response_procedure_agrees_in_law(self, problem, variant):
        # the simulator draws only the sufficient statistics (Q'y, RSS); the
        # procedure run on whole responses must give the same law: per-order
        # selection frequencies within 4 two-sample standard errors, and
        # per-order draws that a two-sample KS test does not tell apart
        # (p-value floor 1e-4)
        design, family, target, params = PROBLEMS[problem]()
        R = 20_000 if problem == "p10" else 40_000
        rep = ps.simulate(design, family, target, params, R, variant, seed=19)
        draws, selected = full_response_procedure(
            design, family, target, params, R, variant, seed=20
        )
        for p in family.orders:
            a, b = rep.selected == p, selected == p
            pooled = 0.5 * (a.mean() + b.mean())
            assert abs(a.mean() - b.mean()) <= 4.0 * math.sqrt(2.0 * pooled * (1 - pooled) / R)
            if min(a.sum(), b.sum()) >= 50:
                for j in range(target.A.shape[0]):
                    ks = stats.ks_2samp(rep.draws[a, j], draws[b, j], method="asymp")
                    assert ks.pvalue >= 1e-4, (p, j, ks)

    @pytest.mark.parametrize(
        "variant, prob",
        [("known", ps.selection_prob_known), ("unknown", ps.selection_prob_unknown)],
    )
    def test_p10_selection_frequencies_match_exact(self, variant, prob):
        # ten orders per variant: 4 standard errors keep the chance of a
        # false alarm among them below 1e-3
        design, family, target, params = p10_components()
        R = 200_000
        rep = ps.simulate(design, family, target, params, R, variant, seed=21)
        for p in family.orders:
            pi = prob(design, family, params, p)
            freq = float(np.mean(rep.selected == p))
            assert abs(freq - pi) <= 4.0 * math.sqrt(pi * (1.0 - pi) / R)

    @pytest.mark.parametrize(
        "variant, prob",
        [("known", ps.selection_prob_known), ("unknown", ps.selection_prob_unknown)],
    )
    def test_one_residual_degree_of_freedom(self, variant, prob):
        # n - P = 1: the residual scale is sigma times the root of a one-df
        # chi-square, so scales near zero are common
        setting = ps.TwoRegressorSetting(theta2=0.75, **{**CLASSIC, "n": 3})
        design, family, target, params = setting.components()
        R = 200_000
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = ps.simulate(design, family, target, params, R, variant, seed=22)
        assert np.all(np.isfinite(rep.draws))
        for p in family.orders:
            pi = prob(design, family, params, p)
            freq = float(np.mean(rep.selected == p))
            assert abs(freq - pi) <= 3.0 * math.sqrt(pi * (1.0 - pi) / R)

    def test_same_stream_variants_agree_where_selection_agrees(self, classic_components):
        design, family, target, params = classic_components
        a = ps.simulate(design, family, target, params, 20_000, "known", seed=9)
        b = ps.simulate(design, family, target, params, 20_000, "unknown", seed=9)
        same = a.selected == b.selected
        assert same.mean() > 0.8  # the two scalings mostly agree
        assert np.allclose(a.draws[same], b.draws[same])

    def test_report_mixture_identity(self, classic_components):
        design, family, target, params = classic_components
        rep = ps.simulate(design, family, target, params, 50_000, "unknown", seed=10)
        for t in (-1.0, 0.5, 2.0):
            total = ps.empirical_cdf(rep, t)
            parts = 0.0
            for p in family.orders:
                mask = rep.selected == p
                if mask.any():
                    parts += mask.mean() * np.mean(rep.draws[mask, 0] <= t)
            assert total == pytest.approx(parts, abs=1e-12)


class TestEmpiricalCdf:
    def test_extremes(self, classic_components):
        design, family, target, params = classic_components
        rep = ps.simulate(design, family, target, params, 1000, "unknown", seed=11)
        assert ps.empirical_cdf(rep, 1e9) == 1.0
        assert ps.empirical_cdf(rep, -1e9) == 0.0

    def test_single_draw_inclusive(self):
        rep = ps.SimulationReport(
            draws=np.zeros((1, 1)), selected=np.array([1]), seed=0
        )
        assert ps.empirical_cdf(rep, 0.0) == 1.0


    def test_short_point_rejected(self):
        # a scalar t must not be broadcast against bivariate draws
        rep = ps.SimulationReport(draws=np.zeros((5, 2)), selected=np.ones(5, dtype=int), seed=0)
        with pytest.raises(ValueError, match="t must have length 2"):
            ps.empirical_cdf(rep, 0.3)


class TestKsDistance:
    def test_self_distance_zero(self, classic_components):
        design, family, target, params = classic_components
        rep = ps.simulate(design, family, target, params, 2000, "unknown", seed=12)
        grid = ps.ks_grid(rep, points=31)
        assert ps.ks_distance(rep, lambda t: ps.empirical_cdf(rep, t), grid) == 0.0

    def test_standard_normal_band(self):
        from postselect.kernels import normals_from_stream

        R = 100_000
        draws = normals_from_stream(13, (R, 1))
        rep = ps.SimulationReport(draws=draws, selected=np.ones(R, dtype=int), seed=13)
        grid = ps.ks_grid(rep)
        d = ps.ks_distance(rep, lambda t: stats.norm.cdf(t), grid)
        assert d <= 1.63 / math.sqrt(R)

    def test_grid_spans_five_sd(self, classic_components):
        design, family, target, params = classic_components
        rep = ps.simulate(design, family, target, params, 5000, "unknown", seed=14)
        grid = ps.ks_grid(rep, points=101)
        assert grid.size == 101
        assert grid[0] < rep.draws.mean() - 4.9 * rep.draws.std()


class TestNoncentralTPower:
    def test_size_under_null(self):
        R = 400_000
        est = ps.power_check_noncentral_t(5, 0.0, 2.015, R, seed=15)
        se = math.sqrt(0.05 * 0.95 / R)
        assert abs(est - 0.05) <= 3.0 * se

    @pytest.mark.parametrize("ncp", [1.2, math.sqrt(7) * 1.2])
    def test_matches_noncentral_t_distribution(self, ncp):
        R = 400_000
        est = ps.power_check_noncentral_t(5, ncp, 2.015, R, seed=16)
        want = stats.nct.sf(2.015, 5, ncp)
        se = math.sqrt(want * (1.0 - want) / R)
        assert abs(est - want) <= 3.0 * se

    def test_infinite_threshold(self):
        assert ps.power_check_noncentral_t(5, 1.0, np.inf, 1000, seed=17) == 0.0

    def test_validates(self):
        with pytest.raises(ValueError):
            ps.power_check_noncentral_t(0, 1.0, 2.0, 10)
        with pytest.raises(ValueError):
            ps.power_check_noncentral_t(5, 1.0, 2.0, 0)


def per_row_report_csv(report, path, meta=None):
    """Reference writer: one ``format(x, ".17g")`` per value, row by row."""
    cols = [f"draw_{i + 1}" for i in range(report.k)] + ["selected"]
    with open(path, "w", newline="") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        fh.write(",".join(cols) + "\n")
        for r in range(report.R):
            vals = [format(x, ".17g") for x in report.draws[r]]
            vals.append(str(int(report.selected[r])))
            fh.write(",".join(vals) + "\n")


class TestReportCsv:
    def test_roundtrip(self, classic_components, tmp_path):
        design, family, target, params = classic_components
        rep = ps.simulate(design, family, target, params, 500, "unknown", seed=18)
        path = tmp_path / "report.csv"
        write_report_csv(rep, path, meta={"seed": 18})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# seed=18")
        assert lines[1] == "draw_1,selected"
        assert len(lines) == 2 + rep.R
        draws = np.array([float(l.split(",")[0]) for l in lines[2:]])
        sel = np.array([int(l.split(",")[1]) for l in lines[2:]])
        assert np.array_equal(draws, rep.draws[:, 0])
        assert np.array_equal(sel, rep.selected)

    def test_two_components_match_per_row_writer(self, tmp_path):
        # more rows than one formatting block, with signed zero, infinities,
        # nan, a subnormal and a huge value
        R = 70_000
        draws = normals_from_stream(23, (R, 2)) * 10.0 ** np.linspace(-150, 150, R)[:, None]
        draws[:6, 0] = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 5e300]
        draws[-3:, 1] = [np.nan, -0.0, 1.0 / 3.0]
        selected = np.arange(R) % 4
        rep = ps.SimulationReport(draws=draws, selected=selected, seed=23)
        write_report_csv(rep, tmp_path / "fast.csv", meta={"seed": 23, "k": 2})
        per_row_report_csv(rep, tmp_path / "ref.csv", meta={"seed": 23, "k": 2})
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
