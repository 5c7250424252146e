"""Design/family/target types and the deterministic moment quantities."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import postselect as ps
from postselect import model
from postselect.config import synthetic_design
from postselect.model import (
    IllConditionedError,
    design_from_gram,
    gram_factor,
    order_fit,
    order_operator,
    order_shift,
    xi_from_factor,
)


def _design_with_gram(n, gram, seed=0):
    return design_from_gram(n, np.asarray(gram, dtype=float), seed=seed)


class TestTypes:
    def test_design_validation(self):
        with pytest.raises(ValueError):
            ps.RegressionDesign(np.ones((3, 3)))  # n == P
        with pytest.raises(ValueError):
            ps.RegressionDesign(np.ones((5, 2)))  # rank deficient
        with pytest.raises(ValueError):
            ps.RegressionDesign(np.array([[1.0, np.nan], [0.0, 1.0], [1.0, 2.0]]))
        d = ps.RegressionDesign(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]]))
        assert (d.n, d.P) == (3, 2)
        with pytest.raises(ValueError):
            d.X[0, 0] = 5.0  # immutable

    def test_family_validation(self):
        fam = ps.SelectionFamily(min_order=1, criticals=(2.015,))
        assert fam.P == 2
        assert fam.critical(1) == 0.0
        assert fam.critical(2) == 2.015
        with pytest.raises(ValueError):
            fam.critical(3)
        with pytest.raises(ValueError):
            ps.SelectionFamily(min_order=-1, criticals=(1.0,))
        with pytest.raises(ValueError):
            ps.SelectionFamily(min_order=0, criticals=())
        with pytest.raises(ValueError):
            ps.SelectionFamily(min_order=0, criticals=(0.0,))
        with pytest.raises(ValueError):
            ps.SelectionFamily(min_order=0, criticals=(np.inf,))

    def test_target_validation(self):
        with pytest.raises(ValueError):
            ps.TargetFunctional(np.ones((2, 2)))  # rank 1
        with pytest.raises(ValueError):
            ps.TargetFunctional(np.ones((3, 2)))  # k > P
        t = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        assert (t.k, t.P) == (1, 2)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ps.ParameterPoint(theta=np.array([1.0]), sigma=0.0)
        with pytest.raises(ValueError):
            ps.ParameterPoint(theta=np.array([np.inf]), sigma=1.0)


class TestOrderOf:
    def test_examples(self):
        assert ps.order_of(np.zeros(4)) == 0
        assert ps.order_of(np.array([3.0, 0.0, 0.0])) == 1
        assert ps.order_of(np.array([0.0, -2.0, 0.0, 5.0])) == 4

    def test_exact_zero_semantics(self):
        assert ps.order_of(np.array([0.0, 1e-300])) == 2


class TestRestrictedMean:
    def test_orthogonal_columns_drop_cleanly(self):
        d = _design_with_gram(8, np.eye(3))
        theta = np.array([1.5, -2.0, 0.7])
        out = ps.restricted_ls_mean(d, theta, 1)
        assert out == pytest.approx([1.5, 0.0, 0.0], abs=1e-12)

    def test_full_order_is_identity(self):
        d = _design_with_gram(9, [[1.0, 0.4], [0.4, 2.0]])
        theta = np.array([0.3, -1.1])
        assert ps.restricted_ls_mean(d, theta, 2) == pytest.approx(theta)
        assert ps.restricted_ls_mean(d, theta, 0) == pytest.approx([0.0, 0.0])

    def test_two_by_two_cross_term(self):
        d = _design_with_gram(4, [[1.0, 0.5], [0.5, 1.0]])
        out = ps.restricted_ls_mean(d, np.array([0.0, 1.0]), 1)
        assert out == pytest.approx([0.5, 0.0], abs=1e-12)

    def test_trailing_entries_exactly_zero(self):
        d = _design_with_gram(12, np.eye(4) + 0.2)
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        for p in range(5):
            out = ps.restricted_ls_mean(d, theta, p)
            assert np.all(out[p:] == 0.0)

    def test_order_containment_fixes_theta(self):
        d = _design_with_gram(10, np.eye(3) + 0.3)
        theta = np.array([2.0, -1.0, 0.0])
        for p in range(ps.order_of(theta), 4):
            assert ps.restricted_ls_mean(d, theta, p) == pytest.approx(theta, abs=1e-12)

    def test_out_of_range(self):
        d = _design_with_gram(8, np.eye(2))
        with pytest.raises(ValueError):
            ps.restricted_ls_mean(d, np.zeros(2), 3)


class TestXi:
    def test_identity_gram(self):
        d = _design_with_gram(9, np.eye(3))
        for p in (1, 2, 3):
            assert ps.xi(d, p) == pytest.approx(1.0, abs=1e-12)

    def test_correlated_two_by_two(self):
        d = _design_with_gram(9, [[1.0, 0.75], [0.75, 1.0]])
        assert ps.xi(d, 2) == pytest.approx(1.5118578920369089, abs=1e-12)

    def test_scalar_block(self):
        d = _design_with_gram(5, [[4.0]])
        assert ps.xi(d, 1) == pytest.approx(0.5, abs=1e-14)

    def test_out_of_range(self):
        d = _design_with_gram(8, np.eye(2))
        with pytest.raises(ValueError):
            ps.xi(d, 0)


class TestConditionalQuantities:
    def test_leading_identity_block_is_degenerate(self):
        # target = the first p coordinates: the tested coefficient is a
        # coordinate of the transform, so the conditional scale vanishes
        d = _design_with_gram(10, np.eye(3) + 0.25)
        target = ps.TargetFunctional(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        _, _, zeta_sq = ps.conditional_quantities(d, target, 2)
        assert zeta_sq == 0.0

    def test_two_regressor_closed_form(self):
        rho = 0.6
        d = _design_with_gram(9, [[1.0, rho], [rho, 1.0]])
        target = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        C, b, zeta_sq = ps.conditional_quantities(d, target, 2)
        assert C[0] == pytest.approx(-rho / (1 - rho**2), abs=1e-12)
        assert zeta_sq == pytest.approx(1.0, abs=1e-10)

    def test_uncorrelated_target_keeps_full_scale(self):
        # second row of A orthogonal to the tested coefficient at p = 1:
        # with an identity gram the transform carries no information on it
        d = _design_with_gram(10, np.eye(2))
        target = ps.TargetFunctional(np.array([[0.0, 1.0]]))
        C, b, zeta_sq = ps.conditional_quantities(d, target, 1)
        assert np.all(C == 0.0)
        assert zeta_sq == pytest.approx(xi_from_factor(d.factor, 1) ** 2)

    @given(st.integers(0, 10**6))
    @example(387697)  # k = p: the conditional scale is exactly zero
    @example(52974)  # k = p with an ill-conditioned target block
    def test_zeta_between_zero_and_xi(self, seed):
        rng = np.random.default_rng(seed)
        P = int(rng.integers(1, 5))
        base = rng.standard_normal((P + 3, P))
        gram = base.T @ base / (P + 3) + 0.5 * np.eye(P)
        k = int(rng.integers(1, P + 1))
        A = rng.standard_normal((k, P))
        p = int(rng.integers(1, P + 1))
        L = gram_factor(gram)
        zeta_sq = order_fit(L, A, order_operator(L, A), p).zeta_sq
        assert 0.0 <= zeta_sq <= xi_from_factor(L, p) ** 2 + 1e-10
        if k == p:
            assert zeta_sq == 0.0

    @given(st.integers(0, 10**6))
    def test_generalized_inverse_invariance(self, seed):
        # on the column space of the leading target block, the conditional
        # regression value does not depend on the choice of generalized
        # inverse; perturb the pseudoinverse by the g-inverse family and
        # compare on rank-deficient cases
        rng = np.random.default_rng(seed)
        P, k, p = 3, 2, 1  # A[:, :p] is k x 1: rank 1 < k
        base = rng.standard_normal((P + 3, P))
        gram = base.T @ base / (P + 3) + 0.5 * np.eye(P)
        A = rng.standard_normal((k, P))
        L = gram_factor(gram)
        C = order_fit(L, A, order_operator(L, A), p).C
        Ap = A[:, :p]
        chol = np.linalg.inv(gram[:p, :p])
        M = Ap @ chol @ Ap.T
        G1 = np.linalg.pinv(M)
        V = rng.standard_normal((k, k))
        G2 = G1 + V - G1 @ M @ V @ M @ G1
        assert np.allclose(M @ G2 @ M, M, atol=1e-8)
        w = rng.standard_normal(p)
        z = Ap @ w  # in the column space of A[:, :p]
        assert C @ G1 @ z == pytest.approx(C @ G2 @ z, abs=1e-10)


class TestGaussianComponent:
    def test_target_wider_than_design_rejected(self):
        d = _design_with_gram(10, np.eye(3) + 0.2)
        target = ps.TargetFunctional(np.ones((1, 4)))
        params = ps.ParameterPoint(theta=np.zeros(3), sigma=1.0)
        for call in (
            lambda: ps.conditional_quantities(d, target, 2),
            lambda: ps.gaussian_component(d, target, params, 2),
        ):
            with pytest.raises(ValueError, match="target transform width inconsistent"):
                call()

    def test_point_mass_at_zero_order(self, classic_components):
        design, _, target, params = classic_components
        comp = ps.gaussian_component(design, target, params, 0)
        assert comp.rank == 0
        assert comp.mean_shift == pytest.approx(
            -np.sqrt(design.n) * (target.A @ params.theta)
        )

    def test_full_model_variance(self):
        d = _design_with_gram(9, np.linalg.inv([[1.0, 0.75], [0.75, 1.0]]))
        target = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        params = ps.ParameterPoint(theta=np.zeros(2), sigma=1.0)
        comp = ps.gaussian_component(d, target, params, 2)
        assert comp.covariance[0, 0] == pytest.approx(1.0, abs=1e-10)
        d2 = _design_with_gram(9, [[1.0, 0.75], [0.75, 1.0]])
        comp2 = ps.gaussian_component(d2, target, params, 2)
        assert comp2.covariance[0, 0] == pytest.approx(1.0 / (1 - 0.75**2), abs=1e-10)

    @given(
        st.integers(1, 3),
        st.integers(0, 3),
        st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9),
    )
    @example(3, 0, [0.0] * 9)  # rank 0: a point mass, a factor without columns
    @example(3, 1, [1.0] * 9)  # ones((3, 3)) at rank 1
    def test_factor_reconstructs_covariance(self, k, rank, entries):
        # the covariance B B' of a k x rank matrix B has rank at most rank, so
        # its top rank eigenpairs reproduce it up to roundoff
        rank = min(rank, k)
        B = np.reshape(entries, (3, 3))[:k, :rank]
        cov = B @ B.T
        factor = ps.GaussianComponent(np.zeros(k), cov, rank).factor
        assert factor.shape == (k, rank)
        assert np.allclose(factor @ factor.T, cov, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "cov, rank",
        [(np.eye(2), 1), (np.eye(2), 0), (np.diag([1.0, 1e-6, 1.0]), 2)],
        ids=["eye2_rank1", "eye2_rank0", "small_eigenvalue_dropped"],
    )
    def test_rank_below_covariance_rejected(self, cov, rank):
        # the factor of the top rank eigenpairs would leave covariance out:
        # N(0, I2) at rank 1 integrated to 0.5 over the negative quadrant
        with pytest.raises(ValueError, match="covariance has rank above"):
            ps.GaussianComponent(np.zeros(len(cov)), cov, rank)

    def test_contained_parameter_has_no_shift(self):
        d = _design_with_gram(9, [[1.0, 0.4], [0.4, 1.0]])
        target = ps.TargetFunctional(np.array([[1.0, 0.0]]))
        params = ps.ParameterPoint(theta=np.array([2.0, 0.0]), sigma=1.0)
        comp = ps.gaussian_component(d, target, params, 1)
        assert comp.mean_shift == pytest.approx([0.0], abs=1e-12)


class TestGramHelpers:
    def test_order_shift_identity_gram(self):
        # with A = I the shift is the bias b_1 = (0, -psi[1:]), whatever psi[0]
        L = gram_factor(np.eye(3))
        out = order_shift(order_operator(L, np.eye(3)), L.T @ np.array([5.0, 2.0, -1.0]), 1)
        assert out == pytest.approx([0.0, -2.0, 1.0])

    def test_singular_block_raises(self):
        gram = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(IllConditionedError):
            gram_factor(gram)


class TestWorkPerEvaluation:
    """Every order reads one triangular solve W = L^{-1} A' and one vector
    m = L'psi, and each component its factor from the SVD of its fit."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"solve": 0, "eigh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(model, "solve_triangular", counted("solve", model.solve_triangular))
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        return counts

    @staticmethod
    def _p10_problem():
        design = synthetic_design(200, 10, 7)
        family = ps.SelectionFamily(min_order=1, criticals=(1.96,) * 9)
        target = ps.TargetFunctional(np.eye(10)[:2])
        params = ps.ParameterPoint(theta=np.array([1.0, 0.15, 0, 0, 0.1, 0, 0, 0, 0, 0]),
                                   sigma=1.0)
        return design, family, target, params

    def test_known_cdf_makes_one_solve(self, counts):
        design, family, target, params = self._p10_problem()
        res = ps.cdf_known_variance(design, family, target, params, np.array([0.2, -0.1]))
        assert 0.0 < res.value < 1.0
        assert counts == {"solve": 1, "eigh": 0}

    def test_selection_probability_makes_no_solve(self, counts):
        design, family, _, params = self._p10_problem()
        ps.selection_prob_known(design, family, params, 3)
        assert counts == {"solve": 0, "eigh": 0}

    def test_simulate_makes_one_solve(self, counts):
        design, family, target, params = self._p10_problem()
        ps.simulate(design, family, target, params, 100, "known", seed=1)
        assert counts == {"solve": 1, "eigh": 0}

    def test_gaussian_component_makes_one_solve(self, counts):
        design, _, target, params = self._p10_problem()
        comp = ps.gaussian_component(design, target, params, 4)
        assert comp.factor.shape == (2, 2)
        assert counts == {"solve": 1, "eigh": 0}


class TestDesignConstruction:
    def test_design_from_gram_exact(self):
        gram = np.array([[2.0, -0.3], [-0.3, 0.5]])
        d = design_from_gram(40, gram, seed=4)
        assert d.X is None
        assert np.array_equal(d.gram, gram)
        assert (d.n, d.P) == (40, 2)

    def test_design_from_gram_builds_no_matrix(self):
        # n and the P x P Gram matrix only: no n-sized array at any n
        gram = np.array([[2.0, -0.3], [-0.3, 0.5]])
        tracemalloc.start()
        try:
            d = design_from_gram(10**9, gram)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.n == 10**9
        assert peak < 1 << 20

    def test_non_integral_n_rejected(self):
        gram = np.eye(2)
        for make in (
            lambda n: design_from_gram(n, gram),
            lambda n: ps.TwoRegressorSetting(rho=0.5, sigma1=1.0, sigma2=1.0, theta2=0.0,
                                             n=n, c2=2.0),
        ):
            with pytest.raises(ValueError, match="n must be an integer"):
                make(7.5)
            n = make(7.0).n
            assert n == 7 and type(n) is int

    def test_limit_gram_checked_like_design_gram(self):
        # positive definiteness is decided by Cholesky, not by an eigenvalue
        # ratio, so a badly scaled but positive definite Q is accepted
        gram = np.diag([1.0, 1e-12])
        limit = ps.LimitParameter(psi=np.zeros(2), sigma=1.0, Q=gram)
        assert np.array_equal(limit.factor, design_from_gram(50, gram).factor)

    def test_qr_has_positive_diagonal(self):
        # R = sqrt(n) L' with L the lower Cholesky factor of X'X/n; numpy's
        # Householder QR alone gives some negative diagonal entries here
        X = np.random.default_rng(1).standard_normal((30, 4))
        d = ps.RegressionDesign(X)
        q, r = d.qr
        assert np.all(np.diag(r) > 0.0)
        assert np.allclose(q @ r, X, atol=1e-12)
        assert np.allclose(r, np.sqrt(d.n) * d.factor.T, atol=1e-12)

    @pytest.mark.parametrize(
        "gram",
        [[[1.0, 0.9], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]],
        ids=["non_symmetric", "nan", "inf"],
    )
    def test_design_from_gram_rejects_malformed_gram(self, gram):
        # Cholesky reads only the lower triangle: the non-symmetric case
        # would otherwise build a design whose gram is about the identity
        with pytest.raises(ValueError, match="gram must be"):
            design_from_gram(10, np.array(gram))
        if np.all(np.isfinite(gram)):
            with pytest.raises(ValueError, match="symmetric"):
                ps.LimitParameter(psi=np.zeros(2), sigma=1.0, Q=np.array(gram))

    def test_load_design_csv(self, tmp_path):
        X = np.random.default_rng(0).standard_normal((6, 2))
        path = tmp_path / "design.csv"
        np.savetxt(path, X, delimiter=",")
        d = ps.load_design_csv(path)
        assert d.n == 6 and d.P == 2
        assert np.allclose(d.X, X)
