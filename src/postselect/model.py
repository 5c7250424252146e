"""Regression design, nested model family, and derived moment quantities.

The model is Y = X theta + u with u ~ N(0, sigma^2 I_n) and a fixed n x P
design of full column rank.  Candidate models are nested by order: model p
keeps the first p regressors.  Every deterministic quantity needed by the
distribution formulas is a function of the scaled Gram matrix Q = X'X/n (plus
n), and the large-sample module reuses the helpers with the limit matrix.
With L the lower Cholesky factor of Q, all orders read one solve W = L^{-1} A'
(``order_operator``; W[:p] maps the order-p fit through the target A) and
one vector m = L'psi, whose tail ``order_shift`` maps to the mean shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "IllConditionedError",
    "RegressionDesign",
    "SelectionFamily",
    "TargetFunctional",
    "ParameterPoint",
    "GaussianComponent",
    "order_of",
    "restricted_ls_mean",
    "xi",
    "conditional_quantities",
    "gaussian_component",
    "gram_factor",
    "xi_from_factor",
    "OrderFit",
    "order_fit",
    "order_operator",
    "order_shift",
    "design_from_gram",
    "load_design_csv",
]

# Relative singular-value threshold used for all numerical rank decisions.
_RANK_REL_TOL = np.finfo(float).eps

# zeta^2 below this fraction of xi^2 is snapped to 0, so cases that are
# degenerate in exact arithmetic (transform determines the tested
# coefficient) land on the indicator branch despite roundoff.
_ZETA_REL_SNAP = 1e-12


class IllConditionedError(ValueError):
    """A Gram matrix is not numerically positive definite."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _numerical_rank(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    tol = max(a.shape) * _RANK_REL_TOL * s[0]
    return int(np.sum(s > tol))


@dataclass(frozen=True, eq=False, init=False)
class RegressionDesign:
    """n observations on P regressors (n > P >= 1), held as n and the scaled
    Gram matrix ``gram`` = X'X/n.  ``RegressionDesign(X)`` also keeps the
    finite, full-column-rank n x P matrix X, which ``select_model*`` needs;
    ``design_from_gram`` builds a design with ``X = None``."""

    n: int
    gram: np.ndarray
    X: np.ndarray | None

    def __init__(self, X) -> None:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2:
            raise ValueError("X must be a 2-D matrix")
        n, P = X.shape
        if not (n > P >= 1):
            raise ValueError(f"need n > P >= 1, got n={n}, P={P}")
        if not np.all(np.isfinite(X)):
            raise ValueError("X must be finite")
        if _numerical_rank(X) < P:
            raise ValueError("X must have full column rank")
        self._freeze(n, X.T @ X / n, _readonly(X))

    @classmethod
    def _from_gram(cls, n: int, gram: np.ndarray) -> "RegressionDesign":
        design = cls.__new__(cls)
        design._freeze(n, gram, None)
        return design

    def _freeze(self, n: int, gram: np.ndarray, X: np.ndarray | None) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gram", _readonly(gram))
        object.__setattr__(self, "X", X)

    @property
    def P(self) -> int:
        return self.gram.shape[0]

    @cached_property
    def factor(self) -> np.ndarray:
        """Lower Cholesky factor of ``gram``."""
        return gram_factor(self.gram)

    @cached_property
    def qr(self) -> tuple[np.ndarray, np.ndarray]:
        """Reduced QR factors (Q, R) of X with a positive diagonal in R, so that
        R = sqrt(n) L' for L = ``factor`` (up to roundoff) and R[:p, :p] is the
        R factor of X[:, :p]."""
        if self.X is None:
            raise ValueError("observed responses need the regressor matrix X, not only its Gram")
        q, r = np.linalg.qr(self.X)
        sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
        return _readonly(q * sign), _readonly(r * sign[:, None])


@dataclass(frozen=True)
class SelectionFamily:
    """Nested family of candidate orders {min_order, ..., P} with test thresholds.

    ``criticals[i]`` is the threshold c_p for order p = min_order + 1 + i; the
    threshold at the minimal order is fixed at zero, so the smallest candidate
    is always admissible.
    """

    min_order: int
    criticals: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "criticals", tuple(float(c) for c in self.criticals))
        if self.min_order < 0:
            raise ValueError("min_order must be >= 0")
        if len(self.criticals) == 0:
            raise ValueError("need at least one tested order above min_order")
        for c in self.criticals:
            if not (0.0 < c < np.inf):
                raise ValueError("thresholds must be positive and finite")

    @property
    def P(self) -> int:
        return self.min_order + len(self.criticals)

    def critical(self, p: int) -> float:
        if p == self.min_order:
            return 0.0
        if self.min_order < p <= self.P:
            return self.criticals[p - self.min_order - 1]
        raise ValueError(f"order {p} outside [{self.min_order}, {self.P}]")

    @property
    def orders(self) -> range:
        return range(self.min_order, self.P + 1)


@dataclass(frozen=True, eq=False)
class TargetFunctional:
    """Rank-k k x P matrix defining the linear transform of interest."""

    A: np.ndarray

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        k, P = A.shape
        if not (1 <= k <= P):
            raise ValueError(f"need 1 <= k <= P, got k={k}, P={P}")
        if not np.all(np.isfinite(A)):
            raise ValueError("A must be finite")
        if _numerical_rank(A) < k:
            raise ValueError("A must have full row rank")
        object.__setattr__(self, "A", _readonly(A))

    @property
    def k(self) -> int:
        return self.A.shape[0]

    @property
    def P(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class ParameterPoint:
    """True coefficient vector and error scale."""

    theta: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if theta.ndim != 1 or not np.all(np.isfinite(theta)):
            raise ValueError("theta must be a finite vector")
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive and finite")
        object.__setattr__(self, "theta", _readonly(theta))
        object.__setattr__(self, "sigma", float(self.sigma))


@dataclass(frozen=True, eq=False)
class GaussianComponent:
    """One Gaussian mixture component of the post-selection distribution.

    ``mean_shift`` is the scaled bias of the order-p restricted fit mapped
    through the target transform; ``covariance`` is the (possibly singular)
    k x k covariance of the transform of the order-p fit; ``rank`` its
    numerical rank (0 encodes a point mass at ``mean_shift``), decided by
    whoever builds the component (``order_fit`` for the mixtures) and read,
    never re-decided, by the kernels.  ``factor`` (k, rank), F F' =
    ``covariance``, is the factorization the kernels read: the top ``rank``
    eigenpairs, which must leave out no more than roundoff, or for the
    mixtures the SVD factor of ``OrderFit``.
    """

    mean_shift: np.ndarray
    covariance: np.ndarray
    rank: int
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean_shift, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        k = mean.size
        if cov.shape != (k, k):
            raise ValueError("covariance shape must match mean_shift length")
        if not np.allclose(cov, cov.T, atol=1e-12, rtol=1e-10):
            raise ValueError("covariance must be symmetric")
        if self.rank < 0 or self.rank > k:
            raise ValueError("rank out of range")
        w, v = np.linalg.eigh(0.5 * (cov + cov.T))
        top = slice(k - self.rank, None)
        if np.abs(w[:top.start]).sum() > 64.0 * k * np.finfo(float).eps * np.abs(w).sum():
            raise ValueError(f"covariance has rank above {self.rank}")
        self._freeze(mean, cov, v[:, top] * np.sqrt(np.maximum(w[top], 0.0)))

    @classmethod
    def _from_factor(cls, mean_shift, covariance, factor) -> "GaussianComponent":
        comp = cls.__new__(cls)
        comp._freeze(mean_shift, covariance, factor)
        return comp

    def _freeze(self, mean, cov, factor: np.ndarray) -> None:
        for name, value in (("mean_shift", mean), ("covariance", cov), ("factor", factor)):
            object.__setattr__(self, name, _readonly(value))
        object.__setattr__(self, "rank", factor.shape[1])

    @property
    def k(self) -> int:
        return self.mean_shift.size


def order_of(theta) -> int:
    """Index of the smallest nested model containing theta (exact zero test)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    nz = np.nonzero(theta)[0]
    return int(nz[-1] + 1) if nz.size else 0


def gram_factor(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of a Gram matrix (gram = L L'); raises
    ``IllConditionedError`` when it is not numerically positive definite."""
    try:
        return _readonly(np.linalg.cholesky(np.asarray(gram, dtype=float)))
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError("Gram matrix is not positive definite") from exc


def order_operator(L: np.ndarray, A: np.ndarray) -> np.ndarray:
    """W = L^{-1} A' (P x k) for the k x P target A.  L is lower triangular,
    so W[:p] = L[:p,:p]^{-1} A[:, :p]' maps the order-p fit through A."""
    if A.shape[1] != L.shape[0]:
        raise ValueError("target transform width inconsistent with design")
    return solve_triangular(L, A.T, lower=True)


def order_shift(W: np.ndarray, m: np.ndarray, p: int) -> np.ndarray:
    """A b_p = -W[p:]'m[p:], the scaled bias b_p of the order-p fit mapped
    through A, for W = ``order_operator(L, A)`` and m = L'psi, the mean of
    the rotated responses z = Q'y: the fit W[:p]'z[:p] has mean A psi + A b_p.
    m[p:] reads psi[p:] only, so entries of psi below p may be zeroed.  With
    A = I it is b_p = (Q[:p,:p]^{-1} Q[:p,p:] psi[p:], -psi[p:]).
    """
    return -(W[p:].T @ m[p:])


def restricted_ls_mean(design: RegressionDesign, theta, p: int) -> np.ndarray:
    """Expected value of the order-p restricted least-squares estimator.

    First p entries theta[:p] + Q[:p,:p]^{-1} Q[:p,p:] theta[p:], rest zero;
    the zero vector at p = 0 and theta itself at p = P.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    P = design.P
    if theta.shape != (P,):
        raise ValueError(f"theta must have length {P}")
    if not 0 <= p <= P:
        raise ValueError(f"order {p} outside [0, {P}]")
    L = design.factor
    out = theta + order_shift(order_operator(L, np.eye(P)), L.T @ theta, p)
    out[p:] = 0.0
    return out


def xi_from_factor(L: np.ndarray, p: int) -> float:
    """sqrt of the (p,p) entry of Q[:p,:p]^{-1}, which is 1 / L[p-1, p-1]."""
    P = L.shape[0]
    if not 0 < p <= P:
        raise ValueError(f"order {p} outside (0, {P}]")
    return float(1.0 / L[p - 1, p - 1])


def xi(design: RegressionDesign, p: int) -> float:
    """Scale of the p-th coefficient estimate in the order-p fit (times sqrt(n)/sigma)."""
    return xi_from_factor(design.factor, p)


class OrderFit(NamedTuple):
    """The order-p restricted fit mapped through a target A (``order_fit``).

    For z ~ N(L'psi, sigma^2 I_P) the transformed fit is W'z[:p] (``W`` the
    first p rows of ``order_operator``) and its p-th coefficient v'z[:p],
    v = e_p / L[p-1, p-1].  ``rank`` = rank(A[:, :p]) = rank(W), decided on A
    so that roundoff in W adds no direction.  ``F`` = V_r S_r from the SVD
    W = U S V' factors W'W.  ``C`` = W'v is the covariance of fit and
    coefficient over sigma^2, ``b`` = W^+ v the regression row of the
    coefficient on the fit, and ``zeta_sq`` = xi_p^2 - b C the squared norm
    of the part of v orthogonal to the columns of W (0 at rank p).  At p = 0:
    W is 0 x k, F k x 0, C and b zero.
    """

    W: np.ndarray
    rank: int
    F: np.ndarray
    C: np.ndarray
    b: np.ndarray
    zeta_sq: float

    def component(self, sigma: float, mean_shift) -> GaussianComponent:
        """The transformed fit's component about ``mean_shift``: covariance
        sigma^2 W'W, factor sigma F."""
        cov = sigma**2 * (self.W.T @ self.W)
        return GaussianComponent._from_factor(mean_shift, 0.5 * (cov + cov.T), sigma * self.F)


def order_fit(L: np.ndarray, A: np.ndarray, W: np.ndarray, p: int) -> OrderFit:
    """``OrderFit`` of order p from W = ``order_operator(L, A)``: one SVD, one rank."""
    W = W[:p]
    k = W.shape[1]
    if p == 0:
        return OrderFit(W, 0, np.zeros((k, 0)), np.zeros(k), np.zeros(k), 0.0)
    v = xi_from_factor(L, p) * np.eye(p)[-1]
    r = _numerical_rank(A[:, :p])
    U, s, Vt = np.linalg.svd(W)
    coords = U.T @ v
    b = Vt[:r].T @ (coords[:r] / s[:r])
    zeta_sq = float(coords[r:] @ coords[r:])
    if zeta_sq < _ZETA_REL_SNAP * float(v @ v):
        zeta_sq = 0.0
    return OrderFit(W, r, Vt[:r].T * s[:r], W.T @ v, b, zeta_sq)


def conditional_quantities(design: RegressionDesign, target: TargetFunctional, p: int):
    """(C, b, zeta_sq) of the order-p ``OrderFit``, 1 <= p <= P."""
    if p == 0:
        raise ValueError("order 0 has no tested coefficient")
    L = design.factor
    fit = order_fit(L, target.A, order_operator(L, target.A), p)
    return fit.C, fit.b, fit.zeta_sq


def gaussian_component(
    design: RegressionDesign,
    target: TargetFunctional,
    params: ParameterPoint,
    p: int,
) -> GaussianComponent:
    """Gaussian component of the order-p fit: scaled-bias mean shift and covariance."""
    L, A = design.factor, target.A
    W = order_operator(L, A)
    fit = order_fit(L, A, W, p)
    if params.theta.shape != (design.P,):
        raise ValueError(f"theta must have length {design.P}")
    psi = math.sqrt(design.n) * params.theta
    return fit.component(params.sigma, order_shift(W, L.T @ psi, p))


def _integral_n(n) -> int:
    """Sample size ``n`` as an int; raises ``ValueError`` unless it is integral."""
    if not float(n).is_integer():
        raise ValueError(f"n must be an integer, got {n!r}")
    return int(n)


def _checked_gram(gram, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copy and lower Cholesky factor of the Gram matrix ``name``:
    ``ValueError`` unless it is finite and symmetric, ``IllConditionedError``
    unless it is positive definite."""
    gram = np.atleast_2d(np.asarray(gram, dtype=float))
    P = gram.shape[0]
    if not np.all(np.isfinite(gram)):
        raise ValueError(f"{name} must be finite")
    # Cholesky reads one triangle only, so asymmetry would pass silently
    if gram.shape != (P, P) or not np.allclose(gram, gram.T, atol=1e-12, rtol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    return _readonly(gram), gram_factor(gram)


def design_from_gram(n: int, gram: np.ndarray, seed: int = 0) -> RegressionDesign:
    """Design of ``n`` observations with scaled Gram matrix ``gram`` = X'X/n.

    Builds no regressor matrix: the design holds n and a read-only copy of
    ``gram`` only, so it serves every distribution and the simulator but not
    ``select_model*``.  ``seed`` has no effect; it is kept for compatibility.
    """
    gram, factor = _checked_gram(gram, "gram")
    n = _integral_n(n)
    if n <= gram.shape[0]:
        raise ValueError("need n > P")
    design = RegressionDesign._from_gram(n, gram)
    object.__setattr__(design, "factor", factor)  # fills the cached property
    return design


def load_design_csv(path) -> RegressionDesign:
    """Design matrix from a headerless CSV, one observation per row."""
    X = np.loadtxt(path, delimiter=",", ndmin=2)
    return RegressionDesign(X)
