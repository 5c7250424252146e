"""Scalar and vector probability kernels.

Everything downstream funnels through a handful of primitives: the two-sided
Gaussian interval probability ``delta``, the scaled-chi density (the law of
the residual scale estimate sigma_hat/sigma) with its quantiles, a scalar
adaptive quadrature against that density (the reference for the mixture
engine's fixed-rule scale smoothing and the two-regressor closed form),
lower-orthant Gaussian region integrals, and reproducible Gaussian sampling.
All functions are pure; random use is confined to counter-based (Philox)
streams so results are reproducible and safely parallelizable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.random import Generator, Philox
from scipy import integrate
from scipy.special import gammaincinv, gammaln, ndtr, ndtri
from scipy.stats import qmc

__all__ = [
    "QuadResult",
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "delta",
    "norm_cdf",
    "norm_pdf",
    "chi_scaled_density",
    "chi_scaled_quantile",
    "integrate_against_h",
    "gaussian_region_prob",
    "gaussian_density",
    "rank_factor",
    "sample_gaussian",
    "normals_from_stream",
]

# Tail mass ignored when truncating integrals over unbounded supports.  The
# integrands handled here are bounded by 1, so truncation error <= tail mass.
_TAIL_Q = 1e-14
_GAUSS_TAIL_Q = 1e-16

# Root seed for the internal randomized-QMC error estimate; fixed so that
# region probabilities are deterministic across calls, runs and thread counts.
_QMC_ROOT_SEED = 0x9E3779B9
_QMC_BATCHES = 8


class QuadResult(NamedTuple):
    """Numerical integral value with an error estimate and convergence flag."""

    value: float
    err_est: float
    converged: bool


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and effort caps for the numerical integration routines.

    ``abs_tol``/``rel_tol`` drive the adaptive 1-D rules; ``max_nodes`` caps
    the total number of integrand evaluations (21 per subinterval for the
    Gauss-Kronrod rule).  The mixture engine's scale smoothing uses fixed
    rules and reports convergence when its error estimate is within
    ``abs_tol``.  The ``qmc_*`` fields control the randomized
    quasi-Monte Carlo path used for multivariate or singular region
    integrals: start at ``qmc_initial`` points and double until the error
    estimate drops below ``qmc_tol`` or ``qmc_max`` is reached.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_nodes: int = 10_500
    qmc_tol: float = 1e-4
    qmc_initial: int = 1 << 16
    qmc_max: int = 1 << 22

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < 1.0 and 0.0 < self.rel_tol < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.max_nodes < 15:
            raise ValueError("max_nodes must be at least 15")
        if not (0.0 < self.qmc_tol < 1.0):
            raise ValueError("qmc_tol must lie in (0, 1)")

    @property
    def subdivision_limit(self) -> int:
        return max(1, self.max_nodes // 21)


DEFAULT_SPEC = QuadratureSpec()


def norm_cdf(x):
    """Standard normal cdf (rational erf implementation, ~1e-16 accurate)."""
    return ndtr(x)


def norm_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


def delta(s: float, a, b) -> float | np.ndarray:
    """P(|M - a| < b) for M ~ N(0, s^2).

    Total function: s = 0 degenerates to the indicator of |a| < b, infinite a
    gives 0, and b <= 0 gives 0.  Symmetric in the sign of a.  ``a`` and ``b``
    may be arrays (broadcast together); ``s`` is scalar.

    The two cdf evaluations are arranged on the lower tail so the difference
    stays accurate for |a| far outside (-b, b).
    """
    if np.isscalar(a) and np.isscalar(b):
        if b <= 0.0 or math.isinf(a):
            return 0.0
        aa = abs(a)
        if s == 0.0:
            return 1.0 if aa < b else 0.0
        return float(ndtr((b - aa) / s) - ndtr(-(aa + b) / s))
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aa = np.abs(a)
    if s == 0.0:
        out = ((aa < b) & (b > 0.0)).astype(float)
    else:
        with np.errstate(invalid="ignore"):
            out = ndtr((b - aa) / s) - ndtr(-(aa + b) / s)
        out = np.where(np.isinf(aa), 0.0, out)
        out = np.where(b <= 0.0, 0.0, out)
    return out


def chi_scaled_density(m: int, s) -> float | np.ndarray:
    """Density of sqrt(chi2_m / m) at s (the law of sigma_hat/sigma, m = n - P).

    h(s) = 2 (m/2)^(m/2) / Gamma(m/2) * s^(m-1) * exp(-m s^2 / 2); evaluated
    in log space so large m does not overflow.
    """
    if m < 1:
        raise ValueError("degrees of freedom must be >= 1")
    s_arr = np.asarray(s, dtype=float)
    half = 0.5 * m
    logc = math.log(2.0) + half * math.log(half) - gammaln(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(s_arr > 0.0, np.log(s_arr), -np.inf)
        out = np.exp(logc + (m - 1) * logs - half * s_arr * s_arr)
    out = np.where(s_arr > 0.0, out, 0.0)
    return float(out) if out.ndim == 0 else out


def chi_scaled_quantile(m: int, q: float) -> float:
    """Quantile of sqrt(chi2_m / m), via the inverse regularized incomplete gamma."""
    if m < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    return float(np.sqrt(2.0 * gammaincinv(0.5 * m, q) / m))


def integrate_against_h(
    f: Callable[[float], float],
    m: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadResult:
    """Integral of f(s) against the scaled-chi density over (0, inf).

    ``f`` must be bounded (all integrands used here are products of interval
    probabilities, hence in [0, 1]).  The integration interval is truncated at
    the 1e-14 and 1 - 1e-14 quantiles of the scaled-chi law; the discarded
    tail mass (<= 2e-14 for |f| <= 1) is added to the error estimate.

    The tolerances passed to the adaptive rule carry a safety factor: on
    integrands with jumps (degenerate interval probabilities) the rule's
    internal error estimate is optimistic near the discontinuity, and the
    tighter request pushes the true error below the tolerance actually
    wanted.  Smooth integrands converge immediately either way.
    """
    s_lo = chi_scaled_quantile(m, _TAIL_Q)
    s_hi = chi_scaled_quantile(m, 1.0 - _TAIL_Q)
    eps_abs = max(spec.abs_tol / 100.0, 1e-14)
    eps_rel = max(spec.rel_tol / 100.0, 1e-13)

    def integrand(s: float) -> float:
        return float(f(s)) * chi_scaled_density(m, s)

    out = integrate.quad(
        integrand,
        s_lo,
        s_hi,
        epsabs=eps_abs,
        epsrel=eps_rel,
        limit=spec.subdivision_limit,
        full_output=1,
    )
    value, abserr = out[0], out[1]
    converged = len(out) < 4 or float(abserr) <= spec.abs_tol
    return QuadResult(float(value), float(abserr) + 2.0 * _TAIL_Q, converged)


def rank_factor(cov: np.ndarray) -> np.ndarray:
    """Factor L with L L' = cov, keeping only numerically nonzero eigenpairs.

    Returns a (k, r) matrix where r is the numerical rank.  Accepts any
    symmetric positive semidefinite input (small negative eigenvalues from
    roundoff are clipped).
    """
    cov = np.asarray(cov, dtype=float)
    if cov.size == 0:
        return np.zeros((0, 0))
    w, v = np.linalg.eigh(0.5 * (cov + cov.T))
    tol = cov.shape[0] * np.finfo(float).eps * max(float(w[-1]), 0.0)
    keep = w > max(tol, 0.0)
    return v[:, keep] * np.sqrt(w[keep])


def gaussian_density(mean: np.ndarray, cov: np.ndarray, z) -> float:
    """Density of N(mean, cov) at z.  Requires nonsingular cov."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    k = mean.size
    x = z - mean
    if k == 1:
        v = cov[0, 0]
        if v <= 0.0:
            raise ValueError("degenerate covariance: density undefined")
        return float(norm_pdf(x[0] / math.sqrt(v)) / math.sqrt(v))
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate covariance: density undefined") from exc
    y = np.linalg.solve(chol, x)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return float(np.exp(-0.5 * (y @ y) - 0.5 * logdet - 0.5 * k * math.log(2.0 * math.pi)))


def _qmc_region_estimate(
    mean: np.ndarray,
    factor: np.ndarray,
    t: np.ndarray,
    integrand: Callable[[np.ndarray], np.ndarray] | None,
    spec: QuadratureSpec,
) -> QuadResult:
    """Randomized-QMC estimate of int_{z <= t} g(z) N(mean, L L')(dz).

    Uses ``_QMC_BATCHES`` independently scrambled Sobol sequences; the spread
    of the batch means gives the (3 sigma) error estimate.  Deterministic:
    scramble seeds are fixed.
    """
    d = factor.shape[1]
    tiny = 0.5 ** 54
    sobols = [
        qmc.Sobol(d=d, scramble=True, seed=np.random.default_rng(_QMC_ROOT_SEED + b))
        for b in range(_QMC_BATCHES)
    ]
    sums = np.zeros(_QMC_BATCHES)
    counts = np.zeros(_QMC_BATCHES)
    n_total = 0

    def extend(per_batch: int) -> None:
        nonlocal n_total
        for b, sob in enumerate(sobols):
            u = np.clip(sob.random(per_batch), tiny, 1.0 - tiny)
            z = mean + ndtri(u) @ factor.T
            inside = np.all(z <= t, axis=1)
            if integrand is None:
                vals = inside.astype(float)
            else:
                vals = np.where(inside, np.asarray(integrand(z), dtype=float), 0.0)
            sums[b] += vals.sum()
            counts[b] += per_batch
        n_total += _QMC_BATCHES * per_batch

    extend(max(2, spec.qmc_initial // _QMC_BATCHES))
    while True:
        means = sums / counts
        value = float(means.mean())
        err = 3.0 * float(means.std(ddof=1)) / math.sqrt(_QMC_BATCHES)
        if err < spec.qmc_tol:
            return QuadResult(value, err, True)
        if n_total >= spec.qmc_max:
            return QuadResult(value, err, False)
        extend(int(counts[0]))


def gaussian_region_prob(
    comp,
    t,
    integrand: Callable[[np.ndarray], np.ndarray] | None = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadResult:
    """int_{z <= t} g(z) dPhi(z) for the Gaussian measure of ``comp``.

    ``comp`` carries ``mean_shift`` (k,), ``covariance`` (k, k) and ``rank``;
    the measure includes the mean shift.  ``integrand`` receives an (m, k)
    batch of points and must return (m,) values; when absent the plain cdf of
    the region is computed.  Dimension one with nonsingular covariance uses
    adaptive quadrature; higher dimension or singular covariance falls back
    to randomized QMC with a 3-sigma empirical error estimate.
    """
    mean = np.atleast_1d(np.asarray(comp.mean_shift, dtype=float))
    cov = np.atleast_2d(np.asarray(comp.covariance, dtype=float))
    k = mean.size
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.size != k:
        raise ValueError(f"t must have length {k}")

    if comp.rank == 0:
        if np.any(mean > t):
            return QuadResult(0.0, 0.0, True)
        if integrand is None:
            return QuadResult(1.0, 0.0, True)
        val = float(np.asarray(integrand(mean[None, :]), dtype=float)[0])
        return QuadResult(val, 0.0, True)

    if k == 1 and cov[0, 0] > 0.0:
        mu = mean[0]
        sd = math.sqrt(cov[0, 0])
        if integrand is None:
            return QuadResult(float(ndtr((t[0] - mu) / sd)), 1e-15, True)
        lo = mu + sd * ndtri(_GAUSS_TAIL_Q)
        hi = mu + sd * ndtri(1.0 - _GAUSS_TAIL_Q)
        ub = min(t[0], hi)
        if ub <= lo:
            return QuadResult(0.0, _GAUSS_TAIL_Q, True)

        def f(z: float) -> float:
            g = float(np.asarray(integrand(np.array([[z]])), dtype=float)[0])
            return g * norm_pdf((z - mu) / sd) / sd

        out = integrate.quad(
            f,
            lo,
            ub,
            epsabs=spec.abs_tol,
            epsrel=spec.rel_tol,
            limit=spec.subdivision_limit,
            full_output=1,
        )
        value, abserr = out[0], out[1]
        converged = len(out) < 4
        return QuadResult(float(value), float(abserr) + 2.0 * _GAUSS_TAIL_Q, converged)

    factor = rank_factor(cov)
    if factor.shape[1] == 0:
        # numerically rank zero despite comp.rank > 0: treat as point mass
        frozen = QuadResult(0.0, 0.0, True)
        if np.all(mean <= t):
            val = 1.0 if integrand is None else float(np.asarray(integrand(mean[None, :]))[0])
            frozen = QuadResult(val, 0.0, True)
        return frozen
    return _qmc_region_estimate(mean, factor, t, integrand, spec)


def _as_generator(stream) -> Generator:
    """Normalize seeds / bit generators / Generators to a numpy Generator."""
    if isinstance(stream, Generator):
        return stream
    if isinstance(stream, np.random.BitGenerator):
        return Generator(stream)
    return Generator(Philox(key=int(stream)))


def normals_from_stream(stream, shape) -> np.ndarray:
    """Standard normals by inverse transform from a counter-based stream.

    Uniforms are taken on the centers of the 2^53 grid so the transform never
    sees 0 or 1; the draw layout is a pure function of the stream state and
    ``shape``.
    """
    gen = _as_generator(stream)
    u = (gen.integers(0, 1 << 53, size=shape, dtype=np.int64) + 0.5) * (0.5 ** 53)
    return ndtri(u)


def sample_gaussian(comp, count: int, stream) -> np.ndarray:
    """``count`` i.i.d. draws from the Gaussian measure of ``comp``.

    Draws are ``mean + L w`` with L a rank factor of the covariance and w
    standard normal from the given deterministic stream.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    mean = np.atleast_1d(np.asarray(comp.mean_shift, dtype=float))
    k = mean.size
    if comp.rank == 0:
        return np.tile(mean, (count, 1))
    factor = rank_factor(np.atleast_2d(np.asarray(comp.covariance, dtype=float)))
    w = normals_from_stream(stream, (count, factor.shape[1]))
    return mean + w @ factor.T
