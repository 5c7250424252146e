"""Scalar and vector probability kernels.

Everything downstream funnels through a handful of primitives: the two-sided
Gaussian interval probability ``delta``, the scaled-chi density (the law of
the residual scale estimate sigma_hat/sigma) with its quantiles, the two
laws of that ratio (``ScaleSmoother`` for the data-driven selector,
``PointScale``, the point mass at s = 1, for the known scale), lower-orthant
Gaussian region integrals, and reproducible Gaussian sampling.

The two laws share one interface (``mass``, ``reject``, ``edges``,
``err_est``, ``converged``), so the mixture engine and the two-regressor
closed form evaluate both variants with the same code.  Against the chi law
the scale smoothing is a fixed rule: a degree-64 Chebyshev interpolant of
the smoothed weight and its antiderivative, plus a 64-node Gauss-Legendre
rule across the window in which a rejection probability moves from 1 to 0.
Against the point mass it is the integrand at s = 1, exactly.

Region integrals take the component as z = mean + F w, w standard normal,
and an integrand of the one value y = a'w, with a given in the factor's
coordinates (the mixtures take a from ``model.order_fit``; the public
``gaussian_region_prob`` computes it from a projection, which it requires
with an integrand at rank two or more).  At rank at most two (every one- or
two-dimensional target) the integral conditions on y: given it, the region
probability of the rest is a closed-form normal interval probability, so
each integral is one deterministic 1-D integral, evaluated by a batched,
globally adaptive Gauss-Kronrod rule that calls the integrand once per pass
on the nodes of every open subinterval.  Randomized quasi-Monte Carlo serves
rank three or more; ``scipy.stats`` (for its Sobol sequences) is imported on
the first such integral, not with the package.

A component's rank is decided once, by ``model.order_fit`` or by whoever
builds the ``GaussianComponent``, and picks the path; no kernel decides it
again.  The component's ``factor`` F (F F' = covariance, ``rank`` columns,
from the SVD of the fit for the mixtures) is the one factorization that
region integrals and draws read; none of them reads the covariance.

All functions are pure; random use is confined to counter-based (Philox)
streams so results are reproducible and safely parallelizable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import Chebyshev
from numpy.random import Generator, Philox
from scipy.special import gammaincinv, gammaln, ndtr, ndtri

__all__ = [
    "QuadResult",
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "delta",
    "norm_pdf",
    "chi_scaled_density",
    "chi_scaled_quantile",
    "ScaleSmoother",
    "PointScale",
    "gaussian_region_prob",
    "sample_gaussian",
    "normals_from_stream",
]

# Tail mass ignored when truncating integrals over unbounded supports.  The
# integrands handled here are bounded by 1, so truncation error <= tail mass.
_TAIL_Q = 1e-14
_GAUSS_TAIL_Q = 1e-16

# Scale smoothing: degree of the Chebyshev interpolant of each smoothed
# weight, Gauss-Legendre nodes across the window in which a rejection
# probability moves from 1 to 0 (half-width 9 conditional standard
# deviations), and rows per block so that batches keep memory bounded.
_CHEB_DEGREE = 64
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_WINDOW = 9.0
_CHUNK_ROWS = 2048

# Gauss-Kronrod 10/21 rule on [-1, 1], constants as in scipy's _quad_vec module:
# the 21 Kronrod nodes and weights, and the weights of the 10-point Gauss rule
# on the odd-indexed nodes.
_GK_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
    -0.148874338981631210884826001129720, -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784, -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874, -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493, -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452, -0.995657163025808080735527280689003,
])
_KRONROD_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192,
])
_GAUSS_WEIGHTS = np.zeros(21)
_GAUSS_WEIGHTS[1::2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332,
]

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

    ``abs_tol``/``rel_tol`` drive the adaptive 1-D rules: a rule stops once
    its error estimate is within ``max(abs_tol, rel_tol * |value|)``.
    ``max_nodes`` caps the integrand evaluations of one adaptive 1-D
    integral (21 per Gauss-Kronrod subinterval); a rule that would pass it
    stops with ``converged=False``.  The first pass always runs, so a cap
    below 21 still returns a value.  The scale smoothing (``ScaleSmoother``)
    is a fixed rule on 65 Chebyshev nodes: it reports convergence when its
    error estimate is within ``abs_tol`` and those nodes fit within
    ``max_nodes``.  The ``qmc_*`` fields apply only to region
    integrals of Gaussians of rank three or more in three or more
    dimensions, which use randomized quasi-Monte Carlo: start
    at ``qmc_initial`` points and double until the error estimate drops
    below ``qmc_tol`` or ``qmc_max`` is reached.
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


DEFAULT_SPEC = QuadratureSpec()


def _require_no_nan(t) -> None:
    """Raise ``ValueError`` when the evaluation point ``t`` has a NaN entry."""
    if np.isnan(np.asarray(t, dtype=float)).any():
        raise ValueError("evaluation point t must not be NaN")


def _as_point(t, k: int) -> np.ndarray:
    """``t`` as a float array of length k; ``ValueError`` on another length or a NaN."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.size != k:
        raise ValueError(f"t must have length {k}")
    _require_no_nan(t)
    return t


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


class ScaleSmoother:
    """Integrals against g(s) h(s) ds over the support of the scaled-chi law h.

    ``m`` is the degrees of freedom of h, whose support I is taken between
    its 1e-14 and 1 - 1e-14 quantiles; ``g`` maps an array of scales to an
    array of factors in [0, 1] (None means g = 1).  Construction interpolates
    g h on I by a degree-64 Chebyshev series and integrates it, once.
    ``err_est`` bounds the error of that antiderivative: the interpolant's
    last four coefficients times |I|, plus the 2e-14 of mass of h outside I.
    """

    def __init__(self, m: int, g: Callable[[np.ndarray], np.ndarray] | None = None) -> None:
        self.m = int(m)
        self.g = g
        self.support = (
            chi_scaled_quantile(self.m, _TAIL_Q), chi_scaled_quantile(self.m, 1.0 - _TAIL_Q)
        )
        s_lo, s_hi = self.support
        cheb = Chebyshev.interpolate(self._weight, _CHEB_DEGREE, domain=[s_lo, s_hi])
        self.err_est = float(np.abs(cheb.coef[-4:]).sum()) * (s_hi - s_lo) + 2.0 * _TAIL_Q
        self._antideriv = cheb.integ(lbnd=s_lo)

    def _weight(self, s: np.ndarray) -> np.ndarray:
        h = chi_scaled_density(self.m, s)
        return h if self.g is None else self.g(s) * h

    def mass(self) -> float:
        """int_I g h ds."""
        return float(self._antideriv(self.support[1]))

    def reject(self, u, v: float, w: float) -> np.ndarray:
        """int_I P(|u + v Z| >= s w) g(s) h(s) ds for Z standard normal.

        ``u`` may have any shape; ``v >= 0`` and ``w > 0`` are scalars.  The
        rejection probability is 1 for s below |u|/w - 9 v/w and 0 above
        |u|/w + 9 v/w, to better than 1e-18, so the integral is the
        antiderivative up to the lower end of that window plus a
        Gauss-Legendre rule of the exact integrand across it.  With v = 0 the
        window is empty and the integral is the antiderivative at |u|/w.
        """
        s_lo, s_hi = self.support
        a = np.abs(np.asarray(u, dtype=float))
        flat = a.ravel()
        lo = np.clip((flat - _WINDOW * v) / w, s_lo, s_hi)
        hi = np.clip((flat + _WINDOW * v) / w, s_lo, s_hi)
        out = self._antideriv(lo)
        # only rows whose window meets I need the rule
        open_rows = np.flatnonzero(hi > lo)
        for start in range(0, open_rows.size, _CHUNK_ROWS):
            rows = open_rows[start:start + _CHUNK_ROWS]
            half = 0.5 * (hi[rows] - lo[rows])
            s = (lo[rows] + half)[:, None] + half[:, None] * _GL_NODES
            f = 1.0 - delta(v, flat[rows, None], s * w)
            f *= self._weight(s)
            out[rows] += half * (f @ _GL_WEIGHTS)
        return out.reshape(a.shape)

    def edges(self, w: float) -> tuple[float, ...]:
        """Values of u at which ``reject(u, 0, w)`` jumps or kinks: only u = 0,
        through |u|; elsewhere it is the smooth antiderivative at |u|/w."""
        return (0.0,)

    def converged(self, spec: QuadratureSpec) -> bool:
        """Whether the error estimate meets ``abs_tol`` and the rule's 65 nodes
        fit within ``max_nodes``."""
        return self.err_est <= spec.abs_tol and spec.max_nodes > _CHEB_DEGREE


class PointScale:
    """Integrals against g(s) times the point mass at s = 1: the known scale.

    The twin of ``ScaleSmoother`` for the selector that uses the true sigma:
    every integral is its integrand at s = 1, so it is exact (``err_est`` is
    0) and g is evaluated once, at construction.
    """

    err_est = 0.0

    def __init__(self, g: Callable[[float], float] | None = None) -> None:
        self._g1 = 1.0 if g is None else float(g(1.0))

    def mass(self) -> float:
        """g(1)."""
        return self._g1

    def reject(self, u, v: float, w: float):
        """P(|u + v Z| >= w) g(1) for Z standard normal, ``u`` of any shape."""
        return (1.0 - delta(v, u, w)) * self._g1

    def edges(self, w: float) -> tuple[float, ...]:
        """Values of u at which ``reject(u, 0, w)`` jumps: u = -w and u = w."""
        return (-w, w)

    def converged(self, spec: QuadratureSpec) -> bool:
        return True


def _gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec,
    breakpoints,
) -> QuadResult:
    """Globally adaptive Gauss-Kronrod 10/21 rule for int_a^b f(x) dx.

    ``f`` maps a 1-D array of nodes to their values.  The rule starts from
    [a, b] split at the ``breakpoints`` inside it (points where f jumps or
    kinks) and evaluates f once per pass, on the nodes of every subinterval
    opened in that pass.  A subinterval's error estimate is |K - G|, the gap
    between its Kronrod and Gauss values.  The rule stops with
    ``converged=True`` once the summed estimate is within
    ``max(abs_tol, rel_tol * |value|)``; otherwise it bisects every
    subinterval whose estimate exceeds its length's share of that tolerance,
    and stops with ``converged=False`` when the next pass would take the node
    count past ``spec.max_nodes``, or at once, with an infinite error
    estimate, when f is not finite at some node.
    """
    if not b > a:
        return QuadResult(0.0, 0.0, True)
    edges = np.unique(np.clip(np.concatenate(([a], breakpoints, [b])), a, b))
    new_lo, new_hi = edges[:-1], edges[1:]
    lo = hi = val = err = np.empty(0)
    nodes = 0
    while True:
        half = 0.5 * (new_hi - new_lo)
        x = (new_lo + half)[:, None] + half[:, None] * _GK_NODES
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        nodes += x.size
        kron = half * (fx @ _KRONROD_WEIGHTS)
        lo, hi = np.concatenate((lo, new_lo)), np.concatenate((hi, new_hi))
        val = np.concatenate((val, kron))
        err = np.concatenate((err, np.abs(kron - half * (fx @ _GAUSS_WEIGHTS))))
        total, err_sum = float(val.sum()), float(err.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if err_sum <= tol:
            return QuadResult(total, err_sum, True)
        split = err > tol * (hi - lo) / (b - a)
        if not (math.isfinite(err_sum) and split.any()):
            # f is not finite at some node: a NaN estimate marks nothing for
            # bisection, so the next pass would repeat this one
            return QuadResult(total, math.inf, False)
        if nodes + 2 * _GK_NODES.size * int(split.sum()) > spec.max_nodes:
            return QuadResult(total, err_sum, False)
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
        keep = ~split
        lo, hi, val, err = lo[keep], hi[keep], val[keep], err[keep]


def _normal_interval(lo, hi):
    """P(lo < W < hi) for standard normal W, elementwise.

    The two cdf evaluations are arranged on the lower tail, as in ``delta``,
    so the difference stays accurate when the interval lies far out.
    """
    with np.errstate(invalid="ignore"):
        out = np.where(lo > -hi, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))
    return np.maximum(out, 0.0)


def _region_integral(
    comp,
    t: np.ndarray,
    g: Callable[[np.ndarray], np.ndarray] | None,
    a: np.ndarray | None,
    spec: QuadratureSpec,
    breakpoints=(),
) -> QuadResult:
    """int_{z <= t} g(a'w) N(0, I)(dw) over z = mean + F w, with mean the
    ``mean_shift`` of ``comp`` and F (k, rank) its ``factor``.

    ``g`` maps an array of values of y = a'w to an array of factors
    (None: g = 1), ``a`` (rank,) is the direction of y in the factor's
    coordinates and ``breakpoints`` are values of y at which g jumps or
    kinks.  With a = 0, y = 0 and g is the constant g(0).  Otherwise the
    rank alone picks the path: a point mass at rank zero, randomized QMC at
    rank three or more, and else conditioning on y (without g, a = F'e_i for
    the coordinate i of largest variance).  Given y ~ N(0, |a|^2), z is
    mean + beta y + c W with beta = F a / |a|^2, W standard normal and c = 0
    at rank one, c = F q at rank two with q the unit vector orthogonal to a.
    Coordinates with c_i != 0 bound W, so P(z <= t | y) is a normal interval
    probability; coordinates with c_i = 0 clip the range of y.  The 1-D
    integral over y goes to ``_gauss_kronrod``, split where two bounds on W
    cross and at the ``breakpoints``.
    """
    mean, F, k = comp.mean_shift, comp.factor, comp.k
    if g is not None and not a.any():
        g0 = float(g(np.zeros(1))[0])
        plain = _region_integral(comp, t, None, None, spec)
        return QuadResult(g0 * plain.value, abs(g0) * plain.err_est, plain.converged)
    if comp.rank == 0:
        return QuadResult(float(np.all(mean <= t)), 0.0, True)
    if comp.rank >= 3:
        return _qmc_region_estimate(mean, F, t, g, a, spec)
    row_var = np.einsum("ij,ij->i", F, F)  # the diagonal of F F'
    if g is None:
        a = F[int(np.argmax(row_var))]
    var_y = float(a @ a)
    sd = math.sqrt(var_y)
    beta = (F @ a) / var_y
    if comp.rank == 1:
        c = np.zeros(k)
    else:
        c = F @ (np.array([-a[1], a[0]]) / math.hypot(a[0], a[1]))
        # variances below this are roundoff of the covariance entries
        c[c * c <= 64.0 * k * np.finfo(float).eps * float(row_var.sum())] = 0.0
    room = t - mean  # coordinate i lies in the region when beta_i y + c_i W <= room_i

    y_lo, y_hi = -np.inf, np.inf
    for i in np.flatnonzero(c == 0.0):
        if beta[i] > 0.0:
            y_hi = min(y_hi, room[i] / beta[i])
        elif beta[i] < 0.0:
            y_lo = max(y_lo, room[i] / beta[i])
        elif room[i] < 0.0:
            return QuadResult(0.0, 0.0, True)
    bounded = np.flatnonzero(c)
    if g is None and bounded.size == 0:
        return QuadResult(float(_normal_interval(y_lo / sd, y_hi / sd)), 1e-15, True)

    span = -sd * ndtri(_GAUSS_TAIL_Q)
    y_lo, y_hi = max(y_lo, -span), min(y_hi, span)
    if not y_hi > y_lo:
        return QuadResult(0.0, 2.0 * _GAUSS_TAIL_Q, True)
    knots = [float(bp) for bp in breakpoints]
    for i, j in itertools.combinations(bounded, 2):
        # where the bounds of coordinates i and j on W cross, the binding one switches
        slope = beta[j] * c[i] - beta[i] * c[j]
        if slope != 0.0 and np.isfinite(room[[i, j]]).all():
            knots.append((room[j] * c[i] - room[i] * c[j]) / slope)

    def f(y: np.ndarray) -> np.ndarray:
        w_lo = np.full(y.shape, -np.inf)
        w_hi = np.full(y.shape, np.inf)
        for i in bounded:
            bound = (room[i] - beta[i] * y) / c[i]
            if c[i] > 0.0:
                w_hi = np.minimum(w_hi, bound)
            else:
                w_lo = np.maximum(w_lo, bound)
        out = _normal_interval(w_lo, w_hi) * norm_pdf(y / sd) / sd
        return out if g is None else out * g(y)

    res = _gauss_kronrod(f, y_lo, y_hi, spec, knots)
    return QuadResult(res.value, res.err_est + 2.0 * _GAUSS_TAIL_Q, res.converged)


def _qmc_region_estimate(
    mean: np.ndarray,
    factor: np.ndarray,
    t: np.ndarray,
    g: Callable[[np.ndarray], np.ndarray] | None,
    a: np.ndarray | None,
    spec: QuadratureSpec,
) -> QuadResult:
    """Randomized-QMC estimate of ``_region_integral`` (z = mean + F w).

    Uses ``_QMC_BATCHES`` independently scrambled Sobol sequences; the spread
    of the batch means gives the (3 sigma) error estimate.  Deterministic:
    scramble seeds are fixed.  g is evaluated only at the a'w of points
    inside the region.
    """
    # imported here, not at module level: scipy.stats costs about 0.5 s and
    # 38 MB to load, and only this rank >= 3 path needs it
    from scipy.stats import qmc

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
            w = ndtri(np.clip(sob.random(per_batch), tiny, 1.0 - tiny))
            inside = np.all(mean + w @ factor.T <= t, axis=1)
            vals = inside.astype(float)
            if g is not None and inside.any():
                vals[inside] = g(w[inside] @ a)
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
    projection=None,
    breakpoints=(),
) -> QuadResult:
    """int_{z <= t} g(z) dPhi(z) for the Gaussian measure of ``comp``.

    ``comp`` carries ``mean_shift`` (k,), ``rank`` and ``factor`` F
    (k, rank), as a ``GaussianComponent`` does; the measure is
    N(mean_shift, F F'), read through F alone, and its rank picks the path.
    ``integrand`` receives an (m, k) batch of points and must return (m,)
    values; when absent the plain cdf of the region is computed.
    ``projection`` d (k,) states that the integrand reads z only through
    d'z, and is required with an integrand at rank two or more (at rank one
    it defaults to the coordinate of largest variance); ``breakpoints`` are
    values of d'z where the integrand jumps or kinks.  The integrand is
    evaluated at points mean + beta y that carry y = d'(z - mean), a
    constant when its variance is roundoff.

    At rank at most two (always when k <= 2) the integral is one
    deterministic 1-D integral over y (without an integrand, over the
    coordinate of largest variance) by the batched adaptive Gauss-Kronrod
    rule, or a closed form; at rank three or more it is randomized QMC with
    a 3-sigma empirical error estimate.
    """
    mean, F, k = comp.mean_shift, comp.factor, comp.k
    t = _as_point(t, k)
    if integrand is None:
        return _region_integral(comp, t, None, None, spec)
    row_var = np.einsum("ij,ij->i", F, F)
    if projection is None:
        if comp.rank >= 2:
            raise ValueError("an integrand at rank two or more needs its projection")
        projection = np.eye(k)[int(np.argmax(row_var))]
    d = np.atleast_1d(np.asarray(projection, dtype=float))
    if d.size != k:
        raise ValueError(f"projection must have length {k}")
    a = F.T @ d
    # variances below this are roundoff of the covariance entries
    if not a @ a > 64.0 * k * np.finfo(float).eps * float(row_var.sum()) * float(d @ d):
        a = np.zeros_like(a)
    beta = (F @ a) / float(a @ a) if a.any() else np.zeros(k)

    def g(y: np.ndarray) -> np.ndarray:
        return np.asarray(integrand(mean + y[:, None] * beta), dtype=float)

    return _region_integral(comp, t, g, a, spec, np.asarray(breakpoints, float) - d @ mean)


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

    Draws are ``mean + F w`` with F the component's ``factor`` and w, of
    length ``rank``, standard normal from the given deterministic stream.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    w = normals_from_stream(stream, (count, comp.rank))
    return comp.mean_shift + w @ comp.factor.T
