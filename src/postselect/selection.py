"""General-to-specific model selection and its exact selection probabilities.

The selector tests the highest-order coefficient first: starting from the
full model, order p is selected if its t-ratio clears the threshold c_p and
all higher-order t-ratios failed theirs; if nothing rejects down to the
minimal order, the minimal order is selected.  The residual scale is always
estimated from the full model.  A companion "known scale" selector replaces
the estimate by the true sigma, which makes every t-ratio exactly Gaussian.
Both selection probabilities are weights of one weights-only
``distribution.finite_sample_engine``; the variants differ only in its law
of the scale ratio sigma_hat/sigma (the point mass at 1 for the known scale).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import finite_sample_engine
from .kernels import DEFAULT_SPEC, QuadratureSpec
from .model import ParameterPoint, RegressionDesign, SelectionFamily

__all__ = [
    "DegenerateResidualError",
    "SelectionOutcome",
    "select_model",
    "select_model_known_sigma",
    "selection_prob_known",
    "selection_prob_unknown",
]


class DegenerateResidualError(RuntimeError):
    """Y lies exactly in the column space of X (probability zero under the model)."""


@dataclass(frozen=True, eq=False)
class SelectionOutcome:
    """Selected order with the full set of test statistics.

    ``t_stats[p]`` is the t-ratio of order p for 1 <= p <= P (t_stats[0] = 0);
    only entries at orders above the minimal one enter the selection rule.
    ``sigma_hat`` is the scale actually used in the ratios: the full-model
    residual estimate, or the supplied sigma for the known-scale selector.
    """

    p_hat: int
    t_stats: np.ndarray
    sigma_hat: float


def _tstats_and_scale(design: RegressionDesign, Y, scale=None):
    """t-ratios of every nested order for each row of Y, from one QR of X.

    With X = QR and R's diagonal positive, the order-p fit solves
    R[:p,:p] coef = (Q'y)[:p]; its p-th coefficient (Q'y)_p / R_pp has
    standard error scale / R_pp, so its t-ratio is (Q'y)_p / scale.  ``Y`` is
    (m, n), one response per row; returns (t, scale): t is (P + 1, m) with
    t[0] = 0, scale the (m,) residual scales of the full model (or the given
    scale).  A design given by its Gram matrix alone has no X: ``ValueError``.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != design.n:
        raise ValueError(f"Y must have length {design.n}")
    q, _ = design.qr
    z = q.T @ Y.T
    if scale is None:
        resid = z.T @ q.T
        np.subtract(Y, resid, out=resid)
        rss = np.einsum("ij,ij->i", resid, resid)
        # degenerate up to roundoff: Y lies in the span of X (|y|^2 = |Q'y|^2
        # + rss); an all-zero fit still gives the well-defined ratios 0,
        # anything else has no meaningful t-ratios
        yy = np.einsum("ij,ij->j", z, z) + rss
        degenerate = rss <= 1e-24 * np.maximum(1.0, yy)
        if np.any(z[:, degenerate] != 0.0):
            raise DegenerateResidualError("zero residual: Y lies in the span of X")
        scale = np.sqrt(rss / (design.n - design.P))
        scale[degenerate] = 0.0
    else:
        scale = np.full(len(Y), float(scale))
    return _tratios(z, scale), scale


def _tratios(z: np.ndarray, scale) -> np.ndarray:
    """t-ratios (P + 1, m) of every nested order from z = Q'Y' (P, m).

    Order p's ratio is z_p / scale, with ``scale`` a scalar or the (m,)
    residual scales; t[0] = 0.  A zero scale comes with z = 0, whose ratios
    are 0.
    """
    t = np.zeros((z.shape[0] + 1, z.shape[1]))
    t[1:] = z / np.maximum(scale, np.finfo(float).tiny)
    return t


def _largest_admissible(family: SelectionFamily, t: np.ndarray) -> np.ndarray:
    """Selected order for each column of t: the highest order whose test rejects."""
    selected = np.full(t.shape[1:], family.min_order)
    for p in range(family.min_order + 1, family.P + 1):
        selected[np.abs(t[p]) >= family.critical(p)] = p
    return selected


def _outcome(design: RegressionDesign, family: SelectionFamily, Y, scale=None):
    if family.P != design.P:
        raise ValueError("family order range inconsistent with design")
    Y = np.atleast_1d(np.asarray(Y, dtype=float))
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y must be finite")
    t, scale = _tstats_and_scale(design, Y[None, :], scale)
    t = t[:, 0]
    return SelectionOutcome(
        p_hat=int(_largest_admissible(family, t)), t_stats=t, sigma_hat=float(scale[0])
    )


def select_model(Y, design: RegressionDesign, family: SelectionFamily) -> SelectionOutcome:
    """Data-driven selected order using the full-model residual scale estimate."""
    return _outcome(design, family, Y)


def select_model_known_sigma(
    Y, design: RegressionDesign, family: SelectionFamily, sigma: float
) -> SelectionOutcome:
    """Idealized selected order using the true error scale in the t-ratios."""
    if not 0.0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")
    return _outcome(design, family, Y, scale=sigma)


def selection_prob_known(
    design: RegressionDesign,
    family: SelectionFamily,
    params: ParameterPoint,
    p: int,
) -> float:
    """Exact probability that the known-scale selector picks order p."""
    return finite_sample_engine(design, family, None, params, "known").weight(p).value


def selection_prob_unknown(
    design: RegressionDesign,
    family: SelectionFamily,
    params: ParameterPoint,
    p: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Exact probability that the data-driven selector picks order p.

    Smooths the known-scale acceptance probabilities against the scaled-chi
    law of the residual scale estimate (n - P degrees of freedom).
    """
    engine = finite_sample_engine(design, family, None, params, "unknown")
    return engine.weight(p, spec).value
