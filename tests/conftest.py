import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import postselect as ps

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


# The classic two-regressor illustration: one protected regressor, one tested
# at threshold 2.015 (the one-sided 5% t quantile at 5 residual df), unit
# scales, estimator correlation 0.75, n = 7.
CLASSIC = dict(rho=0.75, sigma1=1.0, sigma2=1.0, n=7, c2=2.015)
PANEL_THETA2 = (0.0, 0.1, 0.75, 1.2)


def classic_setting(theta2: float) -> ps.TwoRegressorSetting:
    return ps.TwoRegressorSetting(theta2=theta2, **CLASSIC)


def design_with_matrix(n: int, gram, seed: int = 0) -> ps.RegressionDesign:
    """X-built design with X'X/n = gram up to roundoff, for tests that run the
    selector on whole responses: an orthonormal basis (QR of a seeded Philox
    draw) scaled by the Cholesky factor of n * gram."""
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    basis, _ = np.linalg.qr(gen.standard_normal((n, len(gram))))
    return ps.RegressionDesign(basis @ np.linalg.cholesky(n * np.asarray(gram)).T)


def classic_components_with_matrix():
    """(design, family, target, params) for the theta2 = 0.75 classic setting,
    with the design built from a regressor matrix."""
    design, family, target, params = classic_setting(0.75).components()
    return design_with_matrix(design.n, design.gram), family, target, params


@pytest.fixture(scope="session")
def classic_components():
    return classic_components_with_matrix()


@pytest.fixture(scope="session")
def classic_gram():
    return np.linalg.inv(np.array([[1.0, 0.75], [0.75, 1.0]]))
