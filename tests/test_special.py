"""The standard-library special functions against scipy as an independent oracle."""

import math

import numpy as np
import pytest
from scipy import special, stats

from wedgeq import config
from wedgeq._special import log_beta, t_quantile

# Every degree of freedom the simulator can ask for lies in [1, MAX_DF]:
# batch means give n_batches - 1, replications reps - 1.
MAX_DF = max(config.MAX_BATCHES, config.MAX_REPS) - 1
DFS = list(range(1, 201)) + [500, 1000, 10_000, MAX_DF]
CI_LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


@pytest.mark.parametrize("level", CI_LEVELS)
def test_t_quantile_matches_scipy(level):
    # The probability is formed as the simulator forms it.
    p = 0.5 + level / 2.0
    errors = {}
    for df in DFS:
        expected = stats.t.ppf(p, df)
        errors[df] = abs(t_quantile(p, df) - expected) / expected
    worst = max(errors, key=errors.get)
    assert errors[worst] <= 1e-12, f"df={worst}: relative error {errors[worst]:.3g}"


def test_t_quantile_closed_forms():
    # df = 1 is the Cauchy quantile tan(pi (p - 1/2)); df = 2 has
    # t = (2p - 1) / sqrt(2 p (1 - p)).
    for p in (0.55, 0.75, 0.9, 0.995, 0.9995):
        assert t_quantile(p, 1) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-13)
        expected = (2 * p - 1) / math.sqrt(2 * p * (1 - p))
        assert t_quantile(p, 2) == pytest.approx(expected, rel=1e-13)
    assert t_quantile(0.5, 7) == 0.0


def test_t_quantile_rejects_bad_arguments():
    for p, df in ((0.4, 5), (1.0, 5), (0.9, 0), (0.9, 2.5)):
        with pytest.raises(ValueError):
            t_quantile(p, df)


# Signal shapes across the lgamma-only range and both Stirling-corrected
# branches (one shape >= 10, both >= 10).
SHAPES = (1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 7.25, 9.99, 10.0, 10.01, 12.5, 20.0, 50.0, 80.0)


def test_log_beta_matches_scipy():
    for a in SHAPES:
        for b in SHAPES:
            assert log_beta(a, b) == pytest.approx(special.betaln(a, b), rel=1e-14, abs=1e-14)


def test_log_beta_at_large_shapes():
    # Shapes whose sum overflows a float, and shapes of very different scale.
    for a, b in ((5.0, 1.7e308), (12.0, 1e308), (0.5, 1e300), (1e300, 1e5), (1e12, 3e12)):
        assert log_beta(a, b) == pytest.approx(special.betaln(a, b), rel=1e-14)
        assert log_beta(b, a) == log_beta(a, b)
    # scipy returns NaN for two huge equal shapes; Stirling's series gives
    # log B(x, x) = log(2 pi) / 2 - log(x) / 2 - (2x - 1/2) log 2 + O(1/x),
    # summed so that 2x, which overflows at x = 1e308, is never formed.
    for x in (1e200, 1e308):
        log2 = math.log(2.0)
        expected = 0.5 * math.log(2.0 * math.pi) - 0.5 * math.log(x) + 0.5 * log2 - 2.0 * (x * log2)
        assert log_beta(x, x) == pytest.approx(expected, rel=1e-15)
    # Below -1.8e308, the largest float: the true value is out of range.
    assert log_beta(1.7976931348623157e308, 1.7976931348623157e308) == -math.inf


def test_signal_log_normaliser_matches_scipy(make_env):
    for alpha, beta in ((1.0, 1.0), (2.0, 2.0), (5.0, 2.0), (2.0, 5.0), (3.5, 12.0), (15.0, 15.0)):
        env = make_env(alpha=alpha, beta=beta)
        assert env._log_norm == pytest.approx(special.betaln(alpha, beta), rel=1e-14, abs=1e-14)
        s = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(env.signal_pdf(s), stats.beta(alpha, beta).pdf(s), rtol=1e-12)
