"""The exact binomial tail of ``conftest`` against a direct mpmath summation of the pmf."""

import math

import mpmath
import pytest

from conftest import binomial_two_sided_p


def mp_two_sided_p(k, n, p):
    """2 min(P(K <= k), P(K >= k)), capped at 1, summed outward from k in mpmath at 40 digits.

    Each tail adds terms by the ratio of neighbouring pmf values until a term
    is below 1e-40 of its tail.
    """
    with mpmath.workdps(40):
        n, p = mpmath.mpf(n), mpmath.mpf(p)
        at_k = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
                          + k * mpmath.log(p) + (n - k) * mpmath.log1p(-p))
        odds = p / (1 - p)

        def tail(step):
            total, term, j = at_k, at_k, k
            while 0 < j < n and term > total * mpmath.mpf(10) ** -40:
                term *= (n - j) / (j + 1) * odds if step > 0 else j / (n - j + 1) / odds
                j += step
                total += term
            return total

        return float(min(1, 2 * min(tail(-1), tail(+1))))


def around_the_mean(n, p, zs):
    """(k, n, p) at ``zs`` binomial standard deviations from the mean n p."""
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    return [(int(round(mean + z * sd)), n, p) for z in zs]


# Both tails, near and far from the mean; p near 0 and 1 at n up to 1e11,
# where 1 - p keeps few of p's digits. n = 1e11 at p = 2.1e-5 is the deep-tail
# test's 9 SNU row.
GRID = [
    *around_the_mean(50, 0.5, (-4.0, 1.0)),
    *around_the_mean(1000, 0.3, (-6.0, -0.3, 5.0)),
    *around_the_mean(10**6, 0.01, (-6.0, 0.7, 2.0)),
    *around_the_mean(10**6, 2e-5, (-3.0, 5.0)),
    *around_the_mean(10**9, 0.9999, (-5.0, 0.3)),
    *around_the_mean(10**11, 1e-9, (-6.0, -1.0, 5.0)),
    *around_the_mean(10**11, 3e-7, (-6.0, -0.3, 5.0)),
    *around_the_mean(10**11, 2.1e-5, (-3.0,)),
    (0, 1000, 0.001), (1000, 1000, 0.999), (0, 10, 0.5), (10, 10, 0.5),
]


@pytest.mark.parametrize("k, n, p", GRID)
def test_matches_the_mpmath_summation(k, n, p):
    assert binomial_two_sided_p(k, n, p) == pytest.approx(mp_two_sided_p(k, n, p), rel=1e-12, abs=0)
