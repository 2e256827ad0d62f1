import math

import mpmath
import numpy as np
import pytest

from spde_lab.errors import CapabilityError, DomainError
from spde_lab.special import HermiteTable, log_gamma, std_normal_cdf


def hermite(n: int, x: float, table: HermiteTable = HermiteTable()) -> float:
    """H_n(x), up to the table's maximum order, from its scaled values."""
    mant, exp2 = table.values_scaled(n, x)
    return math.ldexp(mant[n], int(exp2[n]))



class TestHermite:
    def test_reference_values(self):
        assert hermite(2, 2.0) == pytest.approx(3.0, abs=1e-14)
        assert hermite(0, 7.3) == 1.0
        # recurrence oracle: H_4 = x^4 - 6 x^2 + 3 at x = 0
        assert hermite(4, 0.0) == pytest.approx(3.0, abs=1e-14)

    def test_low_orders_match_closed_forms(self):
        for x in np.linspace(-5, 5, 21):
            assert hermite(1, x) == pytest.approx(x, abs=1e-14)
            assert hermite(2, x) == pytest.approx(x * x - 1, rel=1e-13, abs=1e-13)
            assert hermite(3, x) == pytest.approx(x**3 - 3 * x, rel=1e-13, abs=1e-12)

    def test_recurrence_invariant_scaled(self):
        # H_{n+1} = x H_n - n H_{n-1} to relative 1e-12 for n <= 200, |x| <= 5
        table = HermiteTable(200)
        for x in (-5.0, -1.7, 0.3, 2.0, 5.0):
            mant, exp2 = table.values_scaled(200, x)
            for n in range(1, 200):
                lhs = mant[n + 1]
                rhs = x * mant[n] * 2.0 ** float(exp2[n] - exp2[n + 1]) - n * mant[
                    n - 1
                ] * 2.0 ** float(exp2[n - 1] - exp2[n + 1])
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_generating_function(self):
        # exp(tx - t^2/2) = 1 + sum t^n/n! H_n(x), 30 terms, < 1e-10
        table = HermiteTable(40)
        for t in (-1.0, -0.5, 0.25, 1.0):
            for x in (-3.0, -1.0, 0.0, 2.0, 3.0):
                h = table.values(30, x)
                terms = [t**n / math.factorial(n) * h[n] for n in range(31)]
                assert abs(math.exp(t * x - t * t / 2) - sum(terms)) < 1e-10

    def test_against_mpmath(self):
        # probabilists' H_n(x) = 2^(-n/2) * physicists' He_n(x / sqrt(2))
        for n, x in [(7, 1.3), (15, -2.2), (40, 4.9), (60, 0.7)]:
            ref = float(2 ** (-n / 2) * mpmath.hermite(n, x / mpmath.sqrt(2)))
            assert hermite(n, x) == pytest.approx(ref, rel=1e-11)

    def test_order_cap(self):
        table = HermiteTable(50)
        for method in (lambda n, x: hermite(n, x, table), table.values, table.values_scaled):
            with pytest.raises(CapabilityError):
                method(51, 0.0)
            with pytest.raises(DomainError):
                method(-1, 0.0)


class TestStdNormalCdf:
    def test_reference_values(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert std_normal_cdf(8.0) == pytest.approx(1.0, abs=1e-12)
        # frozen from the mpmath ncdf oracle at 1e-14
        assert std_normal_cdf(0.70710678) == pytest.approx(0.76024993853786703, abs=1e-12)

    def test_against_mpmath(self):
        for x in np.linspace(-8, 8, 33):
            assert std_normal_cdf(x) == pytest.approx(float(mpmath.ncdf(x)), abs=1e-12)

    def test_symmetry(self):
        for x in np.linspace(0, 8, 65):
            assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-14


class TestLogGamma:
    def test_reference_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        # Lanczos/series oracle value: Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)

    def test_functional_equation(self):
        # Gamma(x+1) = x Gamma(x) to relative 1e-11
        for x in np.arange(0.5, 21.0, 1.0):
            lhs = math.exp(log_gamma(x + 1.0))
            rhs = x * math.exp(log_gamma(x))
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-2.5)

    def test_against_mpmath(self):
        for x in (0.25, 1.7, 3.14, 10.5, 101.0):
            assert log_gamma(x) == pytest.approx(float(mpmath.loggamma(x)), rel=1e-13)
