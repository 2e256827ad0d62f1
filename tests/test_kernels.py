import math

import numpy as np
import pytest
from scipy import integrate

from spde_lab.errors import DomainError
from spde_lab.kernels import heat_kernel


class TestHeatKernel:
    def test_peak_value(self):
        assert heat_kernel(1.0, 0.0, 1) == pytest.approx((2 * math.pi) ** -0.5, rel=1e-14)

    def test_far_away_is_zero_without_warning(self):
        # x^2 overflows: the Gaussian is 0 there, and the suite makes a warning an error
        assert heat_kernel(1.0, 1e200, 1) == 0.0
        assert np.array_equal(heat_kernel(1e-300, np.array([0.0, 1e10]), 1)[1:], [0.0])

    def test_scaling(self):
        # G(t, x) = t^(-d/2) G(1, x / sqrt(t))
        assert heat_kernel(4.0, 2.0, 1) == pytest.approx(heat_kernel(1.0, 1.0, 1) / 2, rel=1e-14)

    def test_unit_mass_quadrature(self):
        # Gauss-Legendre oracle over [-8 sqrt(t), 8 sqrt(t)]
        for t in (0.25, 1.0, 3.0):
            x, w = np.polynomial.legendre.leggauss(200)
            lim = 8.0 * math.sqrt(t)
            mass = lim * np.sum(w * heat_kernel(t, lim * x, 1))
            assert mass == pytest.approx(1.0, abs=1e-10)

    def test_semigroup_property(self):
        # int G(t, x - y) G(s, y) dy = G(t + s, x) by quadrature to 1e-8
        xq, wq = np.polynomial.legendre.leggauss(400)
        for t, s, x in [(0.5, 0.25, 0.3), (1.0, 1.0, -1.2), (0.1, 0.7, 0.0)]:
            lim = 8.0 * math.sqrt(max(t, s)) + abs(x)
            y = lim * xq
            val = lim * np.sum(wq * heat_kernel(t, x - y, 1) * heat_kernel(s, y, 1))
            assert val == pytest.approx(heat_kernel(t + s, x, 1), abs=1e-8)

    def test_multid(self):
        v = heat_kernel(1.0, np.array([0.0, 0.0]), 2)
        assert v == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)

    def test_d2_unit_mass(self):
        t = 0.7
        x, w = np.polynomial.legendre.leggauss(120)
        lim = 8.0 * math.sqrt(t)
        r = lim * (x + 1) / 2
        points = np.column_stack([r, np.zeros_like(r)])
        mass = np.sum(w * (lim / 2) * 2 * math.pi * r * heat_kernel(t, points, 2))
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            heat_kernel(0.0, 0.0, 1)


class TestGSquared:
    def test_quadrature_oracle(self):
        # the spatial integral of G(s, .)^2 is (4 pi s)^(-1/2) for heat in d = 1
        for s in (0.37, 0.8, 1.48):
            lim = 8.0 * math.sqrt(s)
            x, w = np.polynomial.legendre.leggauss(300)
            val = lim * np.sum(w * heat_kernel(s, lim * x, 1) ** 2)
            assert val == pytest.approx((4 * math.pi * s) ** -0.5, rel=1e-9)

    def test_cond_g_heat_d2_log_divergence(self):
        # int_eps^t (4 pi s)^{-1} ds grows without bound as eps -> 0:
        # partial integrals increase by the same log(2) / (4 pi) per halving
        increments = []
        t = 1.0
        for k in range(1, 12):
            lo, hi = 2.0 ** -(k + 1), 2.0**-k
            val, _ = integrate.quad(lambda s: 1.0 / (4 * math.pi * s), lo, hi)
            increments.append(val)
        assert all(v == pytest.approx(math.log(2) / (4 * math.pi), rel=1e-10) for v in increments)
