import math

import numpy as np
import pytest
from scipy import integrate

from spde_lab.errors import CapabilityError, DomainError
from spde_lab.kernels import (
    OperatorSpec,
    alpha_h,
    g_squared_integral,
    gamma_fractional,
    heat_kernel,
    riesz_kernel,
    wave_kernel,
)

HEAT1 = OperatorSpec("heat", 1)
WAVE1 = OperatorSpec("wave", 1)


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


class TestWaveKernel:
    def test_d1(self):
        assert wave_kernel(2.0, 1.0, 1) == 0.5
        assert wave_kernel(2.0, 3.0, 1) == 0.0

    def test_d2(self):
        assert wave_kernel(1.0, np.array([0.0, 0.0]), 2) == pytest.approx(
            1 / (2 * math.pi), rel=1e-14
        )
        assert wave_kernel(1.0, np.array([2.0, 0.0]), 2) == 0.0

    def test_d2_total_mass_is_t(self):
        # int over |x| < t of the d=2 kernel equals t; radial quadrature with
        # the substitution r = t sin(phi) to tame the rim singularity
        t = 1.7
        x, w = np.polynomial.legendre.leggauss(200)
        phi = (x + 1) * (math.pi / 4)
        r = t * np.sin(phi)
        jac = t * np.cos(phi) * (math.pi / 4)
        points = np.column_stack([r, np.zeros_like(r)])
        mass = np.sum(w * 2 * math.pi * r * wave_kernel(t, points, 2) * jac)
        assert mass == pytest.approx(t, rel=1e-10)

    def test_d3_rejected(self):
        with pytest.raises(CapabilityError, match="surface measure"):
            wave_kernel(1.0, np.array([0.0, 0.0, 0.0]), 3)


class TestGSquared:
    def test_heat_d1(self):
        assert g_squared_integral(HEAT1, 1.0) == pytest.approx((4 * math.pi) ** -0.5, rel=1e-14)

    def test_wave_d1(self):
        # int (1/4) 1{|x|<2} dx = 1
        assert g_squared_integral(WAVE1, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_heat_scaling(self):
        s = 0.37
        assert g_squared_integral(HEAT1, 4 * s) == pytest.approx(
            g_squared_integral(HEAT1, s) / 2, rel=1e-14
        )

    def test_quadrature_oracle(self):
        # independent check: g(s) really is the spatial integral of G^2
        for op, s in [(HEAT1, 0.8), (WAVE1, 1.3)]:
            lim = 8.0 * math.sqrt(s) if op.kind == "heat" else s
            x, w = np.polynomial.legendre.leggauss(300)
            kern = heat_kernel if op.kind == "heat" else wave_kernel
            val = lim * np.sum(w * kern(s, lim * x, 1) ** 2)
            assert val == pytest.approx(g_squared_integral(op, s), rel=1e-9)

    def test_unsupported(self):
        with pytest.raises(CapabilityError):
            g_squared_integral(OperatorSpec("heat", 2), 1.0)

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


class TestScalarKernels:
    def test_riesz(self):
        assert riesz_kernel(1.0, 2.0, d=2) == 0.5
        with pytest.raises(DomainError):
            riesz_kernel(1.0, 0.0, d=2)
        with pytest.raises(DomainError):
            riesz_kernel(2.5, 1.0, d=2)

    def test_gamma_fractional(self):
        assert gamma_fractional(0.75, 0.5) == pytest.approx(0.5**-0.5, rel=1e-14)
        for h in (0.55, 0.7, 0.95):
            assert gamma_fractional(h, 1.0) == 1.0
        with pytest.raises(DomainError):
            gamma_fractional(0.75, 0.0)
        with pytest.raises(DomainError):
            gamma_fractional(0.4, 1.0)

    def test_alpha_h(self):
        assert alpha_h(0.75) == pytest.approx(0.375)
