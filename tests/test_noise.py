import math

import numpy as np
import pytest
from scipy import integrate

from spde_lab.errors import CapabilityError, DomainError, InputError
from spde_lab.grids import SpaceTimeGrid, TimeGrid
from spde_lab.noise import (
    Cell,
    HomogeneousNoiseSampler,
    NoiseSpec,
    SpaceKernel,
    TimeKernel,
    cell_covariance,
    cholesky_with_jitter,
    fbm_covariance,
    fbm_covariance_matrix,
    fractional_time_cell_integral,
    grid_cell,
    riesz_cell_integral,
    sample_bm_path,
    sample_bm_paths,
    sample_fbm_paths,
    sample_homogeneous_noise,
    sample_white_noise_sheet,
    space_factor_matrix,
    time_factor_matrix,
)
from spde_lab.rng import RngStream


class TestBrownianMotion:
    def test_starts_at_zero(self):
        path = sample_bm_path(TimeGrid(1.0, 1), RngStream(123))
        assert path[0] == 0.0

    def test_increment_variance_chi2_band(self):
        grid = TimeGrid(1.0, 1000)
        path = sample_bm_path(grid, RngStream(42))
        inc = np.diff(path)
        n = inc.size
        assert abs(np.var(inc, ddof=1) - grid.dt) <= 3.0 * math.sqrt(2.0 / n) * grid.dt

    def test_covariance_t_wedge_s(self):
        # E[B_0.5 B_1.0] = 0.5 within 3 stderr over 1e4 replicas
        grid = TimeGrid(1.0, 2)
        paths = sample_bm_paths(grid, RngStream(7), 10_000)
        prod = paths[:, 1] * paths[:, 2]
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean() - 0.5) <= 3.0 * se


class TestWhiteNoiseSheet:
    def _sheet_values(self, seed, replicas):
        grid = SpaceTimeGrid(TimeGrid(0.5, 4), 1.0, 4)
        vals = np.stack(
            [sample_white_noise_sheet(grid, RngStream(seed, r)).values for r in range(replicas)]
        )
        return grid, vals

    def test_zero_mean_and_variance(self):
        grid, vals = self._sheet_values(3, 4000)
        cell = vals[:, 1, 2]
        se = cell.std(ddof=1) / math.sqrt(cell.size)
        assert abs(cell.mean()) <= 3.0 * se
        var = cell.var(ddof=1)
        assert abs(var - grid.cell_volume) <= 3.0 * math.sqrt(2.0 / cell.size) * grid.cell_volume

    def test_disjoint_cells_uncorrelated(self):
        _, vals = self._sheet_values(11, 4000)
        a, b = vals[:, 0, 0], vals[:, 3, 3]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(a.size)


class TestFbm:
    def test_covariance_trivials(self):
        assert fbm_covariance(0.3, 2.0, 2.0) == pytest.approx(2.0**0.6, rel=1e-14)
        assert fbm_covariance(0.75, 1.0, 2.0) == pytest.approx(0.5 * 2**1.5, rel=1e-14)
        # H = 1/2 reduces to t wedge s
        assert fbm_covariance(0.5, 0.7, 1.9) == pytest.approx(0.7, rel=1e-14)
        with pytest.raises(DomainError):
            fbm_covariance(1.0, 1.0, 1.0)

    def test_h_half_is_brownian(self):
        grid = TimeGrid(1.0, 64)
        paths = sample_fbm_paths(0.5, grid, RngStream(21), 2000)
        inc = np.diff(paths, axis=1)
        var = inc.var(ddof=1)
        assert abs(var - grid.dt) <= 3.0 * math.sqrt(2.0 / inc.size) * grid.dt

    def test_cross_covariance(self):
        grid = TimeGrid(1.0, 2)
        paths = sample_fbm_paths(0.75, grid, RngStream(5), 10_000)
        prod = paths[:, 1] * paths[:, 2]
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean() - fbm_covariance(0.75, 0.5, 1.0)) <= 3.0 * se

    def test_increment_variance(self):
        # B^H_t - B^H_s is N(0, (t-s)^(2H))
        h = 0.75
        grid = TimeGrid(1.0, 8)
        paths = sample_fbm_paths(h, grid, RngStream(17), 8000)
        d = paths[:, 6] - paths[:, 2]  # t - s = 0.5
        target = 0.5 ** (2 * h)
        assert abs(d.var(ddof=1) - target) <= 3.0 * math.sqrt(2.0 / d.size) * target

    def test_self_similarity(self):
        # Var(B^H_{at}) = a^(2H) Var(B^H_t), empirically within 3 stderr
        h, a, t = 0.7, 4.0, 0.25
        grid = TimeGrid(1.0, 16)  # node 4 is t, node 16 is a t
        paths = sample_fbm_paths(h, grid, RngStream(29), 8000)
        v_at = paths[:, 16].var(ddof=1)
        v_t = paths[:, 4].var(ddof=1)
        target = a ** (2 * h) * v_t
        band = 3.0 * math.sqrt(2.0 / paths.shape[0]) * (v_at + target)
        assert abs(v_at - target) <= band

    def test_quadratic_variation_monotone(self):
        # sum |increments|^2 decreases with n for H=0.75, increases for H=0.25
        for h, increasing in [(0.75, False), (0.25, True)]:
            means = []
            for k in range(4, 11):
                grid = TimeGrid(1.0, 2**k)
                paths = sample_fbm_paths(h, grid, RngStream(31, k), 200)
                qv = (np.diff(paths, axis=1) ** 2).sum(axis=1).mean()
                means.append(qv)
            diffs = np.diff(means)
            assert np.all(diffs > 0) == increasing
            assert np.all(diffs < 0) == (not increasing)

    def test_psd_with_small_jitter(self):
        # Cholesky succeeds with jitter <= 1e-10 * trace on grids up to 512 nodes
        for h in (0.55, 0.65, 0.75, 0.85, 0.95):
            times = TimeGrid(1.0, 512).nodes()[1:]
            cov = fbm_covariance_matrix(h, times)
            _, jitter = cholesky_with_jitter(cov)
            assert jitter <= 1e-10 * np.trace(cov)

    def test_cap(self):
        with pytest.raises(InputError):
            sample_fbm_paths(0.7, TimeGrid(1.0, 4096), RngStream(0))


class TestCellCovariance:
    def test_white_white_identical_cell(self):
        grid = SpaceTimeGrid(TimeGrid(1.0, 4), 1.0, 4)
        c = grid_cell(grid, 1, 2)
        spec = NoiseSpec.space_time_white()
        assert cell_covariance(c, c, spec) == pytest.approx(grid.cell_volume, rel=1e-12)

    def test_fractional_time_reduces_to_fbm_covariance(self):
        # alpha_H double integral over [0,t] x [0,s] equals R_H(t,s)
        for h in (0.6, 0.75, 0.9):
            for t, s in [(1.0, 2.0), (0.5, 0.5), (0.25, 1.75)]:
                v = fractional_time_cell_integral(h, 0.0, t, 0.0, s)
                assert v == pytest.approx(fbm_covariance(h, t, s), rel=1e-12)

    def test_riesz_d1_vs_adaptive_quadrature(self):
        # two unit intervals at distance 10
        alpha = 0.5
        a = Cell(0.0, 1.0, (0.0,), (1.0,))
        b = Cell(0.0, 1.0, (11.0,), (12.0,))
        spec = NoiseSpec(TimeKernel.white(), SpaceKernel.riesz(alpha))
        mine = cell_covariance(a, b, spec)
        oracle, _ = integrate.dblquad(
            lambda y, x: abs(x - y) ** -alpha, 0, 1, 11, 12, epsabs=1e-12
        )
        assert mine == pytest.approx(1.0 * oracle, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.02, 0.5, 1.3, 1.98])
    def test_riesz_d2_identical_cell_vs_polar_oracle(self, alpha):
        h = 0.5

        def inner(th):
            c, s = np.cos(th), np.sin(th)
            r = h / c
            m1, m2, m3 = 2.0 - alpha, 3.0 - alpha, 4.0 - alpha
            return h * h * r**m1 / m1 - h * (c + s) * r**m2 / m2 + c * s * r**m3 / m3

        oracle, _ = integrate.quad(
            lambda th: 8 * inner(th), 0, np.pi / 4, epsabs=1e-13, epsrel=1e-13
        )
        mine = riesz_cell_integral(alpha, (0, 0), (h, h), (0, 0), (h, h), 2)
        assert mine == pytest.approx(oracle, rel=1e-10)

    def test_riesz_d2_touching_vs_dblquad(self):
        alpha, h = 1.3, 0.5

        def w1(u):
            return max(0.0, h - abs(u + h))

        def w2(u):
            return max(0.0, h - abs(u))

        def f(u2, u1):
            return w1(u1) * w2(u2) * (u1 * u1 + u2 * u2) ** (-alpha / 2)

        oracle = 0.0
        for lo, hi in [(-2 * h, -h), (-h, 0)]:
            for lo2, hi2 in [(-h, 0), (0, h)]:
                v, _ = integrate.dblquad(f, lo, hi, lo2, hi2, epsabs=1e-11)
                oracle += v
        mine = riesz_cell_integral(alpha, (0, 0), (h, h), (h, 0), (2 * h, h), 2)
        assert mine == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.3, 1.3])
    @pytest.mark.parametrize("boxes", [
        ((0.0, 0.0), (0.5, 0.5), (0.5, 0.5), (1.0, 1.0)),
        ((0.0, 0.0), (0.5, 0.5), (1.5, 1.0), (2.0, 1.5)),
        ((0.0, 0.0), (1.0, 0.2), (0.6, 0.02), (0.8, 0.18)),
    ], ids=["diagonal-touching", "far", "flat-nested"])
    def test_riesz_d2_vs_dblquad(self, boxes, alpha):
        # in difference coordinates u = x - y, axis i weighs u_i by the overlap
        # of [lo_a, hi_a] and [lo_b + u_i, hi_b + u_i], piecewise linear in u_i
        lo_a, hi_a, lo_b, hi_b = boxes
        weights, kinks = [], []
        for a, b, c, d in zip(lo_a, hi_a, lo_b, hi_b):
            weights.append(lambda u, a=a, b=b, c=c, d=d: max(0.0, min(b, d + u) - max(a, c + u)))
            # the kinks, plus 0 where |u|^(-alpha) is singular, inside the support [a-d, b-c]
            kinks.append(sorted({k for k in (a - c, b - d, 0.0) if a - d < k < b - c}
                                | {a - d, b - c}))

        def f(u2, u1):
            return weights[0](u1) * weights[1](u2) * (u1 * u1 + u2 * u2) ** (-alpha / 2)

        oracle = 0.0
        for lo, hi in zip(kinks[0][:-1], kinks[0][1:]):
            for lo2, hi2 in zip(kinks[1][:-1], kinks[1][1:]):
                oracle += integrate.dblquad(f, lo, hi, lo2, hi2, epsabs=1e-14, epsrel=1e-12)[0]
        mine = riesz_cell_integral(alpha, lo_a, hi_a, lo_b, hi_b, 2)
        assert mine == pytest.approx(oracle, rel=1e-10)

    def test_riesz_d3_overlapping_rejected(self):
        with pytest.raises(CapabilityError):
            riesz_cell_integral(2.1, (0, 0, 0), (1, 1, 1), (0, 0, 0), (1, 1, 1), 3)

    def test_radial_spectral_rejected(self):
        with pytest.raises(DomainError):
            TimeKernel("radial_spectral")
        with pytest.raises(DomainError):
            SpaceKernel("radial_spectral")

    def test_riesz_range_validation(self):
        a = Cell(0.0, 1.0, (0.0,), (1.0,))
        spec = NoiseSpec(TimeKernel.white(), SpaceKernel.riesz(1.5))
        with pytest.raises(DomainError):
            cell_covariance(a, a, spec)  # alpha >= d = 1


class TestHomogeneousNoise:
    def test_white_white_matches_sheet_law(self):
        grid = SpaceTimeGrid(TimeGrid(0.5, 4), 1.0, 4)
        sampler = HomogeneousNoiseSampler(grid, NoiseSpec.space_time_white())
        w = sampler.sample_batch(RngStream(13), 4000)
        cell = w[:, 2, 1]
        var = cell.var(ddof=1)
        assert abs(var - grid.cell_volume) <= 3.0 * math.sqrt(2.0 / cell.size) * grid.cell_volume

    def test_empirical_covariance_matches_cell_covariance(self):
        grid = SpaceTimeGrid(TimeGrid(0.5, 8), 1.0, 8)
        spec = NoiseSpec.fractional_riesz(0.7, 0.5)
        sampler = HomogeneousNoiseSampler(grid, spec)
        w = sampler.sample_batch(RngStream(37), 20_000)
        a = w[:, 1, 2]
        b = w[:, 5, 6]
        target = cell_covariance(grid_cell(grid, 1, 2), grid_cell(grid, 5, 6), spec)
        assert sampler.covariance(1, 2, 5, 6) == pytest.approx(target, rel=1e-10)
        prod = a * b
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean() - target) <= 3.0 * se

    def test_zero_mean(self):
        grid = SpaceTimeGrid(TimeGrid(0.5, 4), 1.0, 4)
        spec = NoiseSpec.fractional_riesz(0.8, 0.3)
        w = HomogeneousNoiseSampler(grid, spec).sample_batch(RngStream(41), 5000)
        means = w.mean(axis=0)
        ses = w.std(axis=0, ddof=1) / math.sqrt(w.shape[0])
        assert np.all(np.abs(means) <= 3.0 * ses + 1e-12)

    def test_determinism(self):
        grid = SpaceTimeGrid(TimeGrid(0.5, 4), 1.0, 4)
        spec = NoiseSpec.fractional_riesz(0.7, 0.5)
        a = sample_homogeneous_noise(grid, spec, RngStream(99, 5)).values
        b = sample_homogeneous_noise(grid, spec, RngStream(99, 5)).values
        assert np.array_equal(a, b)

    def test_two_dimensional_riesz_field(self):
        # d = 2 exercises the Gaussian-mixture cell integrals and the offset table
        grid = SpaceTimeGrid(TimeGrid(0.5, 4), 1.0, 4, dim=2)
        spec = NoiseSpec.fractional_riesz(0.7, 1.3)
        sampler = HomogeneousNoiseSampler(grid, spec)
        target = cell_covariance(
            grid_cell(grid, 0, (0, 1)), grid_cell(grid, 2, (3, 2)), spec
        )
        assert sampler.covariance(0, (0, 1), 2, (3, 2)) == pytest.approx(target, rel=1e-9)
        w = sampler.sample_batch(RngStream(71), 20_000)
        prod = w[:, 0, 0, 1] * w[:, 2, 3, 2]
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean() - target) <= 3.0 * se

    def test_two_dimensional_white_variance(self):
        grid = SpaceTimeGrid(TimeGrid(0.5, 2), 1.0, 4, dim=2)
        w = HomogeneousNoiseSampler(grid, NoiseSpec.space_time_white()).sample_batch(
            RngStream(72), 8000
        )
        cell = w[:, 1, 2, 3]
        var = cell.var(ddof=1)
        assert abs(var - grid.cell_volume) <= 3.0 * math.sqrt(2.0 / cell.size) * grid.cell_volume

    def test_cap_enforced(self):
        grid = SpaceTimeGrid(TimeGrid(1.0, 64), 1.0, 64)
        with pytest.raises(InputError):
            HomogeneousNoiseSampler(grid, NoiseSpec.space_time_white())


def _old_time_factor(tgrid, tk):
    """The direct n x n formula the Toeplitz builder replaced."""
    n, dt = tgrid.n_steps, tgrid.dt
    if tk.kind == "white":
        return np.eye(n) * dt
    h2 = 2.0 * tk.hurst
    m = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
    return 0.5 * dt**h2 * ((m + 1) ** h2 + np.abs(m - 1) ** h2 - 2 * m**h2)


def _old_riesz_row_1d(grid, alpha):
    """The d=1 Riesz row as second differences of |m dx|^(2-alpha) / ((1-alpha)(2-alpha))."""
    m = np.arange(-grid.n_cells, grid.n_cells + 1).astype(float)
    with np.errstate(divide="ignore"):
        f2 = np.abs(m * grid.dx) ** (2.0 - alpha) / ((1.0 - alpha) * (2.0 - alpha))
    return (f2[2:] + f2[:-2] - 2.0 * f2[1:-1])[grid.n_cells - 1 :]


def _old_pair_loop(grid, alpha):
    """The d >= 2 Riesz factor assembled over every cell pair, cached by sorted gaps."""
    n_sp = grid.n_space_cells
    edges = grid.space_edges()
    cells = list(np.ndindex(*(grid.n_cells,) * grid.dim))
    S = np.empty((n_sp, n_sp))
    cache = {}
    for a_i, ia in enumerate(cells):
        for b_i in range(a_i, n_sp):
            ib = cells[b_i]
            key = tuple(sorted(abs(ia[k] - ib[k]) for k in range(grid.dim)))
            if key not in cache:
                cache[key] = riesz_cell_integral(
                    alpha,
                    tuple(edges[i] for i in ia),
                    tuple(edges[i + 1] for i in ia),
                    tuple(edges[i] for i in ib),
                    tuple(edges[i + 1] for i in ib),
                    grid.dim,
                )
            S[a_i, b_i] = S[b_i, a_i] = cache[key]
    return S


class TestFactorMatrices:
    @pytest.mark.parametrize("t_max, n", [(1.0, 1), (0.5, 7), (2.0, 33), (0.25, 128)])
    @pytest.mark.parametrize("tk", [TimeKernel.white(), TimeKernel.fractional(0.7),
                                    TimeKernel.fractional(0.95)], ids=["white", "H0.7", "H0.95"])
    def test_time_factor_bit_identical_to_direct_formula(self, t_max, n, tk):
        tgrid = TimeGrid(t_max, n)
        new = time_factor_matrix(tgrid, tk)
        assert new.tobytes() == _old_time_factor(tgrid, tk).tobytes()

    @pytest.mark.parametrize("n, alpha", [(16, 0.5), (6, 1.3), (5, 0.3)])
    def test_d2_riesz_factor_bit_identical_to_pair_loop(self, n, alpha):
        grid = SpaceTimeGrid(TimeGrid(0.5, 2), 1.0, n, dim=2)
        new = space_factor_matrix(grid, SpaceKernel.riesz(alpha))
        assert new.tobytes() == _old_pair_loop(grid, alpha).tobytes()

    def test_d1_riesz_row_vs_old_row_and_mpmath(self):
        # both rows lose digits to the same second-difference cancellation;
        # errors are relative to the diagonal, the largest entry
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        worst_old = worst_new = 0.0
        for n in (33, 64):
            for half_width in (1.0, 4.0, 8.0):
                for alpha in (0.2, 0.5, 0.9):
                    grid = SpaceTimeGrid(TimeGrid(0.5, 2), half_width, n)
                    a, dx = mpmath.mpf(alpha), mpmath.mpf(grid.dx)
                    p, c = 2 - a, 1 / ((1 - a) * (2 - a))
                    exact = np.array([
                        float(c * dx**p * ((m + 1) ** p + abs(m - 1) ** p - 2 * mpmath.mpf(m) ** p))
                        for m in range(n)
                    ])
                    new = space_factor_matrix(grid, SpaceKernel.riesz(alpha))
                    old = _old_riesz_row_1d(grid, alpha)
                    assert np.array_equal(new, new[0][np.abs(np.subtract.outer(range(n), range(n)))])
                    assert np.max(np.abs(new[0] - old)) <= 1e-12 * old[0]
                    worst_old = max(worst_old, np.max(np.abs(old - exact)) / exact[0])
                    worst_new = max(worst_new, np.max(np.abs(new[0] - exact)) / exact[0])
        assert worst_new <= worst_old

    def test_disjoint_white_cells_exactly_uncorrelated(self):
        grid = SpaceTimeGrid(TimeGrid(0.3, 3), 0.7, 5)
        spec = NoiseSpec.space_time_white()
        assert cell_covariance(grid_cell(grid, 0, 1), grid_cell(grid, 2, 1), spec) == 0.0
        assert cell_covariance(grid_cell(grid, 1, 0), grid_cell(grid, 1, 3), spec) == 0.0


class TestCholeskyJitter:
    def test_clean_matrix_needs_no_jitter(self):
        _, jitter = cholesky_with_jitter(np.eye(4))
        assert jitter == 0.0

    def test_semidefinite_rescued_by_jitter(self):
        a = np.ones((3, 3))  # rank one, PSD but singular
        L, jitter = cholesky_with_jitter(a)
        assert jitter <= 1e-10 * 3.0 / 3.0 * np.trace(a)
        assert np.allclose(L @ L.T, a, atol=1e-9)

    def test_indefinite_matrix_fails(self):
        from spde_lab.errors import NumericalError

        bad = np.array([[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(NumericalError):
            cholesky_with_jitter(bad)
