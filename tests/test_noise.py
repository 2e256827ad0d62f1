import math
import sys

import numpy as np
import pytest
from scipy import integrate

from spde_lab import noise, rng
from spde_lab.errors import CapabilityError, DomainError, InputError, NumericalError
from spde_lab.grids import SpaceTimeGrid, TimeGrid
from spde_lab.noise import (
    Cell,
    HomogeneousNoiseSampler,
    NoiseSpec,
    SpaceKernel,
    TimeKernel,
    cell_covariance,
    cholesky_with_jitter,
    fbm_covariance_matrix,
    fractional_time_cell_integral,
    riesz_cell_integral,
    sample_bm_paths,
    sample_fbm_paths,
    sample_homogeneous_noise,
    sample_white_noise_sheet,
    space_factor_matrix,
    time_factor_matrix,
)
from spde_lab.rng import RngStream

from conftest import traced_peak


def grid_cell(grid: SpaceTimeGrid, k: int, ix) -> Cell:
    """Cell (k, ix) of a grid; ix is an int (d=1) or a tuple of ints."""
    ix = (ix,) if isinstance(ix, int) else ix
    edges = grid.space_edges()
    return Cell(k * grid.time.dt, (k + 1) * grid.time.dt,
                tuple(edges[i] for i in ix), tuple(edges[i + 1] for i in ix))


def fbm_covariance(hurst: float, t: float, s: float) -> float:
    """R_H(t, s) from the covariance matrix of the two times."""
    return fbm_covariance_matrix(hurst, [t, s])[0, 1]


class TestBrownianMotion:
    def test_starts_at_zero(self):
        path = sample_bm_paths(TimeGrid(1.0, 1), RngStream(123))[0]
        assert path[0] == 0.0

    def test_increment_variance_chi2_band(self):
        grid = TimeGrid(1.0, 1000)
        path = sample_bm_paths(grid, RngStream(42))[0]
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
            fbm_covariance_matrix(1.0, [1.0])

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

    def test_no_node_cap(self):
        paths = sample_fbm_paths(0.7, TimeGrid(1.0, 65_536), RngStream(0), 4)
        assert paths.shape == (4, 65_537) and np.all(np.isfinite(paths))

    @pytest.mark.parametrize("hurst", [0.25, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 257])
    def test_embedding_covariance_exact(self, n, hurst):
        # unit normals pushed through the sampler's linear map: path pair j
        # takes the j-th unit vector of the 4n normals a pair draws, so the
        # real and imaginary paths' Gram matrices are their covariances
        feed = _NormalFeed(np.eye(4 * n))
        paths = sample_fbm_paths(hurst, TimeGrid(1.0, n), feed, 8 * n)
        real, imag = paths[0::2], paths[1::2]
        exact = fbm_covariance_matrix(hurst, TimeGrid(1.0, n).nodes())
        tol = 1e-12 * exact.diagonal().max()
        assert np.max(np.abs(real.T @ real - exact)) <= tol
        assert np.max(np.abs(imag.T @ imag - exact)) <= tol
        assert np.max(np.abs(real.T @ imag)) <= tol

    @pytest.mark.parametrize("row, ok", [([1.0, 0.5, -1e-15], True), ([1.0, 0.9, -0.5], False)],
                             ids=["clipped", "indefinite"])
    def test_negative_embedding_eigenvalue(self, monkeypatch, row, ok):
        # n = 2 embeds the row in [c0, c1, c2, c1], with eigenvalue c0 - 2 c1 + c2
        # -1e-15 (clipped to 0) or -1.3 (an indefinite embedding)
        monkeypatch.setattr(noise, "_power_law_row", lambda law, h, n: np.array(row))
        if ok:
            assert np.fft.hfft(row).min() < 0.0
            assert np.all(np.isfinite(sample_fbm_paths(0.7, TimeGrid(1.0, 2), RngStream(0), 3)))
        else:
            with pytest.raises(NumericalError):
                sample_fbm_paths(0.7, TimeGrid(1.0, 2), RngStream(0), 3)

    def test_paths_independent_of_chunks_and_count(self, monkeypatch):
        n = 64
        grid = TimeGrid(1.0, n)
        paths = sample_fbm_paths(0.7, grid, RngStream(8), 1000)
        for k in (1, 2, 7, 64):
            assert np.array_equal(sample_fbm_paths(0.7, grid, RngStream(8), k), paths[:k])
        monkeypatch.setattr(rng, "CHUNK_BYTES", 2 * 32 * n)  # two pairs of paths
        assert np.array_equal(sample_fbm_paths(0.7, grid, RngStream(8), 1000), paths)

    def test_memory_below_one_covariance(self):
        n, n_paths = 2048, 64
        peak = traced_peak(lambda: sample_fbm_paths(0.7, TimeGrid(1.0, n), RngStream(2), n_paths))
        assert peak < 8 * n_paths * (n + 1) + 8 * n * n


class _NormalFeed(np.random.Generator):
    """A generator whose standard normals are the given values, in order."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self._values, self._used = values.ravel(), 0

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        count = math.prod(size)
        chunk = self._values[self._used : self._used + count]
        self._used += count
        return chunk.reshape(size).astype(dtype, copy=True)


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

    @pytest.mark.parametrize("kernels", [(TimeKernel.fractional(0.7), SpaceKernel.white()),
                                         (TimeKernel.white(), SpaceKernel.riesz(0.5))],
                             ids=["fractional-time", "riesz-space"])
    def test_overflowing_cell_integral_raises(self, kernels):
        # 1e300 ** 1.4 and ** 1.5 raise OverflowError in Python floats
        cell = Cell(0.0, 1e300, (0.0,), (1e300,))
        with pytest.raises(NumericalError, match="overflows"):
            cell_covariance(cell, cell, NoiseSpec(*kernels))

    def test_corner_sum_overflowing_to_inf_raises(self):
        # with p = 1 no power raises, but the corner gaps overflow to inf
        big = sys.float_info.max
        with pytest.raises(NumericalError, match="overflows"):
            noise._corner_sum((0.5, 1.0), -big, big, -big, big)
        assert noise._corner_sum((0.5, 1.0), 0.0, 1e300, 0.0, 1e300) == 1e300

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
        assert sampler.time_cov[1, 5] * sampler.space_cov[2, 6] == pytest.approx(target, rel=1e-10)
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
        # space cells (0, 1) and (3, 2) are rows 1 and 14 of the 4 x 4 grid in row-major order
        assert sampler.time_cov[0, 2] * sampler.space_cov[1, 14] == pytest.approx(target, rel=1e-9)
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

    @pytest.mark.parametrize("n", [1, 7, 500])
    @pytest.mark.parametrize("nt", [1, 8, 32])
    @pytest.mark.parametrize("dim,n_cells", [(1, 1), (1, 64), (2, 1), (2, 8)])
    def test_batch_matches_einsum_correlation(self, dim, n_cells, nt, n):
        # oracle: the einsum the two products replaced, on the same draws; the
        # products round differently, so the match is to the rounding level
        grid = SpaceTimeGrid(TimeGrid(0.5, nt), 1.0, n_cells, dim=dim)
        sampler = HomogeneousNoiseSampler(grid, NoiseSpec.fractional_riesz(0.7, 0.5))
        w = sampler.sample_batch(RngStream(43, n), n)
        z = RngStream(43, n).generator().standard_normal((n, nt, grid.n_space_cells))
        want = np.einsum("km,rmn,pn->rkp", sampler._lt, z, sampler._ls, optimize=True)
        assert w.shape == (n,) + grid.cell_shape() and w.flags.c_contiguous
        got = w.reshape(want.shape)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_batch_holds_two_batch_arrays(self):
        # the draws and the space-correlated copy; the time factor is written
        # back into the draws (the einsum held three such arrays)
        grid = SpaceTimeGrid(TimeGrid(0.2, 32), 2.0, 64)
        sampler = HomogeneousNoiseSampler(grid, NoiseSpec.fractional_riesz(0.7, 0.5))
        batch = 8 * 500 * 32 * 64
        sampler.sample_batch(RngStream(44), 1)  # numpy's one-time allocations
        peak = traced_peak(lambda: sampler.sample_batch(RngStream(44), 500))
        assert peak <= 2 * batch + 2**16


def _direct_time_factor(tgrid, tk):
    """The time factor entry by entry on the n x n lag matrix: dt on the
    diagonal for white noise, the cancellation-free second difference for
    fractional noise."""
    n, dt = tgrid.n_steps, tgrid.dt
    if tk.kind == "white":
        return np.eye(n) * dt
    p = 2.0 * tk.hurst
    m = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
    far = np.maximum(m, 2.0)
    d = p * np.arctanh(1.0 / far)
    far = 2.0 * far**p * (np.expm1(0.5 * p * np.log1p(-1.0 / far**2)) * np.cosh(d)
                          + 2.0 * np.sinh(0.5 * d) ** 2)
    return 0.5 * dt**p * np.where(m == 0, 2.0, np.where(m == 1, 2.0**p - 2.0, far))


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
        assert new.tobytes() == _direct_time_factor(tgrid, tk).tobytes()

    @pytest.mark.parametrize("hurst", [0.55, 0.7, 0.95])
    def test_fractional_time_factor_vs_mpmath(self, hurst):
        # per entry to 2e-14 relative; the plain second difference
        # (m+1)^p + |m-1|^p - 2 m^p cancels and misses this bound
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        tgrid = TimeGrid(2.0, 512)
        p, dt = mpmath.mpf(2 * hurst), mpmath.mpf(tgrid.dt)
        exact = np.array([
            float(dt**p / 2 * ((m + 1) ** p + abs(m - 1) ** p - 2 * mpmath.mpf(m) ** p))
            for m in range(tgrid.n_steps)
        ])
        new = time_factor_matrix(tgrid, TimeKernel.fractional(hurst))
        assert np.max(np.abs(new[0] / exact - 1.0)) <= 2e-14
        m, h2 = np.arange(tgrid.n_steps, dtype=float), 2 * hurst
        old = 0.5 * tgrid.dt**h2 * ((m + 1) ** h2 + np.abs(m - 1) ** h2 - 2 * m**h2)
        assert np.max(np.abs(old / exact - 1.0)) > 2e-14

    @pytest.mark.parametrize("n, alpha", [(16, 0.5), (6, 1.3), (5, 0.3)])
    def test_d2_riesz_factor_bit_identical_to_pair_loop(self, n, alpha):
        grid = SpaceTimeGrid(TimeGrid(0.5, 2), 1.0, n, dim=2)
        new = space_factor_matrix(grid, SpaceKernel.riesz(alpha))
        assert new.tobytes() == _old_pair_loop(grid, alpha).tobytes()

    def test_d1_riesz_row_vs_old_row_and_mpmath(self):
        # the old row loses digits to the second-difference cancellation the
        # new one avoids; errors are relative to the diagonal, the largest entry
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

    @pytest.mark.parametrize("law, h", [(noise._power_law(noise.FRACTIONAL, 0.7), 1e300),
                                        (noise._power_law(noise.RIESZ, 0.99), 1e304)],
                             ids=["power-overflows", "scale-overflows"])
    def test_overflowing_row_raises(self, law, h):
        # h ** 1.4 raises OverflowError; 1e304 ** 1.01 is finite, but not
        # times the Riesz constant 1 / (0.01 * 1.01)
        with pytest.raises(NumericalError, match="overflows"):
            noise._power_law_row(law, h, 4)
        with pytest.raises(NumericalError, match="overflows"):
            time_factor_matrix(TimeGrid(4e300, 4), TimeKernel.fractional(0.7))

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
