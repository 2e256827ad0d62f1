import math
import tracemalloc

import numpy as np
import pytest

from spde_lab import rng, solvers
from spde_lab.errors import CapabilityError, DomainError, InputError, NumericalError
from spde_lab.field import Field
from spde_lab.grids import SpaceTimeGrid, TimeGrid
from spde_lab.kernels import heat_kernel
from spde_lab.noise import (
    HomogeneousNoiseSampler,
    NoiseSpec,
    sample_bm_paths,
    sample_white_noise_sheet,
)
from spde_lab.rng import RngStream, map_replica_blocks
from spde_lab.solvers import (
    LipschitzFn,
    WickPamSampler,
    chaos_geometric,
    chaos_geometric_partials,
    geometric_bm,
    geometric_fbm,
    ito_sum,
    linear_heat_node_samples,
    linear_heat_point_samples,
    linear_heat_point_variance,
    linear_heat_point_weights,
    pam_chaos_series,
    pam_chaos_term_variance,
    pam_log_second_moment,
    pam_second_moment,
    pam_second_moment_closed_form,
    pam_truncation_order,
    solve_linear_heat_1d,
    solve_nonlinear_heat_picard,
    solve_pam_euler,
    solve_sde_picard,
)


class TestItoSum:
    def test_constant_integrand_telescopes(self):
        grid = TimeGrid(1.0, 64)
        path = sample_bm_paths(grid, RngStream(1))[0]
        db = np.diff(path)
        assert ito_sum(np.ones(64), db) == pytest.approx(path[-1], rel=1e-12)
        assert ito_sum(np.zeros(64), db) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            ito_sum(np.ones(5), np.ones(6))

    def test_isometry(self):
        # E |int_0^1 B dB|^2 = int_0^1 s ds = 0.5, within 3 stderr (+ O(dt) bias)
        grid = TimeGrid(1.0, 512)
        paths = sample_bm_paths(grid, RngStream(11), 10_000)
        vals = ito_sum(paths[:, :-1], np.diff(paths, axis=1))
        sq = vals**2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - 0.5) <= 3.0 * se + 2 * grid.dt

    def test_ito_formula_residual_decay(self):
        # |B_T^2 - 2 int B dB - T| has RMS ~ sqrt(2 T dt); halving dt
        # shrinks it by >= 1.3
        rms = []
        for k, n in enumerate((128, 256, 512)):
            grid = TimeGrid(1.0, n)
            paths = sample_bm_paths(grid, RngStream(21, k), 4000)
            resid = (
                paths[:, -1] ** 2
                - 2.0 * ito_sum(paths[:, :-1], np.diff(paths, axis=1))
                - 1.0
            )
            rms.append(np.sqrt((resid**2).mean()))
        assert rms[0] / rms[1] >= 1.3
        assert rms[1] / rms[2] >= 1.3


def block_order_mean(rows: np.ndarray, block_size: int) -> np.ndarray:
    """Mean over the replica axis in the Picard reduction order.

    Rows are added one by one within each block of ``block_size`` replicas,
    then the block sums are added in block order.
    """
    total = np.zeros(rows.shape[1:])
    for start in range(0, rows.shape[0], block_size):
        part = np.zeros(rows.shape[1:])
        for row in rows[start : start + block_size]:
            part += row
        total += part
    return total / rows.shape[0]


def old_sde_picard(sigma, grid, rng, n_iter, replicas, initial, block_size, threads):
    """The SDE Picard scheme as it was before the shared loop, reduced in
    block order; the oracle."""

    def block(gen, count):
        db = gen.standard_normal((count, grid.n_steps)) * math.sqrt(grid.dt)
        x_prev = np.zeros((count, grid.n_steps + 1))
        sq_sums = np.empty((count, n_iter, grid.n_steps + 1))
        for m in range(n_iter):
            x_next = np.full_like(x_prev, initial)
            x_next[:, 1:] += np.cumsum(np.asarray(sigma(x_prev[:, :-1])) * db, axis=1)
            sq_sums[:, m] = (x_next - x_prev) ** 2
            x_prev = x_next
        return np.concatenate([sq_sums, x_prev[:, None, :]], axis=1)

    out = map_replica_blocks(replicas, block, rng, block_size, threads)
    mean = block_order_mean(out[:, :n_iter, :], block_size)
    return mean.max(axis=1), out[0, n_iter, :]


def old_heat_picard(sigma, grid, rng, n_iter, replicas, initial, block_size, threads):
    """The heat Picard scheme as it was before the shared loop, reduced in
    block order; the oracle."""
    kernels = solvers._LinearHeatKernels(grid)
    nt, nx = grid.time.n_steps, grid.n_cells
    nodes = np.arange(nt + 1)
    scale = math.sqrt(grid.cell_volume)

    def block(gen, count):
        w = gen.standard_normal((count, nt, nx))
        w *= scale
        out = np.empty((count, n_iter + 1, nt + 1, nx))
        u_prev = np.zeros((count, nt + 1, nx))
        for m in range(n_iter):
            integrand = np.asarray(sigma(u_prev[:, :-1, :])) * w
            u_next = kernels.convolve(integrand, nodes)
            u_next += initial
            np.subtract(u_next, u_prev, out=out[:, m])
            np.square(out[:, m], out=out[:, m])
            u_prev = u_next
        out[:, n_iter] = u_prev
        return out

    out = map_replica_blocks(replicas, block, rng, block_size, threads)
    mean = block_order_mean(out[:, :n_iter], block_size)
    return mean.reshape(n_iter, -1).max(axis=1), out[0, n_iter]


ORACLE_SIGMAS = [
    pytest.param(LipschitzFn.identity(), id="identity"),
    pytest.param(LipschitzFn.bounded_smooth("sin"), id="sin"),
    pytest.param(LipschitzFn.affine(0.5, 0.3), id="affine"),
]


# two threads hold a few blocks' chunks and sums: 7.6 MB at each case below;
# per-replica squared differences peaked at 14.5 MB (2000 replicas, 4
# iterations) and 20.3 MB (8 iterations)
PICARD_PEAK_BOUND = 10 * 2**20


class TestPicardOracles:
    # 10 replicas in blocks of 3: the last block is short
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("sigma", ORACLE_SIGMAS)
    def test_sde_bit_identical_to_old_driver(self, sigma, threads):
        args = (sigma, TimeGrid(0.5, 32), RngStream(41), 5, 10, 1.0, 3, threads)
        tr = solve_sde_picard(*args)
        diffs, final = old_sde_picard(*args)
        assert tr.sup_sq_diffs.tobytes() == diffs.tobytes()
        assert tr.final_sample.tobytes() == final.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("sigma", ORACLE_SIGMAS)
    def test_heat_bit_identical_to_old_driver(self, sigma, threads):
        grid = SpaceTimeGrid(TimeGrid(0.25, 16), 2.0, 32)
        args = (sigma, grid, RngStream(42), 4, 10, 1.0, 3, threads)
        tr = solve_nonlinear_heat_picard(*args)
        diffs, final = old_heat_picard(*args)
        assert tr.sup_sq_diffs.tobytes() == diffs.tobytes()
        assert tr.final_sample.tobytes() == final.tobytes()

    def test_holds_only_blocks_in_flight(self):
        grid = SpaceTimeGrid(TimeGrid(0.25, 16), 2.0, 32)
        n_iter, replicas = 4, 2000
        full_bytes = replicas * (n_iter + 1) * 17 * 32 * 8
        tracemalloc.start()
        try:
            solve_nonlinear_heat_picard(
                LipschitzFn.identity(), grid, RngStream(43), n_iter, replicas,
                initial=1.0, block_size=100,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * full_bytes

    @pytest.mark.parametrize("replicas, n_iter", [(2000, 4), (4000, 4), (2000, 8)])
    def test_peak_does_not_grow_with_replicas_or_iterations(self, replicas, n_iter):
        # blocks return (n_iter, 17, 32) sums, so one bound holds whatever
        # the replica count and the number of iterations
        grid = SpaceTimeGrid(TimeGrid(0.25, 16), 2.0, 32)
        tracemalloc.start()
        try:
            solve_nonlinear_heat_picard(
                LipschitzFn.identity(), grid, RngStream(43), n_iter, replicas,
                initial=1.0, block_size=100, threads=2,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < PICARD_PEAK_BOUND


class TestSdePicard:
    def test_zero_sigma(self):
        tr = solve_sde_picard(LipschitzFn.affine(0, 0), TimeGrid(1.0, 32), RngStream(1), 4, 16)
        assert np.all(tr.sup_sq_diffs == 0.0)
        assert np.all(tr.final_sample == 0.0)

    def test_constant_sigma_fixed_point(self):
        # sigma = 1: X_1 = B and the iteration is stationary afterwards
        tr = solve_sde_picard(LipschitzFn.affine(0, 1), TimeGrid(1.0, 32), RngStream(2), 4, 64)
        assert tr.sup_sq_diffs[0] > 0
        assert np.all(tr.sup_sq_diffs[1:] == 0.0)

    def test_multiplicative_gronwall_decay(self):
        # X(0)=1, sigma(x)=x: successive differences follow t^(n-1)/(n-1)!
        # (the trace takes a max of noisy replica means, so within factor 2)
        tr = solve_sde_picard(
            LipschitzFn.identity(), TimeGrid(0.5, 256), RngStream(3), 8, 1000, initial=1.0
        )
        assert tr.sup_sq_diffs[7] / tr.sup_sq_diffs[3] < 1e-2
        theory = np.array([0.5**n / math.factorial(n) for n in range(8)])
        ratio = tr.sup_sq_diffs / theory
        assert np.all(ratio < 2.0) and np.all(ratio > 0.5)

    def test_uniqueness_diagnostic_common_iterate(self):
        # identical seed, n and n+3 iterations: the n-th iterates coincide
        grid = TimeGrid(0.5, 64)
        a = solve_sde_picard(
            LipschitzFn.identity(), grid, RngStream(5), 5, 50, initial=1.0
        )
        b = solve_sde_picard(
            LipschitzFn.identity(), grid, RngStream(5), 8, 50, initial=1.0
        )
        assert np.allclose(a.sup_sq_diffs, b.sup_sq_diffs[:5], rtol=0, atol=0)

    def test_lipschitz_spot_check(self):
        assert LipschitzFn.identity().check_constant(RngStream(0))
        assert LipschitzFn.bounded_smooth("tanh").check_constant(RngStream(1))
        bad = LipschitzFn(lambda x: x * x, 1.0, "quadratic")
        assert not bad.check_constant(RngStream(2))

    def test_trace_serialization_and_invariants(self):
        tr = solve_sde_picard(
            LipschitzFn.identity(), TimeGrid(0.5, 16), RngStream(4), 3, 8, initial=1.0
        )
        assert len(tr.sup_sq_diffs) == 3
        from spde_lab.solvers import PicardTrace

        with pytest.raises(InputError):
            PicardTrace(np.array([1.0, -0.5]), 2, 4)
        with pytest.raises(InputError):
            PicardTrace(np.array([np.inf]), 1, 4)

    def test_overflowing_sigma_raises_numerical_error(self):
        # u_1 = 1e200, so the first squared difference overflows
        with pytest.raises(NumericalError, match="not finite"):
            solve_sde_picard(
                LipschitzFn.affine(1e200, 0), TimeGrid(0.5, 16), RngStream(4), 3, 8,
                initial=1e200,
            )


class TestGeometricSolutions:
    def test_zero_path(self):
        times = np.linspace(0, 2, 9)
        assert np.allclose(geometric_bm(times, np.zeros(9)), np.exp(-times / 2))

    def test_initial_value_one(self):
        assert geometric_bm(np.array([0.0]), np.array([0.0]))[0] == 1.0
        assert geometric_fbm(np.array([0.0]), np.array([0.0]), 0.75)[0] == 1.0

    def test_second_moment(self):
        grid = TimeGrid(1.0, 1)
        paths = sample_bm_paths(grid, RngStream(7), 100_000)
        x = geometric_bm(grid.nodes(), paths)[:, -1]
        sq = x**2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - math.e) <= 3.0 * se


class TestChaosGeometric:
    def test_bm_closed_form(self):
        for t in (0.25, 0.5, 1.0, 2.0):
            for b in np.linspace(-3 * math.sqrt(t), 3 * math.sqrt(t), 7):
                assert abs(chaos_geometric(t, b, 60, "bm") - math.exp(b - t / 2)) < 1e-8

    def test_fbm_closed_form(self):
        for h in (0.6, 0.75, 0.9):
            for t in (0.25, 1.0, 2.0):
                for b in (-1.5, 0.0, 2.0):
                    target = math.exp(b - t ** (2 * h) / 2)
                    assert abs(chaos_geometric(t, b, 60, "fbm", h) - target) < 1e-8

    def test_small_time_limit(self):
        assert chaos_geometric(1e-12, 0.0, 30, "bm") == pytest.approx(1.0, abs=1e-6)

    def test_partials_monotone_order(self):
        partials = chaos_geometric_partials(1.0, 1.0, 40, "bm")
        assert partials[0] == 1.0
        assert partials.shape == (41,)

    def test_validation(self):
        with pytest.raises(DomainError):
            chaos_geometric(0.0, 0.0, 10)
        with pytest.raises(InputError):
            chaos_geometric(1.0, 0.0, 500)
        with pytest.raises(DomainError):
            chaos_geometric(1.0, 0.0, 10, "fbm", 0.4)
        with pytest.raises(CapabilityError):
            chaos_geometric(1.0, 0.0, 10, "brownian_bridge")


def direct_convolution(grid: SpaceTimeGrid, phi: np.ndarray) -> np.ndarray:
    """O(nt^2 nx^2) double sum u[k] = sum_(j<k) G((k-j-1/2) dt, x - y) phi[j, y].

    The reference the FFT convolution core must match: displacements are the
    nearest periodic images, kernels sit at cell-center time lags.
    """
    nt, nx, dt = grid.time.n_steps, grid.n_cells, grid.time.dt
    disp = (((np.arange(nx) + nx // 2) % nx) - nx // 2) * grid.dx
    idx = (np.arange(nx)[:, None] - np.arange(nx)[None, :]) % nx
    u = np.zeros((nt + 1, nx))
    for k in range(1, nt + 1):
        for j in range(k):
            u[k] += heat_kernel((k - j - 0.5) * dt, disp, 1)[idx] @ phi[j]
    return u


def replica_sheets(grid: SpaceTimeGrid, seed: int, replicas: int, block_size: int):
    """The scaled white-noise sheets the block samplers draw, in replica order."""
    nt, nx = grid.time.n_steps, grid.n_cells
    sheets = [
        RngStream(seed).substream(b).generator().standard_normal(
            (min(block_size, replicas - start), nt, nx)
        )
        for b, start in enumerate(range(0, replicas, block_size))
    ]
    return np.concatenate(sheets) * math.sqrt(grid.cell_volume)


def old_node_samples(grid, nodes, replicas, rng, block_size, threads):
    """The node sampler as it was before per-chunk draws, one draw per block; the oracle."""
    kernels = solvers._LinearHeatKernels(grid)
    scale = math.sqrt(grid.cell_volume)

    def block(gen, count):
        w = gen.standard_normal((count, grid.time.n_steps, grid.n_cells))
        w *= scale
        return kernels.convolve(w, nodes)

    return map_replica_blocks(replicas, block, rng, block_size, threads)


def whole_spectrum_convolve(kernels, phi, rows):
    """_LinearHeatKernels.convolve as it was, one whole (rows, nf, 2 nt) spectrum; the oracle."""
    rows = np.asarray(rows, dtype=int)
    count, nt, nx = phi.shape
    nf, n_fft = kernels.spectrum.shape
    out = np.empty((count, rows.size, nx))
    for lo, hi in rng.row_chunks(count, 16 * nf * n_fft):
        spec = np.zeros((hi - lo, nf, n_fft), dtype=complex)
        spec[:, :, :nt] = np.fft.rfft(phi[lo:hi], axis=2).transpose(0, 2, 1)
        np.fft.fft(spec, axis=2, out=spec)
        spec *= kernels.spectrum
        np.fft.ifft(spec, axis=2, out=spec)
        out[lo:hi] = np.fft.irfft(spec[:, :, rows].transpose(0, 2, 1), n=nx, axis=2)
    out[:, rows == 0] = 0.0
    return out


CORE_GRIDS = [
    pytest.param(SpaceTimeGrid(TimeGrid(0.25, 16), 4.0, 24), id="nx24"),
    pytest.param(SpaceTimeGrid(TimeGrid(0.25, 16), 4.0, 40), id="nx40"),
    pytest.param(SpaceTimeGrid(TimeGrid(0.3, 15), 3.0, 33), id="odd-nt15"),
]


class TestLinearHeat:
    def _grid(self):
        return SpaceTimeGrid(TimeGrid(0.25, 16), 4.0, 24)

    def test_zero_time_is_zero(self):
        grid = self._grid()
        u = solve_linear_heat_1d(grid, sample_white_noise_sheet(grid, RngStream(1)))
        assert np.all(u.values[0] == 0.0)

    @pytest.mark.parametrize("grid", CORE_GRIDS)
    def test_fft_core_matches_direct_oracle(self, grid):
        w = sample_white_noise_sheet(grid, RngStream(5))
        u = solve_linear_heat_1d(grid, w).values
        np.testing.assert_allclose(u, direct_convolution(grid, w.values), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("grid", CORE_GRIDS)
    def test_node_samples_match_oracle(self, grid):
        nt = grid.time.n_steps
        nodes = np.array([0, 1, nt // 2, nt])
        x = linear_heat_node_samples(grid, nodes, 3, RngStream(12), block_size=2)
        assert x.shape == (3, 4, grid.n_cells)
        assert np.all(x[:, 0] == 0.0)
        for r, w in enumerate(replica_sheets(grid, 12, 3, 2)):
            u = direct_convolution(grid, w)
            np.testing.assert_allclose(x[r], u[nodes], rtol=0, atol=1e-13)

    def test_node_samples_thread_invariant(self):
        grid = SpaceTimeGrid(TimeGrid(0.25, 32), 4.0, 32)
        a, b = (
            linear_heat_node_samples(grid, np.arange(8, 33), 10, RngStream(14),
                                     block_size=3, threads=t)
            for t in (1, 2)
        )
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_node_samples_bit_identical_to_whole_block_draws(self, threads):
        # 512 kB sheets make two-row chunks; 11 replicas in blocks of 5 run the
        # lone-row merge ([0, 2), [2, 5)) and a one-replica last block
        grid = SpaceTimeGrid(TimeGrid(0.25, 256), 4.0, 256)
        nodes = np.arange(100, 229, 4)
        x = linear_heat_node_samples(grid, nodes, 11, RngStream(15), 5, threads)
        ref = old_node_samples(grid, nodes, 11, RngStream(15), 5, threads)
        assert x.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("grid, count, n_freq_chunks", [
        # two-replica chunks of a 4 MB spectrum split into four frequency chunks,
        # the last with a lone frequency merged in (257 = 3 * 64 + 65)
        pytest.param(SpaceTimeGrid(TimeGrid(0.25, 256), 4.0, 512), 5, 4, id="hoelder-like"),
        # Picard's chunks of 3 replicas: the whole spectrum is one chunk
        pytest.param(SpaceTimeGrid(TimeGrid(0.5, 64), 6.0, 128), 3, 1, id="picard-grid"),
    ])
    def test_convolve_bit_identical_to_whole_spectrum(self, grid, count, n_freq_chunks):
        kernels = solvers._LinearHeatKernels(grid)
        nf, n_fft = kernels.spectrum.shape
        lo, hi = rng.row_chunks(count, 16 * nf * n_fft)[0]
        assert len(rng.row_chunks(nf, 16 * (hi - lo) * n_fft)) == n_freq_chunks
        nt = grid.time.n_steps
        phi = RngStream(17).generator().standard_normal((count, nt, grid.n_cells))
        for rows in (np.arange(nt + 1), np.array([0, 3, nt // 2, nt])):
            u = kernels.convolve(phi, rows)
            assert u.tobytes() == whole_spectrum_convolve(kernels, phi, rows).tobytes()

    def test_node_samples_peak_below_half_a_block(self):
        # one block of 64 sheets is 32 MB of noise, which a whole-block draw holds at once
        grid = SpaceTimeGrid(TimeGrid(0.25, 256), 4.0, 256)
        block_noise = 64 * 256 * 256 * 8
        tracemalloc.start()
        try:
            linear_heat_node_samples(grid, np.arange(192, 225), 64, RngStream(16), 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * block_noise

    def test_point_weights_match_solver(self):
        grid = self._grid()
        w = sample_white_noise_sheet(grid, RngStream(5))
        u = solve_linear_heat_1d(grid, w).values
        a = linear_heat_point_weights(grid, 16, 12)
        assert np.sum(a * w.values) == pytest.approx(u[16, 12], rel=1e-12)

    @pytest.mark.parametrize("k, ix", [(0, 3), (1, 0), (16, 12), (9, 23)])
    def test_point_weights_bit_identical_to_lag_loop(self, k, ix):
        grid = self._grid()
        nt, nx, dt = grid.time.n_steps, grid.n_cells, grid.time.dt
        disp = (((np.arange(nx) + nx // 2) % nx) - nx // 2) * grid.dx
        oracle = np.zeros((nt, nx))
        for j in range(0, k):
            oracle[j] = heat_kernel((k - j - 0.5) * dt, np.roll(disp, ix), 1)
        assert linear_heat_point_weights(grid, k, ix).tobytes() == oracle.tobytes()

        def block(gen, count):
            z = gen.standard_normal((count,) + oracle.shape)
            return math.sqrt(grid.cell_volume) * np.tensordot(z, oracle, axes=((1, 2), (0, 1)))

        x = linear_heat_point_samples(grid, k, ix, 10, RngStream(44), block_size=3, threads=2)
        assert x.tobytes() == map_replica_blocks(10, block, RngStream(44), 3).tobytes()

    def test_point_samples_match_per_replica_solves(self):
        grid = self._grid()
        samples = linear_heat_point_samples(grid, 16, 12, 3, RngStream(9), block_size=1)
        for r in range(3):
            w = sample_white_noise_sheet(grid, RngStream(9, r))
            u = solve_linear_heat_1d(grid, w).values
            assert samples[r] == pytest.approx(u[16, 12], rel=1e-12)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_point_samples_chunked_match_per_replica_solves(self, monkeypatch, threads):
        # a budget of two sheets splits blocks of 7 into chunks of 2, 2 and 3;
        # 17 = 7 + 7 + 3 leaves a last block of 3, one chunk
        grid = self._grid()
        k, ix = 16, 12
        sheet_bytes = linear_heat_point_weights(grid, k, ix).nbytes
        monkeypatch.setattr(rng, "CHUNK_BYTES", 2 * sheet_bytes)
        assert rng.row_chunks(7, sheet_bytes) == [(0, 2), (2, 4), (4, 7)]
        x = linear_heat_point_samples(grid, k, ix, 17, RngStream(45), block_size=7,
                                      threads=threads)
        oracle = np.array([
            solve_linear_heat_1d(grid, Field(grid, w)).values[k, ix]
            for w in replica_sheets(grid, 45, 17, 7)
        ])
        assert np.max(np.abs(x - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        one = linear_heat_point_samples(grid, k, ix, 17, RngStream(45), block_size=7)
        assert x.tobytes() == one.tobytes()

    def test_discrete_variance_tracks_g_integral(self):
        # Var u(1, 0) -> int_0^1 (4 pi s)^(-1/2) ds = 1/sqrt(pi); frozen
        # deterministic values on the dyadic refinement path
        target = 1.0 / math.sqrt(math.pi)
        g1 = SpaceTimeGrid(TimeGrid(1.0, 1024), 8.0, 512)
        v1 = linear_heat_point_variance(g1, 1024, 256)
        g2 = SpaceTimeGrid(TimeGrid(1.0, 2048), 8.0, 1024)
        v2 = linear_heat_point_variance(g2, 2048, 512)
        assert abs(v1 - target) / target < 0.01
        assert abs(v2 - target) < abs(v1 - target) / 1.2

    def test_walsh_isometry_deterministic_integrand(self):
        # Var(sum phi W) = sum phi^2 dt dx for a deterministic step integrand
        grid = SpaceTimeGrid(TimeGrid(0.5, 4), 1.0, 4)
        phi = np.arange(16, dtype=float).reshape(4, 4) - 5.0
        vals = []
        for r in range(4000):
            w = sample_white_noise_sheet(grid, RngStream(33, r))
            vals.append(np.sum(phi * w.values))
        vals = np.asarray(vals)
        target = np.sum(phi**2) * grid.cell_volume
        band = 3.0 * math.sqrt(2.0 / vals.size) * target
        assert abs(vals.var(ddof=1) - target) <= band

    def test_rejects_mismatched_noise(self):
        grid = self._grid()
        other = SpaceTimeGrid(TimeGrid(0.25, 8), 4.0, 24)
        with pytest.raises(InputError):
            solve_linear_heat_1d(grid, sample_white_noise_sheet(other, RngStream(0)))


class TestNonlinearHeatPicard:
    def test_zero_sigma(self):
        grid = SpaceTimeGrid(TimeGrid(0.25, 8), 2.0, 16)
        tr = solve_nonlinear_heat_picard(
            LipschitzFn.affine(0, 0), grid, RngStream(1), 3, 4
        )
        assert np.all(tr.sup_sq_diffs == 0.0)

    def test_constant_sigma_is_linear_solution(self):
        grid = SpaceTimeGrid(TimeGrid(0.25, 16), 4.0, 32)
        tr = solve_nonlinear_heat_picard(
            LipschitzFn.affine(0, 1), grid, RngStream(8), 3, 1, block_size=1
        )
        gen = RngStream(8).substream(0).generator()
        w = gen.standard_normal((1, 16, 32)) * math.sqrt(grid.cell_volume)
        lin = solve_linear_heat_1d(grid, Field(grid, w[0])).values
        assert np.allclose(tr.final_sample, lin, atol=1e-12)
        assert np.all(tr.sup_sq_diffs[1:] == 0.0)

    @pytest.mark.parametrize("grid", CORE_GRIDS)
    def test_iterates_match_oracle(self, grid):
        # sigma = identity from u_0 = 0, initial 1: each iterate is
        # 1 + sum over lagged cells of G * u_(n-1) W
        tr = solve_nonlinear_heat_picard(
            LipschitzFn.identity(), grid, RngStream(21), 3, 1, initial=1.0
        )
        w = replica_sheets(grid, 21, 1, 1)[0]
        u_prev = np.zeros((grid.time.n_steps + 1, grid.n_cells))
        diffs = []
        for _ in range(3):
            u_next = 1.0 + direct_convolution(grid, u_prev[:-1] * w)
            diffs.append(((u_next - u_prev) ** 2).max())
            u_prev = u_next
        np.testing.assert_allclose(tr.final_sample, u_prev, rtol=0, atol=1e-13)
        np.testing.assert_allclose(tr.sup_sq_diffs, diffs, rtol=1e-12, atol=0)
        assert tr.sup_sq_diffs[0] == 1.0

    def test_thread_invariant(self):
        grid = SpaceTimeGrid(TimeGrid(0.25, 16), 2.0, 32)
        a, b = (
            solve_nonlinear_heat_picard(LipschitzFn.identity(), grid, RngStream(23), 4, 10,
                                        initial=1.0, block_size=3, threads=t)
            for t in (1, 2)
        )
        assert a.sup_sq_diffs.tobytes() == b.sup_sq_diffs.tobytes()
        assert a.final_sample.tobytes() == b.final_sample.tobytes()

    def test_overflowing_sigma_raises_numerical_error(self):
        grid = SpaceTimeGrid(TimeGrid(0.25, 8), 2.0, 16)
        with pytest.raises(NumericalError, match="not finite"):
            solve_nonlinear_heat_picard(
                LipschitzFn.affine(1e200, 0), grid, RngStream(24), 3, 10, initial=1e200,
                block_size=3, threads=2,
            )

    def test_multiplicative_decay(self):
        # spatial step must resolve sqrt(dt/2) or the squared one-step kernel
        # mass is inflated and the contraction stalls
        grid = SpaceTimeGrid(TimeGrid(0.5, 32), 6.0, 128)
        tr = solve_nonlinear_heat_picard(
            LipschitzFn.identity(), grid, RngStream(88), 8, 200, initial=1.0
        )
        d = tr.sup_sq_diffs
        assert np.all(np.diff(d[2:]) < 0)  # nonincreasing for n >= 3
        assert d[7] < 1e-3 * d[0]


class TestPamChaos:
    def test_term_values(self):
        # (t/4)^(n/2)/Gamma(n/2+1); order 1 equals the linear-solution
        # variance integral int_0^t (4 pi s)^(-1/2) ds
        assert pam_chaos_term_variance(2, 1.0) == pytest.approx(0.25, rel=1e-12)
        assert pam_chaos_term_variance(1, 1.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-12
        )
        for t in (0.25, 1.0, 3.0):
            assert pam_chaos_term_variance(1, t) == pytest.approx(
                math.sqrt(t / math.pi), rel=1e-12
            )

    def test_term_at_subnormal_t(self):
        # t / 4 underflows to 0 at the smallest float, the order-1 term does not
        t = 5e-324
        assert pam_chaos_term_variance(1, t) == pytest.approx(
            math.sqrt(t) / math.sqrt(math.pi), rel=1e-12
        )
        assert pam_chaos_term_variance(2, t) == 0.0
        assert pam_chaos_series(t, 60).partial_sums[-1] == pytest.approx(1.0)

    def test_partial_sum_hits_closed_form(self):
        partial, closed = pam_second_moment(1.0, 60)
        assert closed == pytest.approx(
            2.0 * math.exp(0.25) * 0.76024993890652326, rel=1e-12
        )
        assert abs(partial - closed) < 1e-10

    def test_small_time_limit(self):
        assert pam_second_moment_closed_form(1e-12) == pytest.approx(1.0, abs=1e-6)

    def test_lambda2_from_log_moment(self):
        assert pam_log_second_moment(200.0) / 200.0 == pytest.approx(0.25, abs=1e-2)

    def test_truncation_order_bound(self):
        n = pam_truncation_order(1.0, 1e-12)
        partial_n, closed = pam_second_moment(1.0, n)
        assert abs(partial_n - closed) < 1e-12

    def test_series_monotone(self):
        series = pam_chaos_series(1.0, 30)
        assert np.all(np.diff(series.partial_sums) >= 0)
        assert series.partial_sums[-1] == pytest.approx(series.closed_form, abs=1e-9)


def old_pam_euler_final_batch(grid, w_batch, initial=1.0):
    """The batch Euler marcher as it was before the fold; the oracle."""
    nt, nx = grid.time.n_steps, grid.n_cells
    kern_hat = np.fft.rfft(heat_kernel(grid.time.dt, solvers._periodic_displacements(grid), 1))
    u = np.full((w_batch.shape[0], nx), float(initial))
    for k in range(nt):
        combined = u * (grid.dx + w_batch[:, k])
        u = np.fft.irfft(kern_hat * np.fft.rfft(combined, axis=1), n=nx, axis=1)
    return u


class TestPamEuler:
    def test_zero_noise_preserves_constant(self):
        grid = SpaceTimeGrid(TimeGrid(0.5, 512), 6.0, 512)
        u = solve_pam_euler(grid, np.zeros((1,) + grid.cell_shape()))
        assert u.shape == (1, 512)
        assert np.abs(u - 1.0).max() < 1e-6

    @pytest.mark.parametrize("initial", [1.0, 2.5])
    def test_bit_identical_to_old_batch_marcher(self, initial):
        grid = SpaceTimeGrid(TimeGrid(0.25, 16), 4.0, 32)
        w = RngStream(45).generator().standard_normal((5,) + grid.cell_shape())
        w *= math.sqrt(grid.cell_volume)
        u = solve_pam_euler(grid, w, initial)
        assert u.tobytes() == old_pam_euler_final_batch(grid, w, initial).tobytes()

    def test_overflow_raises(self):
        # u grows by about dx + w = 1e200 per step and overflows at step 2
        grid = SpaceTimeGrid(TimeGrid(0.25, 4), 4.0, 8)
        with pytest.raises(NumericalError, match="overflows"):
            solve_pam_euler(grid, np.full((1,) + grid.cell_shape(), 1e200))

    def test_infinite_cell_width_raises(self):
        # 2 * 1e308 / 4 overflows, and the grid refuses it, so no solver ever
        # takes a displacement of 0 * inf = nan
        with pytest.raises(NumericalError, match="cell width"):
            SpaceTimeGrid(TimeGrid(0.25, 4), 1e308, 4)

    def test_rejects_wrong_sheet_shape(self):
        grid = SpaceTimeGrid(TimeGrid(0.25, 16), 4.0, 32)
        for shape in ((2, 17, 32), (2, 16, 31), (16, 32)):
            with pytest.raises(InputError):
                solve_pam_euler(grid, np.zeros(shape))
        grid2 = SpaceTimeGrid(TimeGrid(0.25, 4), 1.0, 4, dim=2)
        with pytest.raises(CapabilityError):
            solve_pam_euler(grid2, np.zeros((1,) + grid2.cell_shape()))

    def test_mean_one(self):
        grid = SpaceTimeGrid(TimeGrid(0.25, 64), 4.0, 128)
        vals = []
        for b in range(8):
            gen = RngStream(55, b).generator()
            w = gen.standard_normal((125, 64, 128)) * math.sqrt(grid.cell_volume)
            vals.append(solve_pam_euler(grid, w)[:, 64])
        vals = np.concatenate(vals)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) <= 3.0 * se

    def test_second_moment_matches_chaos_sum(self):
        # E[u(0.5,0)^2] vs 2 e^(t/4) Phi(sqrt(t/2)) = 1.56706 at dt = 2^-10,
        # within 5% + 3 stderr. Block b of 250 replicas draws from
        # RngStream(56).substream(b) = RngStream(56, b); two blocks run at a
        # time, each holding its 524 MB of noise, and are joined in block order
        grid = SpaceTimeGrid(TimeGrid(0.5, 512), 6.0, 512)
        target = pam_second_moment_closed_form(0.5)
        scale = math.sqrt(grid.cell_volume)

        def block(gen, count):
            w = gen.standard_normal((count, 512, 512))
            w *= scale
            return solve_pam_euler(grid, w)[:, 256] ** 2

        sq = map_replica_blocks(6 * 250, block, RngStream(56), block_size=250, threads=2)
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - target) <= 3.0 * se + 0.05 * target


def dense_step_matrices(grid: SpaceTimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """(P, M) with M[x, y] = G(dt, x - y) on periodic displacements and P = M dx."""
    nx = grid.n_cells
    disp = (((np.arange(nx) + nx // 2) % nx) - nx // 2) * grid.dx
    kern = heat_kernel(grid.time.dt, disp, 1)
    m = kern[(np.arange(nx)[:, None] - np.arange(nx)[None, :]) % nx]
    return m * grid.dx, m


class TestWickPam:
    GRID = SpaceTimeGrid(TimeGrid(0.25, 32), 2.0, 64)
    SPEC = NoiseSpec.fractional_riesz(0.7, 0.5)

    def test_white_time_has_zero_trace(self):
        sampler = WickPamSampler(self.GRID, NoiseSpec.space_time_white())
        assert np.all(sampler.tau == 0.0)

    def test_chaos_levels_centered_and_orthogonal(self):
        sampler = WickPamSampler(self.GRID, self.SPEC)
        u1, u2 = sampler.sample_chaos(RngStream(31), 3000)
        mid = 32
        for arr in (u1[:, mid], u2[:, mid], u1[:, mid] * u2[:, mid]):
            se = arr.std(ddof=1) / math.sqrt(arr.size)
            assert abs(arr.mean()) <= 4.0 * se

    def test_linear_level_variance_exact(self):
        # U1 is linear in the noise; its exact variance is c^T Cov c with the
        # coefficient vector extracted by feeding basis noises through the march
        grid = SpaceTimeGrid(TimeGrid(0.2, 6), 1.0, 8)
        spec = NoiseSpec.fractional_riesz(0.75, 0.5)
        sampler = WickPamSampler(grid, spec)
        nt, nx = 6, 8
        coeff = np.zeros((nt, nx))
        # oracle: the dense march, P[x, y] = G(dt, x - y) dx and M = P / dx
        p_step, m_step = dense_step_matrices(grid)
        for j in range(nt):
            for z in range(nx):
                w = np.zeros((1, nt, nx))
                w[0, j, z] = 1.0
                u1 = np.zeros((1, nx))
                for k in range(nt):
                    u1 = u1 @ p_step.T + w[:, k] @ m_step.T
                coeff[j, z] = u1[0, nx // 2]
        cov = np.kron(sampler.sampler.time_cov, sampler.sampler.space_cov)
        v1_exact = coeff.reshape(-1) @ cov @ coeff.reshape(-1)
        u1, _ = sampler.sample_chaos(RngStream(77), 20_000)
        v1_mc = (u1[:, nx // 2] ** 2).mean()
        se = (u1[:, nx // 2] ** 2).std(ddof=1) / math.sqrt(20_000)
        assert abs(v1_mc - v1_exact) <= 3.0 * se

    def test_fft_march_matches_dense_oracle(self):
        # the dense march: q[j, y] = (P^j M S)[y, y], tau[k] = sum_(m<k) T[m, k]
        # q[k-1-m], and both chaos levels advanced by P and M products
        sampler = WickPamSampler(self.GRID, self.SPEC)
        nt, nx = self.GRID.time.n_steps, self.GRID.n_cells
        p_step, m_step = dense_step_matrices(self.GRID)
        t_cov, s_cov = sampler.sampler.time_cov, sampler.sampler.space_cov
        q = np.empty((nt, nx))
        b = m_step.copy()
        for j in range(nt):
            q[j] = np.einsum("yz,zy->y", b, s_cov)
            b = p_step @ b
        tau = np.zeros((nt, nx))
        for k in range(1, nt):
            tau[k] = t_cov[:k, k] @ q[k - 1 :: -1]
        np.testing.assert_allclose(sampler.tau, tau, rtol=0, atol=1e-13 * np.abs(tau).max())

        w = sampler.sampler.sample_batch(RngStream(32), 20)
        u1 = np.zeros((20, nx))
        u2 = np.zeros((20, nx))
        for k in range(nt):
            u2 = u2 @ p_step.T + (u1 * w[:, k] - tau[k]) @ m_step.T
            u1 = u1 @ p_step.T + w[:, k] @ m_step.T
        f1, f2 = sampler.sample_chaos(RngStream(32), 20)
        np.testing.assert_allclose(f1, u1, rtol=0, atol=1e-12 * np.abs(u1).max())
        np.testing.assert_allclose(f2, u2, rtol=0, atol=1e-12 * np.abs(u2).max())

    @pytest.mark.parametrize("n_steps", [5, 8, 13, 32])
    def test_blocked_march_bit_identical_to_strided_march(self, n_steps):
        # the march over a time-major copy of 8 steps at a time, against the
        # march on the sampler's own layout, step by step; 5 and 13 end in a
        # short block
        grid = SpaceTimeGrid(TimeGrid(0.25, n_steps), 2.0, 16)
        sampler = WickPamSampler(grid, self.SPEC)
        w = sampler.sampler.sample_batch(RngStream(33), 7)
        u1 = np.zeros((7, grid.n_cells))
        u2 = np.zeros_like(u1)
        for k in range(n_steps):
            u2 = sampler._step(u2 * grid.dx + u1 * w[:, k] - sampler.tau[k])
            u1 = sampler._step(u1 * grid.dx + w[:, k])
        f1, f2 = sampler.sample_chaos(RngStream(33), 7)
        assert f1.tobytes() == u1.tobytes() and f2.tobytes() == u2.tobytes()

    def test_second_moment_samples_at_least_chaos0(self):
        sampler = WickPamSampler(self.GRID, self.SPEC)
        sm = sampler.second_moment_samples(RngStream(99), 500)
        assert sm.shape == (500,)
        assert sm.mean() > 1.0  # chaos levels add nonnegative variance

    def test_colored_plain_euler_drifts(self):
        # the adapted-product Euler scheme is not Wick-consistent for
        # time-correlated noise: its mean drifts above 1
        sampler = HomogeneousNoiseSampler(self.GRID, self.SPEC)
        w = sampler.sample_batch(RngStream(61), 2000)
        uf = solve_pam_euler(self.GRID, w)
        m = uf[:, 32]
        se = m.std(ddof=1) / math.sqrt(m.size)
        assert m.mean() - 1.0 > 5.0 * se
