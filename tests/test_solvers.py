import math

import numpy as np
import pytest

from spde_lab import cli, rng, solvers
from spde_lab.errors import CapabilityError, DomainError, InputError, NumericalError
from spde_lab.grids import SpaceTimeGrid, TimeGrid
from spde_lab.kernels import heat_kernel
from spde_lab.noise import (
    HomogeneousNoiseSampler,
    NoiseSpec,
    sample_bm_paths,
    sample_white_noise_sheet,
)
from spde_lab.rng import DEFAULT_BLOCK_SIZE, RngStream, map_replica_blocks
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
    solve_nonlinear_heat_picard,
)

from conftest import traced_peak


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


def affine(a: float, b: float) -> LipschitzFn:
    """sigma(x) = a x + b, Lipschitz with constant |a|."""
    return LipschitzFn(lambda x: a * x + b, abs(a), f"affine({a},{b})")


def bounded_smooth(name: str) -> LipschitzFn:
    """A bounded smooth sigma (sin or tanh), Lipschitz with constant 1."""
    return LipschitzFn({"sin": np.sin, "tanh": np.tanh}[name], 1.0, name)


def check_constant(sigma: LipschitzFn, rng, trials: int = 256, scale: float = 10.0) -> bool:
    """Spot-check |sigma(x)-sigma(y)| <= C |x-y| on random pairs."""
    x, y = rng.generator().uniform(-scale, scale, (2, trials))
    lhs = np.abs(np.asarray(sigma(x)) - np.asarray(sigma(y)))
    return bool(np.all(lhs <= sigma.lipschitz_constant * np.abs(x - y) + 1e-12))


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


def ito_cumsum(phi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Node values of the Ito sums of phi (R, nt), written into ``out`` (R, nt + 1):
    node 0 is 0, node k sums cells < k."""
    out[:, 0] = 0.0
    np.cumsum(phi, axis=1, out=out[:, 1:])
    return out


def solve_sde_picard(sigma, grid, rng, n_iter, replicas, initial=0.0,
                     block_size=DEFAULT_BLOCK_SIZE, threads=1):
    """Picard scheme X_(n+1)(t) = initial + int_0^t sigma(X_n) dB, X_0 = 0, on
    the heat scheme's Picard loop with the Ito cumulative sum as its causal
    sum, which needs no per-block workspace.

    All iterates of one replica share a single Brownian path; the trace
    records, for each iterate, the maximum over grid nodes of the replica
    average of the squared successive difference. The multiplicative model
    (sigma(x) = x) needs ``initial=1``: with zero initial value its unique
    solution is identically zero and every iterate vanishes.
    """
    return solvers._picard_trace(
        sigma, lambda rows: ito_cumsum, (grid.n_steps,), math.sqrt(grid.dt),
        rng, n_iter, replicas, initial, block_size, threads,
    )


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
            u_next = convolve(kernels, integrand, nodes)
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
    pytest.param(bounded_smooth("sin"), id="sin"),
    pytest.param(affine(0.5, 0.3), id="affine"),
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

    # identity and sin skip the first causal sum at initial 1.0 (above) and
    # 0.0, where -0 + 0 = +0, and take it at -0.0
    @pytest.mark.parametrize("initial", [0.0, -0.0])
    @pytest.mark.parametrize("sigma", ORACLE_SIGMAS)
    def test_heat_zero_initial_bit_identical_to_old_driver(self, sigma, initial):
        grid = SpaceTimeGrid(TimeGrid(0.25, 16), 2.0, 32)
        args = (sigma, grid, RngStream(42), 4, 10, initial, 3, 1)
        tr = solve_nonlinear_heat_picard(*args)
        diffs, final = old_heat_picard(*args)
        assert tr.sup_sq_diffs.tobytes() == diffs.tobytes()
        assert tr.final_sample.tobytes() == final.tobytes()

    @pytest.mark.parametrize("sigma, initial, sums", [
        (LipschitzFn.identity(), 1.0, 3),
        (LipschitzFn.identity(), 0.0, 3),
        (LipschitzFn.identity(), -0.0, 4),  # the zeros' signs would show in -0.0 + (+-0)
        (affine(0.5, 0.3), 1.0, 4),  # sigma(0) = 0.3
    ])
    def test_zero_first_pass_skips_the_causal_sum(self, sigma, initial, sums):
        calls = []

        def counting_cumsum(rows):
            def run(phi, out):
                calls.append(phi.shape[0])
                return ito_cumsum(phi, out)
            return run

        # 2 replicas in one block make one chunk through 4 iterations
        solvers._picard_trace(sigma, counting_cumsum, (8,), 0.5, RngStream(0), 4, 2, initial, 2, 1)
        assert calls == [2] * sums

    def test_holds_only_blocks_in_flight(self):
        grid = SpaceTimeGrid(TimeGrid(0.25, 16), 2.0, 32)
        n_iter, replicas = 4, 2000
        full_bytes = replicas * (n_iter + 1) * 17 * 32 * 8
        peak = traced_peak(lambda: solve_nonlinear_heat_picard(
            LipschitzFn.identity(), grid, RngStream(43), n_iter, replicas,
            initial=1.0, block_size=100,
        ))
        assert peak < 0.5 * full_bytes

    @pytest.mark.parametrize("replicas, n_iter", [(2000, 4), (4000, 4), (2000, 8)])
    def test_peak_does_not_grow_with_replicas_or_iterations(self, replicas, n_iter):
        # blocks return (n_iter, 17, 32) sums, so one bound holds whatever
        # the replica count and the number of iterations
        grid = SpaceTimeGrid(TimeGrid(0.25, 16), 2.0, 32)
        peak = traced_peak(lambda: solve_nonlinear_heat_picard(
            LipschitzFn.identity(), grid, RngStream(43), n_iter, replicas,
            initial=1.0, block_size=100, threads=2,
        ))
        assert peak < PICARD_PEAK_BOUND


class TestSdePicard:
    def test_zero_sigma(self):
        tr = solve_sde_picard(affine(0, 0), TimeGrid(1.0, 32), RngStream(1), 4, 16)
        assert np.all(tr.sup_sq_diffs == 0.0)
        assert np.all(tr.final_sample == 0.0)

    def test_constant_sigma_fixed_point(self):
        # sigma = 1: X_1 = B and the iteration is stationary afterwards
        tr = solve_sde_picard(affine(0, 1), TimeGrid(1.0, 32), RngStream(2), 4, 64)
        assert tr.sup_sq_diffs[0] > 0
        assert np.all(tr.sup_sq_diffs[1:] == 0.0)

    def test_multiplicative_gronwall_decay(self):
        # X(0)=1, sigma(x)=x: the n-th difference D_n(k) = sum_{j<k} D_(n-1)(j) dB_j,
        # D_0 = 1, so the Ito isometry applied n times gives E D_n(k)^2 = C(k, n) dt^n,
        # 0.92-1.0 x t^n/n! here. Each order is the max over nodes of a mean of 1000
        # replicas of about t^n He_n(Z)^2/n!^2, whose relative sd is sqrt(E He_n^4/n!^2 - 1)
        # / sqrt(1000): 0.05, 0.12, 0.30, then above 0.8 from order 4. So only order 1
        # gets an upper band: a chi-square Chernoff bound, which Doob's inequality carries
        # to the max over nodes (exp of a sum of squared martingales is a submartingale),
        # puts it above 1.2 with probability below 1e-3. The lower side stays light: the max
        # is at least the last node, whose mean is at least that of min(X, tau), and
        # Bernstein's bound on that bounded mean gives 0.83, 0.61, 0.40, 0.35, 0.34, 0.29
        # and 0.27 at probability 1e-3 each (tau chosen per order). Rounded down below.
        grid = TimeGrid(0.5, 256)
        tr = solve_sde_picard(LipschitzFn.identity(), grid, RngStream(3), 8, 1000, initial=1.0)
        exact = np.array([math.comb(256, n) * grid.dt**n for n in range(8)])
        ratio = tr.sup_sq_diffs / exact
        assert ratio[0] == 1.0  # u_1 = initial at every node
        assert ratio[1] < 1.2
        assert np.all(ratio[1:] > [0.8, 0.6, 0.35, 0.3, 0.3, 0.25, 0.25])
        assert tr.sup_sq_diffs[7] / tr.sup_sq_diffs[3] < 1e-2  # exact ratio 7e-5

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
        # the oracle coefficients above hold their stated constants
        assert check_constant(LipschitzFn.identity(), RngStream(0))
        assert check_constant(bounded_smooth("tanh"), RngStream(1))
        bad = LipschitzFn(lambda x: x * x, 1.0, "quadratic")
        assert not check_constant(bad, RngStream(2))

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
                affine(1e200, 0), TimeGrid(0.5, 16), RngStream(4), 3, 8,
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


class TestGeometricBlock:
    # (model, t, hurst, p, sigma^2 in closed form: t for gbm, t^(2H) for gfbm)
    @pytest.mark.parametrize("model, t, hurst, p, var", [
        ("gbm", 1.0, None, 3.0, 1.0),
        ("gbm", 3.0, None, 2.0, 3.0),
        ("gfbm", 4.0, 0.25, 2.0, 2.0),
        ("gfbm", 2.0, 0.75, 2.0, 2.0 * math.sqrt(2.0)),
        ("gfbm", 9.0, 0.25, 1.5, 3.0),
    ])
    def test_sample_size_rule_threshold(self, model, t, hurst, p, var):
        # n replicas pass iff ln n >= p^2 sigma^2 / 2, so the integers on each
        # side of e^(p^2 sigma^2 / 2) fall on each side of the rule
        need = math.exp(p * p * var / 2.0)
        n = math.floor(need)
        assert 1e-6 < need - n < 1.0 - 1e-6
        assert solvers.geometric_variance(model, t, hurst) == pytest.approx(var, rel=1e-15)
        with pytest.raises(NumericalError, match="too few"):
            solvers.geometric_block(model, t, hurst, p, n)
        assert callable(solvers.geometric_block(model, t, hurst, p, n + 1))

    @pytest.mark.parametrize("model, hurst, scale, var", [
        ("gbm", None, math.sqrt(2.0), 2.0),
        ("gfbm", 0.25, 2.0**0.25, math.sqrt(2.0)),
    ])
    def test_block_is_lognormal_of_one_normal_per_replica(self, model, hurst, scale, var):
        block = solvers.geometric_block(model, 2.0, hurst, 1.0, 300)
        z = RngStream(4).generator().standard_normal(300)
        np.testing.assert_allclose(block(RngStream(4).generator(), 300),
                                   np.exp(scale * z - var / 2.0), rtol=1e-14)

    @pytest.mark.parametrize("model, t, hurst", [
        ("gbm", 0.5, None),
        ("gbm", 3.7, None),
        # at these three, t^(2H) as a Python float and as a numpy power differ
        # in the last bit
        ("gfbm", 0.5, 0.55),
        ("gfbm", 2.0, 0.95),
        ("gfbm", 7.3, 0.6),
        ("gfbm", 4.0, 0.75),
    ])
    def test_block_bits_pinned_to_python_float_expression(self, model, t, hurst):
        # the block's expression before it shared the geometric formula, with
        # sigma and sigma^2 as Python floats
        scale, var = (math.sqrt(t), t) if model == "gbm" else (t**hurst, t ** (2 * hurst))
        z = RngStream(8).generator().standard_normal((1000, 1)) * scale
        want = np.exp(z[:, 0] - var / 2.0)
        block = solvers.geometric_block(model, t, hurst, 1.0, 1000)
        assert block(RngStream(8).generator(), 1000).tobytes() == want.tobytes()


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


def convolve(kernels, phi: np.ndarray, rows) -> np.ndarray:
    """u at the time nodes ``rows`` for integrands phi of shape (R, nt, nx), by
    one causal sum of the core, shape (R, len(rows), nx)."""
    rows = np.asarray(rows, dtype=int)
    count, _, nx = phi.shape
    out = np.empty((count, rows.size, nx))
    return kernels.causal_sum(count, rows, nx)(phi, out)


def solve_linear_heat(grid: SpaceTimeGrid, w: np.ndarray) -> np.ndarray:
    """u at every time node for one cell-indexed sheet w, by the causal convolution core."""
    nodes = np.arange(grid.time.n_steps + 1)
    return convolve(solvers._LinearHeatKernels(grid), w[None], nodes)[0]


def replica_sheets(grid: SpaceTimeGrid, seed: int, replicas: int, block_size: int,
                   rows: int | None = None):
    """The scaled white-noise sheets the block samplers draw, in replica order:
    each block's one (count, rows, nx) draw, rows = nt unless given, with
    zero rows below it up to nt."""
    nt, nx = grid.time.n_steps, grid.n_cells
    rows = nt if rows is None else rows
    sheets = np.zeros((replicas, nt, nx))
    for b, start in enumerate(range(0, replicas, block_size)):
        count = min(block_size, replicas - start)
        gen = RngStream(seed).substream(b).generator()
        sheets[start : start + count, :rows] = gen.standard_normal((count, rows, nx))
    return sheets * math.sqrt(grid.cell_volume)


def kept_cell_sheets(grid: SpaceTimeGrid, k: int, ix: int, seed: int, replicas: int,
                     block_size: int):
    """The scaled sheets behind the point samples, in replica order: each block's
    (count, n_kept) draws on the kept cells in row-major order, zeros elsewhere."""
    kept = solvers._kept_cells(linear_heat_point_weights(grid, k, ix))
    sheets = np.zeros((replicas, grid.time.n_steps * grid.n_cells))
    for b, start in enumerate(range(0, replicas, block_size)):
        count = min(block_size, replicas - start)
        z = RngStream(seed).substream(b).generator().standard_normal((count, kept.size))
        sheets[start : start + count, kept] = z
    return sheets.reshape((replicas,) + grid.cell_shape()) * math.sqrt(grid.cell_volume)


def old_node_samples(grid, nodes, replicas, rng, block_size, threads):
    """The node sampler as one draw per block of the rows below the last node,
    convolved in one whole spectrum; the oracle. For nodes that run from 0 to
    nt it is the whole-sheet sampler of 0.2.1."""
    nodes = np.asarray(nodes)
    last = int(nodes.max())
    kernels = solvers._LinearHeatKernels(grid, int(nodes.min()), last)
    scale = math.sqrt(grid.cell_volume)

    def block(gen, count):
        w = gen.standard_normal((count, last, grid.n_cells))
        w *= scale
        return whole_spectrum_convolve(kernels, w, nodes)

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


# node windows of 16-, 15- and 11-step grids with the FFT length each one takes:
# the smallest 5-smooth length > last and >= 2 last - first, at most 2 nt
WINDOWS = [
    pytest.param(SpaceTimeGrid(TimeGrid(0.25, 16), 4.0, 24), [9, 16, 6], 27,
                 id="first-6-to-nt"),  # 2 last - first = 26
    pytest.param(SpaceTimeGrid(TimeGrid(0.25, 16), 4.0, 24), [0, 11, 4, 11], 24,
                 id="0-to-last-11"),  # 22
    pytest.param(SpaceTimeGrid(TimeGrid(0.25, 16), 4.0, 24), [11, 5, 8], 18,
                 id="5-to-11"),  # 17
    pytest.param(SpaceTimeGrid(TimeGrid(0.3, 15), 3.0, 33), [7], 8,
                 id="one-node"),  # 7, but lag 7 needs length 8
    pytest.param(SpaceTimeGrid(TimeGrid(0.3, 11), 3.0, 33), [1, 11], 22,
                 id="capped-at-2nt"),  # 21, and 2 nt = 22 < 24
    pytest.param(SpaceTimeGrid(TimeGrid(0.25, 16), 4.0, 24), [0, 0], 1,
                 id="all-zero"),
]

CRITERION_7_GRID = SpaceTimeGrid(TimeGrid(1.0, 1024), 8.0, 256)

KEPT_SET_NODES = [
    pytest.param(CRITERION_7_GRID, 1024, 128, id="criterion-7"),
    pytest.param(CRITERION_7_GRID, 1, 128, id="k1"),
    pytest.param(CRITERION_7_GRID, 0, 128, id="k0"),
    # wide kernels on 8 cells: every nonzero weight is kept
    pytest.param(SpaceTimeGrid(TimeGrid(1.0, 4), 2.0, 8), 4, 3, id="coarse"),
]


class TestLinearHeat:
    def _grid(self):
        return SpaceTimeGrid(TimeGrid(0.25, 16), 4.0, 24)

    def test_zero_time_is_zero(self):
        grid = self._grid()
        u = solve_linear_heat(grid, sample_white_noise_sheet(grid, RngStream(1)).values)
        assert np.all(u[0] == 0.0)

    @pytest.mark.parametrize("grid", CORE_GRIDS)
    def test_fft_core_matches_direct_oracle(self, grid):
        w = sample_white_noise_sheet(grid, RngStream(5))
        u = solve_linear_heat(grid, w.values)
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

    @pytest.mark.parametrize("grid, nodes, n_fft", WINDOWS)
    def test_windowed_node_samples_match_direct_oracle(self, grid, nodes, n_fft):
        # the lag sum, without an FFT, over sheets drawn up to the last node
        nodes = np.array(nodes)
        last = int(nodes.max())
        assert solvers._LinearHeatKernels(grid, int(nodes.min()), last).spectrum.shape == (
            grid.n_cells // 2 + 1, n_fft)
        x = linear_heat_node_samples(grid, nodes, 5, RngStream(13), block_size=2)
        sheets = replica_sheets(grid, 13, 5, 2, rows=last)
        ref = np.stack([direct_convolution(grid, w)[nodes] for w in sheets])
        if last == 0:
            assert np.all(x == 0.0)
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("threads", [1, 2])
    def test_node_samples_bit_identical_to_whole_block_draws(self, threads):
        # 512 kB sheets make two-row chunks; 11 replicas in blocks of 5 run the
        # lone-row merge ([0, 2), [2, 5)) and a one-replica last block; the
        # nodes end at 228, so each block draws (count, 228, 256) normals
        grid = SpaceTimeGrid(TimeGrid(0.25, 256), 4.0, 256)
        nodes = np.arange(100, 229, 4)
        x = linear_heat_node_samples(grid, nodes, 11, RngStream(15), 5, threads)
        ref = old_node_samples(grid, nodes, 11, RngStream(15), 5, threads)
        assert x.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("grid, nodes, replicas, block_size, slabs", [
        # 1024-cell rows make 128-row time slabs, so nt = 257 splits as 128 +
        # 129 with a lone row merged; 2.1 MB sheets make two-replica chunks,
        # and 7 replicas in blocks of 3 leave a one-replica block
        pytest.param(SpaceTimeGrid(TimeGrid(0.25, 257), 4.0, 1024), [257, 0, 5, 5, 130, 3],
                     7, 3, [(0, 128), (128, 257)], id="uneven-slabs"),
        # one slab holds the whole sheet; blocks of one replica each
        pytest.param(SpaceTimeGrid(TimeGrid(0.3, 15), 3.0, 33), [15, 1, 1, 0, 7],
                     3, 1, [(0, 15)], id="one-replica-blocks"),
    ])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_node_samples_bit_identical_to_old_sampler(
        self, grid, nodes, replicas, block_size, slabs, threads
    ):
        assert rng.row_chunks(grid.time.n_steps, 8 * grid.n_cells) == slabs
        nodes = np.array(nodes)
        x = linear_heat_node_samples(grid, nodes, replicas, RngStream(18), block_size, threads)
        ref = old_node_samples(grid, nodes, replicas, RngStream(18), block_size, threads)
        assert x.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("grid", [
        *CORE_GRIDS,
        pytest.param(SpaceTimeGrid(TimeGrid(0.3, 1), 3.0, 8), id="one-step"),
        pytest.param(SpaceTimeGrid(TimeGrid(0.25, 1024), 4.0, 512), id="hoelder"),
    ])
    def test_spectrum_bit_identical_to_one_shot_build(self, grid):
        nt = grid.time.n_steps
        # the table of every lagged kernel, its space rFFT and the padded time FFT, at once
        oracle = np.fft.fft(
            np.fft.rfft(solvers._lagged_heat_kernels(grid), axis=1).T, n=2 * nt, axis=1
        )
        assert solvers._LinearHeatKernels(grid).spectrum.tobytes() == oracle.tobytes()

    def test_criterion_10_window_spectrum(self):
        # the Hoelder study's nodes 768..896 build lags 0..896 only, and their
        # time FFT is half as long as the (257, 2048) spectrum of nodes 0..1024
        grid = SpaceTimeGrid(TimeGrid(0.25, 1024), 4.0, 512)
        kernels = solvers._LinearHeatKernels(grid, 768, 896)
        assert kernels.spectrum.shape == (257, 1024)
        lags = solvers._lagged_heat_kernels(grid)[:897]
        oracle = np.fft.fft(np.fft.rfft(lags, axis=1).T, n=1024, axis=1)
        assert kernels.spectrum.tobytes() == oracle.tobytes()

    def test_spectrum_build_holds_one_spectrum(self):
        # the one-shot build held the (nt + 1, nx) table and two complex spectra: 2.0x
        grid = SpaceTimeGrid(TimeGrid(0.25, 256), 4.0, 512)
        spectrum_bytes = 16 * (512 // 2 + 1) * 2 * 256
        assert traced_peak(lambda: solvers._LinearHeatKernels(grid)) < 1.1 * spectrum_bytes

    @pytest.mark.parametrize("grid, count, n_freq_chunks", [
        # five replicas' 4 MB of padded spectra split into eleven frequency
        # chunks of 25, the last of 7
        pytest.param(SpaceTimeGrid(TimeGrid(0.25, 256), 4.0, 512), 5, 11, id="hoelder-like"),
        # Picard's chunks of 3 replicas: the whole spectrum is one chunk
        pytest.param(SpaceTimeGrid(TimeGrid(0.5, 64), 6.0, 128), 3, 1, id="picard-grid"),
    ])
    def test_convolve_bit_identical_to_whole_spectrum(self, grid, count, n_freq_chunks):
        kernels = solvers._LinearHeatKernels(grid)
        nf, n_fft = kernels.spectrum.shape
        assert len(rng.row_chunks(nf, 16 * count * n_fft)) == n_freq_chunks
        nt, nx = grid.time.n_steps, grid.n_cells
        phi = RngStream(17).generator().standard_normal((count, nt, nx))
        for rows in (np.arange(nt + 1), np.array([0, 3, nt // 2, nt])):
            causal_sum = kernels.causal_sum(count, rows, nx)
            # one workspace serves a whole call, then a shorter one
            for c in (count, count - 2):
                u = causal_sum(phi[:c], np.empty((c, rows.size, nx)))
                assert u.tobytes() == whole_spectrum_convolve(kernels, phi[:c], rows).tobytes()

    def test_node_samples_peak_below_half_a_block(self):
        # one block of 64 sheets is 32 MB of noise, which a whole-block draw holds at once
        grid = SpaceTimeGrid(TimeGrid(0.25, 256), 4.0, 256)
        block_noise = 64 * 256 * 256 * 8
        peak = traced_peak(
            lambda: linear_heat_node_samples(grid, np.arange(192, 225), 64, RngStream(16), 64)
        )
        assert peak < 0.5 * block_noise

    def test_node_samples_peak_beyond_spectrum_below_four_sheets(self):
        # a block holds one time slab, one (nt, nf) space spectrum and one chunk
        # of u, not two replicas' sheets and their space spectra: the whole-sheet
        # sampler peaked at 5.8 sheets beyond the kernel spectrum, this one at 2.7
        grid = SpaceTimeGrid(TimeGrid(0.25, 512), 4.0, 512)
        sheet_bytes = 8 * 512 * 512
        assert sheet_bytes >= 2 * 2**20
        spectrum_bytes = solvers._LinearHeatKernels(grid).spectrum.nbytes
        peak = traced_peak(
            lambda: linear_heat_node_samples(grid, np.arange(448, 513), 2, RngStream(19))
        )
        assert peak - spectrum_bytes < 4 * sheet_bytes

    # the 24-cell grid of _grid(), 16 steps: every index is an integer inside it
    @pytest.mark.parametrize("ix", [
        pytest.param(24, id="past-last-cell"),
        pytest.param(-1, id="negative"),
        pytest.param(10**6, id="huge"),
        pytest.param(2.5, id="float"),
    ])
    def test_point_weights_reject_space_index(self, ix):
        with pytest.raises(InputError, match="space index"):
            linear_heat_point_weights(self._grid(), 16, ix)

    @pytest.mark.parametrize("k", [
        pytest.param(2.5, id="float"),
        pytest.param(17, id="past-last-node"),
        pytest.param(-1, id="negative"),
    ])
    def test_point_weights_reject_time_index(self, k):
        with pytest.raises(InputError, match="time index"):
            linear_heat_point_weights(self._grid(), k, 3)

    @pytest.mark.parametrize("nodes", [
        pytest.param([2.5], id="float"),
        pytest.param([True, False], id="boolean-mask"),
        pytest.param([[1, 2]], id="two-dimensional"),
        pytest.param([0, 17], id="past-last-node"),
        pytest.param([-1], id="negative"),
        pytest.param([], id="empty"),
    ])
    def test_node_samples_reject_node_indices(self, nodes):
        with pytest.raises(InputError, match="node indices"):
            linear_heat_node_samples(self._grid(), nodes, 2, RngStream(0))

    def test_indices_accept_numpy_integers(self):
        grid = self._grid()
        a = linear_heat_point_weights(grid, np.int64(16), np.uint8(12))
        assert a.tobytes() == linear_heat_point_weights(grid, 16, 12).tobytes()
        x = linear_heat_node_samples(grid, np.array([16, 3], dtype=np.uint16), 2, RngStream(0))
        assert x.tobytes() == linear_heat_node_samples(grid, [16, 3], 2, RngStream(0)).tobytes()

    def test_point_weights_match_solver(self):
        grid = self._grid()
        w = sample_white_noise_sheet(grid, RngStream(5))
        u = solve_linear_heat(grid, w.values)
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
        # the samples: one draw per kept cell, dotted with the packed weights
        w = oracle.ravel()[solvers._kept_cells(oracle)]

        def block(gen, count):
            return math.sqrt(grid.cell_volume) * (gen.standard_normal((count, w.size)) @ w)

        x = linear_heat_point_samples(grid, k, ix, 10, RngStream(44), block_size=3, threads=2)
        assert x.tobytes() == map_replica_blocks(10, block, RngStream(44), 3).tobytes()

    def test_point_samples_match_per_replica_solves(self):
        grid = self._grid()
        samples = linear_heat_point_samples(grid, 16, 12, 3, RngStream(9), block_size=1)
        for r, w in enumerate(kept_cell_sheets(grid, 16, 12, 9, 3, 1)):
            u = solve_linear_heat(grid, w)
            assert samples[r] == pytest.approx(u[16, 12], rel=1e-12)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_point_samples_chunked_match_per_replica_solves(self, monkeypatch, threads):
        # a budget of two rows of packed weights splits blocks of 7 into chunks
        # of 2, 2 and 3; 17 = 7 + 7 + 3 leaves a last block of 3, one chunk
        grid = self._grid()
        k, ix = 16, 12
        a = linear_heat_point_weights(grid, k, ix)
        row_bytes = a.ravel()[solvers._kept_cells(a)].nbytes
        monkeypatch.setattr(rng, "CHUNK_BYTES", 2 * row_bytes)
        assert rng.row_chunks(7, row_bytes) == [(0, 2), (2, 4), (4, 7)]
        x = linear_heat_point_samples(grid, k, ix, 17, RngStream(45), block_size=7,
                                      threads=threads)
        oracle = np.array([
            solve_linear_heat(grid, w)[k, ix]
            for w in kept_cell_sheets(grid, k, ix, 45, 17, 7)
        ])
        assert np.max(np.abs(x - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        one = linear_heat_point_samples(grid, k, ix, 17, RngStream(45), block_size=7)
        assert x.tobytes() == one.tobytes()

    @pytest.mark.parametrize("grid, k, ix", KEPT_SET_NODES)
    def test_kept_cells_carry_the_point_variance(self, grid, k, ix):
        a = linear_heat_point_weights(grid, k, ix)
        kept = solvers._kept_cells(a)
        assert np.all(np.diff(kept) > 0)  # row-major order
        w = a.ravel()[kept]
        var = linear_heat_point_variance(grid, k, ix)
        assert abs(np.sum(w * w) * grid.cell_volume - var) <= 1e-15 * var
        # the dropped cells are the smallest and carry at most 2^-53 of sum a^2
        dropped = np.delete(a.ravel(), kept)
        if kept.size:
            assert np.max(np.abs(dropped), initial=0.0) <= np.min(np.abs(w))
        assert math.fsum(dropped**2) <= 2.0**-53 * math.fsum(a.ravel() ** 2)
        if k == 0:
            assert kept.size == 0 and var == 0.0
        elif k == 1:
            assert 0 < kept.size <= 8  # one narrow kernel row
        elif grid.time.n_steps == 4:
            assert kept.tolist() == np.flatnonzero(a).tolist()  # no nonzero weight dropped
        else:
            assert kept.size < 0.5 * a.size

    @pytest.mark.parametrize("grid, k, ix", KEPT_SET_NODES)
    def test_point_samples_thread_invariant(self, grid, k, ix):
        x = linear_heat_point_samples(grid, k, ix, 10, RngStream(46), block_size=3)
        for threads in (2, 4):
            again = linear_heat_point_samples(grid, k, ix, 10, RngStream(46), block_size=3,
                                              threads=threads)
            assert again.tobytes() == x.tobytes()
        if k == 0:
            assert np.all(x == 0.0)
        else:
            assert np.all(x != 0.0)

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


class TestNonlinearHeatPicard:
    def test_zero_sigma(self):
        grid = SpaceTimeGrid(TimeGrid(0.25, 8), 2.0, 16)
        tr = solve_nonlinear_heat_picard(
            affine(0, 0), grid, RngStream(1), 3, 4
        )
        assert np.all(tr.sup_sq_diffs == 0.0)

    def test_constant_sigma_is_linear_solution(self):
        grid = SpaceTimeGrid(TimeGrid(0.25, 16), 4.0, 32)
        tr = solve_nonlinear_heat_picard(
            affine(0, 1), grid, RngStream(8), 3, 1, block_size=1
        )
        gen = RngStream(8).substream(0).generator()
        w = gen.standard_normal((1, 16, 32)) * math.sqrt(grid.cell_volume)
        lin = solve_linear_heat(grid, w[0])
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
                affine(1e200, 0), grid, RngStream(24), 3, 10, initial=1e200,
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


def solve_pam_euler(grid, noise, initial=1.0):
    """The library's Euler march over a batch of cell-mass sheets of shape
    (R, n_steps, n_cells), which it only reads; the final-time values (R, n_cells)."""
    return solvers._pam_march(grid, np.swapaxes(noise, 0, 1), len(noise), initial)


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
        w_before = w.copy()
        u = solve_pam_euler(grid, w, initial)
        assert w.tobytes() == w_before.tobytes()  # the march only reads its noise
        assert u.tobytes() == old_pam_euler_final_batch(grid, w, initial).tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cli_pam_white_matches_whole_block_draws(self, tmp_path, monkeypatch, threads):
        # the CLI draws each 64-replica block one time step at a time; the
        # reference draws the whole block at once, step-major, and marches it
        # with the old marcher. 100 replicas end in a short block (36)
        ts, replicas, seed = (0.25, 0.5), 100, 7
        argv = ["simulate", "--model", "pam-white", "--t", "0.25,0.5", "--p", "1,2",
                "--n-steps", "16", "--replicas", str(replicas), "--seed", str(seed),
                "--threads", str(threads)]

        def old_block(grid):
            def block(gen, count):
                w = gen.standard_normal((grid.time.n_steps, count, grid.n_cells)).transpose(1, 0, 2)
                w *= math.sqrt(grid.cell_volume)
                return old_pam_euler_final_batch(grid, w)[:, grid.n_cells // 2]
            return block

        refs = [
            map_replica_blocks(replicas, old_block(cli._auto_pam_grid(t, 16, None)),
                               RngStream(seed).substream(i), block_size=64, threads=threads)
            for i, t in enumerate(ts)
        ]
        samples = []
        real_map = cli.map_replica_blocks

        def recording_map(*args, **kwargs):
            samples.append(real_map(*args, **kwargs))
            return samples[-1]

        monkeypatch.setattr(cli, "map_replica_blocks", recording_map)
        assert cli.main(argv + ["--out", str(tmp_path / "new")]) == 0
        assert [x.tobytes() for x in samples] == [x.tobytes() for x in refs]
        # the artifacts written from the reference samples are the same bytes
        old = iter(refs)
        monkeypatch.setattr(cli, "map_replica_blocks", lambda *a, **k: next(old))
        assert cli.main(argv + ["--out", str(tmp_path / "old")]) == 0
        for name in ("config.json", "moments.csv", "report.json"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()

    def test_block_peak_does_not_grow_with_steps(self):
        # a block holds one step's noise for its replicas, not their history:
        # 64 replicas' 256-step history on 64 cells alone is 8 MB
        peaks = []
        for n_steps in (16, 256):
            block = solvers.pam_white_block(SpaceTimeGrid(TimeGrid(0.25, n_steps), 4.0, 64), 32)
            gen = RngStream(3).generator()
            block(gen, 64)  # the first call in a process also fills numpy's caches
            peaks.append(traced_peak(lambda: block(gen, 64)))
        assert peaks[1] < 1.25 * peaks[0]

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

    def test_march_rejects_two_dimensional_grid(self):
        grid2 = SpaceTimeGrid(TimeGrid(0.25, 4), 1.0, 4, dim=2)
        with pytest.raises(CapabilityError):
            solvers.pam_white_block(grid2, 0)(RngStream(0).generator(), 1)

    # an 8-cell grid: the index must be an integer in 0..7
    @pytest.mark.parametrize("ix", [
        pytest.param(-1, id="negative"),
        pytest.param(2.5, id="float"),
        pytest.param(8, id="n-cells"),
        pytest.param(True, id="boolean"),
    ])
    def test_pam_white_block_rejects_space_index(self, ix):
        with pytest.raises(InputError, match="space index"):
            solvers.pam_white_block(SpaceTimeGrid(TimeGrid(0.25, 4), 4.0, 8), ix)

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
        # time and are joined in block order. Each block draws its noise one
        # time step at a time into one 1 MB array, as the CLI does
        grid = SpaceTimeGrid(TimeGrid(0.5, 512), 6.0, 512)
        target = pam_second_moment_closed_form(0.5)
        block = solvers.pam_white_block(grid, 256)
        sq = map_replica_blocks(6 * 250, block, RngStream(56), block_size=250, threads=2) ** 2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - target) <= 3.0 * se + 0.05 * target


def dense_step_matrices(grid: SpaceTimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """(P, M) with M[x, y] = G(dt, x - y) on periodic displacements and P = M dx."""
    nx = grid.n_cells
    disp = (((np.arange(nx) + nx // 2) % nx) - nx // 2) * grid.dx
    kern = heat_kernel(grid.time.dt, disp, 1)
    m = kern[(np.arange(nx)[:, None] - np.arange(nx)[None, :]) % nx]
    return m * grid.dx, m


def rfft_wick_march(sampler: WickPamSampler, rng, n: int):
    """(tau, U1, U2) of the Wick march with the shared rFFT heat step
    ``solvers._heat_step`` in place of the sampler's dense circulant product:
    the march of version 0.2.4, kept as an oracle for the dense one."""
    grid = sampler.grid
    step = solvers._heat_step(grid)
    nt, nx, dx = grid.time.n_steps, grid.n_cells, grid.dx
    t_cov, s_cov = sampler.sampler.time_cov, sampler.sampler.space_cov
    idx = (np.arange(nx)[:, None] - np.arange(nx)[None, :]) % nx
    q = np.empty((nt, nx))
    c = solvers._heat_kernel_vector(grid, grid.time.dt)
    for j in range(nt):
        q[j] = np.einsum("yz,zy->y", c[idx], s_cov)
        c = step(c * dx)
    tau = np.zeros((nt, nx))
    for k in range(1, nt):
        tau[k] = t_cov[:k, k] @ q[k - 1 :: -1]
    w = sampler.sampler.sample_batch(rng, n)
    u1 = np.zeros((n, nx))
    u2 = np.zeros_like(u1)
    for k in range(nt):
        u1, u2 = step(u1 * dx + w[:, k]), step(u2 * dx + u1 * w[:, k] - tau[k])
    return tau, u1, u2


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
    def test_march_bit_identical_to_stepwise_reference(self, n_steps):
        # the in-place march over the sampler's steps, against one that builds
        # each level's step input afresh from w[:, k], step by step
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

    @pytest.mark.parametrize("grid, spec, n, rs", [
        # criterion 9: its grid, noise and first batch (this class's grid too)
        (GRID, SPEC, 500, (31, 0)),
        # the colored benchmark's full-size grid at its shortest time
        (SpaceTimeGrid(TimeGrid(0.1, 32), 4.0 * math.sqrt(0.1), 64),
         NoiseSpec.fractional_riesz(0.8, 0.3), 200, (5,)),
        # an odd cell count, where the rFFT has no Nyquist term
        (SpaceTimeGrid(TimeGrid(0.3, 8), 1.5, 13), NoiseSpec.fractional_riesz(0.65, 0.6),
         50, (6,)),
    ], ids=["criterion-9", "colored", "odd-cells"])
    def test_dense_march_matches_rfft_march(self, grid, spec, n, rs):
        sampler = WickPamSampler(grid, spec)
        tau, u1, u2 = rfft_wick_march(sampler, RngStream(*rs), n)
        f1, f2 = sampler.sample_chaos(RngStream(*rs), n)
        for got, want in ((sampler.tau, tau), (f1, u1), (f2, u2)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("nx", [13, 16, 64, 128])
    def test_dense_step_matches_rfft_step(self, nx):
        grid = SpaceTimeGrid(TimeGrid(0.25, 4), 2.0, nx)
        sampler = WickPamSampler(grid, self.SPEC)
        v = RngStream(nx).generator().standard_normal((3, 50, nx))
        want = solvers._heat_step(grid)(v)
        atol = 1e-14 * np.abs(want).max()
        # stacked rows, one (rows, nx) matrix and one row
        np.testing.assert_allclose(sampler._step(v), want, rtol=0, atol=atol)
        np.testing.assert_allclose(sampler._step(v[1]), want[1], rtol=0, atol=atol)
        np.testing.assert_allclose(sampler._step(v[1, 7]), want[1, 7], rtol=0, atol=atol)

    def test_second_moment_samples_at_least_chaos0(self):
        sampler = WickPamSampler(self.GRID, self.SPEC)
        sm = sampler.second_moment_samples(RngStream(99), 500)
        assert sm.shape == (500,)
        assert sm.mean() > 1.0  # chaos levels add nonnegative variance

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("replicas", [6 * 40, 5 * 40 + 13])
    def test_second_moment_blocks_bit_identical_to_serial_loop(self, threads, replicas):
        # the serial loop of criterion 9 and the colored benchmark, with a
        # short last block where the replicas are not a multiple of 40
        sampler = WickPamSampler(self.GRID, self.SPEC)
        serial = np.concatenate([
            sampler.second_moment_samples(RngStream(31, b), min(40, replicas - lo))
            for b, lo in enumerate(range(0, replicas, 40))
        ])
        pooled = sampler.second_moment_blocks(RngStream(31), replicas, 40, threads)
        assert pooled.tobytes() == serial.tobytes()

    def test_colored_plain_euler_drifts(self):
        # the adapted-product Euler scheme is not Wick-consistent for
        # time-correlated noise: its mean drifts above 1
        sampler = HomogeneousNoiseSampler(self.GRID, self.SPEC)
        w = sampler.sample_batch(RngStream(61), 2000)
        uf = solve_pam_euler(self.GRID, w)
        m = uf[:, 32]
        se = m.std(ddof=1) / math.sqrt(m.size)
        assert m.mean() - 1.0 > 5.0 * se
