"""Solution schemes: grid Ito sums, Picard iteration for SDEs and the 1-d
stochastic heat equation, stochastic convolution for the linear equation,
mild Euler marching and chaos series for the multiplicative (Anderson) model.

Discretization conventions, shared by every scheme here:

* integrands are evaluated at the *left* time endpoint of each cell (the
  adapted choice that makes discrete sums Ito/Walsh integrals),
* kernels are evaluated at cell centers (midpoint rule), so every cell with
  center before the evaluation time contributes and the kernel time lag is
  at least dt/2: the integrable singularity of G at vanishing lag is never
  sampled, only the trailing half-slab of the time integral is left out,
* space is truncated to [-L, L] with periodic wrap; for the heat kernel the
  wrap error is below 1e-14 once L >= 8 sqrt(T).

The Walsh stochastic convolution sum_(j<k) G((k-j-1/2) dt, .) (*) Phi[j]
behind the linear heat solution, its node samples and every Picard iterate
is evaluated by one causal convolution core, _LinearHeatKernels: an rFFT in
space and an FFT along time zero-padded to twice the number of steps, so the
causal Toeplitz sum never wraps. One pass costs O(nt log nt * nx) plus the
space transforms, in place of the O(nt^2 * nx) lag sum; the padded time
spectra are taken a chunk of spatial frequencies at a time.

Chaos-series closed forms. The multiplicative-noise chaos term of order n
for the 1-d heat model has variance (t/4)^(n/2) / Gamma(n/2 + 1); summing
gives the second moment 2 e^(t/4) Phi(sqrt(t/2)). (Deriving the term from
the simplex integral (4 pi)^(-n/2) * int [(t-t_n)...(t_2-t_1)]^(-1/2) via a
Dirichlet integral yields (t/4)^(n/2), the only normalization consistent
with that closed form; a commonly printed (t/2)^(n/2) variant does not sum
to it. The order-2 quadrature oracle in the tests pins this down.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError, InputError, NumericalError
from .field import Field
from .grids import SpaceTimeGrid
from .kernels import heat_kernel
from .noise import HomogeneousNoiseSampler, NoiseSpec
from .rng import (
    DEFAULT_BLOCK_SIZE,
    RngStream,
    as_generator,
    map_replica_blocks,
    replica_blocks,
    row_chunks,
)
from .special import HermiteTable, std_normal_cdf

# ---------------------------------------------------------------------------
# Lipschitz coefficients and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LipschitzFn:
    """Globally Lipschitz coefficient sigma with a known constant."""

    fn: object
    lipschitz_constant: float
    tag: str

    def __call__(self, x):
        return self.fn(x)

    @staticmethod
    def identity() -> "LipschitzFn":
        return LipschitzFn(lambda x: x, 1.0, "identity")

    @staticmethod
    def affine(a: float, b: float) -> "LipschitzFn":
        return LipschitzFn(lambda x: a * x + b, abs(a), f"affine({a},{b})")

    @staticmethod
    def bounded_smooth(name: str) -> "LipschitzFn":
        table = {"sin": (np.sin, 1.0), "tanh": (np.tanh, 1.0), "cos": (np.cos, 1.0)}
        if name not in table:
            raise CapabilityError(f"unknown bounded_smooth coefficient {name!r}")
        fn, c = table[name]
        return LipschitzFn(fn, c, f"bounded_smooth({name})")

    def check_constant(self, rng, trials: int = 256, scale: float = 10.0) -> bool:
        """Spot-check |sigma(x)-sigma(y)| <= C |x-y| on random pairs."""
        gen = as_generator(rng)
        x, y = gen.uniform(-scale, scale, (2, trials))
        lhs = np.abs(np.asarray(self.fn(x)) - np.asarray(self.fn(y)))
        return bool(np.all(lhs <= self.lipschitz_constant * np.abs(x - y) + 1e-12))


@dataclass
class PicardTrace:
    """Successive-difference record of a Picard iteration.

    sup_sq_diffs[m-1] estimates sup over grid points of
    E |X_m - X_(m-1)|^2 from the replica ensemble.
    """

    sup_sq_diffs: np.ndarray
    n_iter: int
    replicas: int
    final_sample: np.ndarray | None = None

    def __post_init__(self):
        d = np.asarray(self.sup_sq_diffs, dtype=float)
        if d.size and (not np.all(np.isfinite(d)) or np.any(d < 0)):
            raise InputError("successive differences must be finite and nonnegative")


@dataclass
class ChaosSeries:
    """Term variances and partial sums of a chaos expansion."""

    orders: np.ndarray
    term_variances: np.ndarray
    partial_sums: np.ndarray
    truncation_order: int
    closed_form: float | None = None

    def __post_init__(self):
        if np.any(np.asarray(self.term_variances) < 0):
            raise InputError("chaos term variances must be nonnegative")
        if np.any(np.diff(self.partial_sums) < 0):
            raise InputError("chaos partial sums must be nondecreasing")


# ---------------------------------------------------------------------------
# Ito sums and the SDE Picard scheme
# ---------------------------------------------------------------------------


def ito_sum(integrand_left: np.ndarray, increments: np.ndarray):
    """sum_k X(t_k) (B_(t_(k+1)) - B_(t_k)) along the last axis.

    ``integrand_left`` holds the adapted left-endpoint values, one per cell.
    """
    x = np.asarray(integrand_left, dtype=float)
    db = np.asarray(increments, dtype=float)
    if x.shape[-1] != db.shape[-1]:
        raise InputError(
            f"integrand has {x.shape[-1]} cells but increments have {db.shape[-1]}"
        )
    return np.sum(x * db, axis=-1)


def _ito_cumsum(phi: np.ndarray) -> np.ndarray:
    """Node values of the Ito sums of phi (R, nt): node 0 is 0, node k sums cells < k."""
    out = np.zeros((phi.shape[0], phi.shape[1] + 1) + phi.shape[2:])
    np.cumsum(phi, axis=1, out=out[:, 1:])
    return out


def _picard_trace(
    sigma, causal_sum, cells, scale, rng, n_iter, replicas, initial, block_size, threads
) -> PicardTrace:
    """Picard loop of the SDE and heat schemes, from u_0 = 0:

    u_(n+1) = causal_sum(sigma(u_n at left endpoints) * noise) + initial,

    one noise array of shape ``cells`` (time first) times ``scale`` per
    replica; ``causal_sum`` maps (R, nt, ...) integrands to (R, nt+1, ...)
    node values. Each replica block takes its replicas in ``rng.row_chunks``
    chunks through all ``n_iter`` iterations, drawing each chunk's noise in
    order from the block's generator, and adds every replica's squared
    successive differences, in replica order, into a block-local
    (n_iter, nodes) sum. It returns that sum with its first replica's final
    path, and the block sums are added in block order as they arrive. The
    blocks are fixed by ``block_size``, so the result does not depend on the
    thread count, and no per-replica array outlives a chunk.
    """
    if n_iter < 1:
        raise InputError(f"n_iter must be >= 1, got {n_iter}")
    nodes = (cells[0] + 1,) + cells[1:]

    def block(gen, count):
        sq_sum = np.zeros((n_iter,) + nodes)
        with np.errstate(over="ignore", invalid="ignore"):  # checked after the reduction
            # a chunk's noise, integrand and two iterates stay near rng.CHUNK_BYTES
            for lo, hi in row_chunks(count, 4 * 8 * math.prod(nodes)):
                noise = gen.standard_normal((hi - lo,) + cells)
                noise *= scale
                u_prev = np.zeros((hi - lo,) + nodes)
                for m in range(n_iter):
                    u_next = causal_sum(np.asarray(sigma(u_prev[:, :-1])) * noise)
                    u_next += initial
                    # fl(a - b) = -fl(b - a), so the square is that of u_next - u_prev
                    np.subtract(u_prev, u_next, out=u_prev)
                    np.square(u_prev, out=u_prev)
                    for sq in u_prev:
                        sq_sum[m] += sq
                    u_prev = u_next
                if lo == 0:
                    first = u_prev[0].copy()
        return sq_sum, first

    sq_sum = np.zeros((n_iter,) + nodes)
    for start, (block_sum, first) in replica_blocks(replicas, block, rng, block_size, threads):
        if start == 0:
            final = first
        sq_sum += block_sum
    diffs = (sq_sum / replicas).reshape(n_iter, -1).max(axis=1)
    if not np.all(np.isfinite(diffs)):
        raise NumericalError(
            f"squared successive differences are not finite: {diffs.tolist()}; "
            "sigma or the initial value overflows float64"
        )
    return PicardTrace(diffs, n_iter, replicas, final_sample=final)


def solve_sde_picard(
    sigma: LipschitzFn,
    grid,
    rng: RngStream,
    n_iter: int,
    replicas: int,
    initial: float = 0.0,
    block_size: int = DEFAULT_BLOCK_SIZE,
    threads: int = 1,
) -> PicardTrace:
    """Picard scheme X_(n+1)(t) = initial + int_0^t sigma(X_n) dB, X_0 = 0.

    All iterates of one replica share a single Brownian path; the trace
    records, for each iterate, the maximum over grid nodes of the replica
    average of the squared successive difference. The multiplicative model
    (sigma(x) = x) needs ``initial=1``: with zero initial value its unique
    solution is identically zero and every iterate vanishes.
    """
    return _picard_trace(
        sigma, _ito_cumsum, (grid.n_steps,), math.sqrt(grid.dt),
        rng, n_iter, replicas, initial, block_size, threads,
    )


def geometric_bm(times: np.ndarray, path: np.ndarray) -> np.ndarray:
    """exp(B_t - t/2), the multiplicative-noise SDE solution with X(0)=1."""
    return np.exp(np.asarray(path) - np.asarray(times) / 2.0)


def geometric_fbm(times: np.ndarray, path: np.ndarray, hurst: float) -> np.ndarray:
    """exp(B^H_t - t^(2H)/2), its fractional counterpart (H > 1/2)."""
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"Hurst index must lie in (0,1), got {hurst}")
    t = np.asarray(times, dtype=float)
    return np.exp(np.asarray(path) - t ** (2.0 * hurst) / 2.0)


_CHAOS_TABLE = HermiteTable(200)


def chaos_geometric_partials(
    t: float, endpoint: float, n_terms: int, kind: str = "bm", hurst: float | None = None
) -> np.ndarray:
    """Partial sums of the geometric chaos series, orders 0..n_terms."""
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    if n_terms < 0 or n_terms > 200:
        raise InputError(f"n_terms must lie in [0, 200], got {n_terms}")
    if kind == "bm":
        s = math.sqrt(t)
    elif kind == "fbm":
        if hurst is None or not 0.5 < hurst < 1.0:
            raise DomainError(f"fbm chaos needs H in (1/2,1), got {hurst}")
        s = t**hurst
    else:
        raise CapabilityError(f"chaos_geometric kinds are 'bm' and 'fbm', got {kind!r}")
    mant, exp2 = _CHAOS_TABLE.values_scaled(n_terms, endpoint / s)
    partials = np.empty(n_terms + 1)
    partials[0] = total = 1.0
    ratio = 1.0  # s^n / n!
    try:
        for n in range(1, n_terms + 1):
            ratio *= s / n
            total += math.ldexp(ratio * float(mant[n]), int(exp2[n]))
            partials[n] = total
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise NumericalError(f"geometric chaos partial sums overflow at t={t}, endpoint={endpoint}")
    return partials


def chaos_geometric(
    t: float, endpoint: float, n_terms: int, kind: str = "bm", hurst: float | None = None
) -> float:
    """Truncated Hermite chaos series of the geometric BM / geometric fBm.

    1 + sum_(n<=N) s^n / n! H_n(endpoint / s) with s = sqrt(t) for Brownian
    motion and s = t^H for fBm; the full series sums to
    exp(endpoint - s^2 / 2).
    """
    return float(chaos_geometric_partials(t, endpoint, n_terms, kind, hurst)[-1])


# ---------------------------------------------------------------------------
# periodic heat-kernel machinery
# ---------------------------------------------------------------------------


def _periodic_displacements(grid: SpaceTimeGrid) -> np.ndarray:
    n = grid.n_cells
    m = np.arange(n)
    return (((m + n // 2) % n) - n // 2) * grid.dx


def _heat_kernel_vector(grid: SpaceTimeGrid, s: float) -> np.ndarray:
    """Heat kernel sampled at nearest-image periodic displacements."""
    return heat_kernel(s, _periodic_displacements(grid), 1)


def _lagged_heat_kernels(grid: SpaceTimeGrid) -> np.ndarray:
    """g[0] = 0, g[m] = G((m-1/2) dt, periodic displacements), m = 1..nt."""
    nt, dt = grid.time.n_steps, grid.time.dt
    g = np.zeros((nt + 1, grid.n_cells))
    for m in range(1, nt + 1):
        g[m] = _heat_kernel_vector(grid, (m - 0.5) * dt)
    return g


class _LinearHeatKernels:
    """Causal space-time convolution with the midpoint-lagged heat kernel.

    For a cell-indexed integrand phi (time rows j = 0..nt-1) it evaluates

        u[k] = sum_(j<k) G((k-j-1/2) dt, .) (*) phi[j],   k = 0..nt,

    with (*) the periodic convolution over the space cells. The kernel
    sequence g[0] = 0, g[m] = G((m-1/2) dt, .) turns this into one causal
    Toeplitz convolution in time, evaluated by an rFFT in space and an FFT
    along time zero-padded to 2 nt, the shortest length at which the causal
    sums do not wrap. Cost per pass: O(nt log nt * nx + nt * nx log nx)
    instead of the O(nt^2 * nx) lag sum.
    """

    def __init__(self, grid: SpaceTimeGrid):
        if grid.dim != 1:
            raise CapabilityError("linear heat solver supports d = 1 only")
        g = _lagged_heat_kernels(grid)
        # time axis last: shape (n_cells // 2 + 1, 2 nt)
        self.spectrum = np.fft.fft(np.fft.rfft(g, axis=1).T, n=2 * grid.time.n_steps, axis=1)

    def convolve(self, phi: np.ndarray, rows) -> np.ndarray:
        """u at the time nodes ``rows`` for integrands phi of shape (R, nt, nx).

        Returns shape (R, len(rows), nx); node 0 is exactly zero. Replicas go
        through in ``rng.row_chunks`` chunks (at least two replicas' worth),
        and each chunk's padded time FFT, product with the kernel spectrum and
        inverse FFT run over ``row_chunks`` of its spatial frequencies, so the
        padded spectra held at once stay near ``rng.CHUNK_BYTES``. Every
        time-FFT line is transformed on its own, so the split leaves the bits
        as one whole-spectrum pass would.
        """
        rows = np.asarray(rows, dtype=int)
        count, nt, nx = phi.shape
        nf, n_fft = self.spectrum.shape
        out = np.empty((count, rows.size, nx))
        for lo, hi in row_chunks(count, 16 * nf * n_fft):
            space = np.fft.rfft(phi[lo:hi], axis=2).transpose(0, 2, 1)  # (c, nf, nt)
            parts = []
            for a, b in row_chunks(nf, 16 * (hi - lo) * n_fft):
                spec = np.zeros((hi - lo, b - a, n_fft), dtype=complex)
                spec[:, :, :nt] = space[:, a:b]
                np.fft.fft(spec, axis=2, out=spec)
                spec *= self.spectrum[a:b]
                np.fft.ifft(spec, axis=2, out=spec)
                parts.append(spec[:, :, rows])
            # a whole spectrum in one chunk (Picard's grid) is used without a copy
            picked = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            np.fft.irfft(picked.transpose(0, 2, 1), n=nx, axis=2, out=out[lo:hi])
        out[:, rows == 0] = 0.0
        return out


def solve_linear_heat_1d(grid: SpaceTimeGrid, noise: Field) -> Field:
    """Stochastic convolution with zero initial data,

        u(t_k, x) = sum over cells with center before t_k of
                    G((k-j-1/2) dt, x - y_c) W(cell_(j,y)),

    evaluated by the causal FFT convolution core.
    """
    if noise.grid != grid:
        raise InputError("noise field was sampled on a different grid")
    if noise.on_nodes:
        raise InputError("noise must be cell-indexed")
    kernels = _LinearHeatKernels(grid)
    nt = grid.time.n_steps
    u = kernels.convolve(noise.values[None], np.arange(nt + 1))[0]
    return Field(grid, u)


def linear_heat_point_weights(grid: SpaceTimeGrid, k: int, ix: int) -> np.ndarray:
    """Weights A with u(t_k, x_ix) = sum over cells A[j, i] W[j, i]."""
    if grid.dim != 1:
        raise CapabilityError("linear heat solver supports d = 1 only")
    nt = grid.time.n_steps
    if not 0 <= k <= nt:
        raise InputError(f"time index {k} outside 0..{nt}")
    # row j < k holds g[k - j], centred on x_ix
    a = np.zeros((nt, grid.n_cells))
    a[:k] = np.roll(_lagged_heat_kernels(grid)[k:0:-1], ix, axis=1)
    return a


def linear_heat_point_variance(grid: SpaceTimeGrid, k: int, ix: int) -> float:
    """Exact variance of the discrete stochastic convolution at one node."""
    a = linear_heat_point_weights(grid, k, ix)
    return float(np.sum(a * a) * grid.cell_volume)


def linear_heat_point_samples(
    grid: SpaceTimeGrid,
    k: int,
    ix: int,
    replicas: int,
    rng: RngStream,
    block_size: int = DEFAULT_BLOCK_SIZE,
    threads: int = 1,
) -> np.ndarray:
    """Monte Carlo samples of u(t_k, x_ix) under fresh white noise per replica.

    Equivalent to running solve_linear_heat_1d on each replica's sheet and
    reading off the node, without materializing the fields.
    """
    a = linear_heat_point_weights(grid, k, ix)
    scale = math.sqrt(grid.cell_volume)

    def block(gen, count):
        # one chunk of sheets at a time, drawn in order from the block's generator
        out = np.empty(count)
        for lo, hi in row_chunks(count, a.nbytes):
            z = gen.standard_normal((hi - lo,) + a.shape)
            out[lo:hi] = np.tensordot(z, a, axes=((1, 2), (0, 1)))
        return scale * out

    return map_replica_blocks(replicas, block, rng, block_size, threads)


def linear_heat_node_chunks(grid: SpaceTimeGrid, node_indices: np.ndarray):
    """The chunked sampler behind ``linear_heat_node_samples``.

    Returns ``chunks(gen, count)``, a generator over ``(lo, hi, u)``: it
    draws the white-noise sheets of replicas lo..hi-1 of a block of
    ``count``, one ``rng.row_chunks`` chunk at a time in order from the
    block's generator, and yields u at the nodes, shape (hi - lo,
    len(nodes), nx). Block functions that reduce each chunk as it comes
    hold no per-replica array beyond one chunk.
    """
    nodes = np.asarray(node_indices, dtype=int)
    nt, nx = grid.time.n_steps, grid.n_cells
    if np.any(nodes < 0) or np.any(nodes > nt):
        raise InputError("node indices outside the grid")
    kernels = _LinearHeatKernels(grid)
    scale = math.sqrt(grid.cell_volume)

    def chunks(gen, count):
        for lo, hi in row_chunks(count, 8 * nt * nx):
            w = gen.standard_normal((hi - lo, nt, nx))
            w *= scale
            yield lo, hi, kernels.convolve(w, nodes)

    return chunks


def linear_heat_node_samples(
    grid: SpaceTimeGrid,
    node_indices: np.ndarray,
    replicas: int,
    rng: RngStream,
    block_size: int = 64,
    threads: int = 1,
) -> np.ndarray:
    """Samples of u at several time nodes, all x: shape (R, len(nodes), nx).

    Each replica block draws and convolves one chunk of sheets at a time
    (``linear_heat_node_chunks``), without the full field history.
    """
    chunks = linear_heat_node_chunks(grid, node_indices)
    shape = (np.size(node_indices), grid.n_cells)

    def block(gen, count):
        out = np.empty((count,) + shape)
        for lo, hi, u in chunks(gen, count):
            out[lo:hi] = u
        return out

    return map_replica_blocks(replicas, block, rng, block_size, threads)


def solve_nonlinear_heat_picard(
    sigma: LipschitzFn,
    grid: SpaceTimeGrid,
    rng: RngStream,
    n_iter: int,
    replicas: int,
    initial: float = 0.0,
    block_size: int = DEFAULT_BLOCK_SIZE,
    threads: int = 1,
) -> PicardTrace:
    """Picard scheme for the 1-d nonlinear stochastic heat equation.

    u_(n+1)(t_k, x) = initial + sum over lagged cells of
    G((k-j-1/2) dt, x - y) sigma(u_n(t_j, y)) W(cell_(j,y)), with sigma
    evaluated at left time endpoints and one shared sheet per replica.
    As for the SDE scheme, the multiplicative coefficient sigma(x) = x is
    only non-degenerate with ``initial=1`` (the Anderson-model setup).
    """
    kernels = _LinearHeatKernels(grid)
    nodes = np.arange(grid.time.n_steps + 1)
    return _picard_trace(
        sigma, lambda phi: kernels.convolve(phi, nodes), grid.cell_shape(),
        math.sqrt(grid.cell_volume), rng, n_iter, replicas, initial, block_size, threads,
    )


# ---------------------------------------------------------------------------
# multiplicative heat model: chaos series and Euler marching
# ---------------------------------------------------------------------------


def pam_chaos_term_variance(n: int, t: float) -> float:
    """Variance (t/4)^(n/2) / Gamma(n/2 + 1) of the order-n chaos term."""
    if n < 1:
        raise DomainError(f"chaos order must be >= 1, got {n}")
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    quarter = t / 4.0
    # log t - log 4 only where t / 4 underflows, so every other t keeps its bits
    log_quarter = math.log(quarter) if quarter > 0 else math.log(t) - math.log(4.0)
    try:
        return math.exp(0.5 * n * log_quarter - math.lgamma(0.5 * n + 1.0))
    except OverflowError:
        raise NumericalError(f"chaos term variance of order {n} overflows at t={t}") from None


def pam_second_moment_closed_form(t: float) -> float:
    """2 e^(t/4) Phi(sqrt(t/2))."""
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    try:
        return 2.0 * math.exp(t / 4.0) * std_normal_cdf(math.sqrt(t / 2.0))
    except OverflowError:
        raise NumericalError(f"closed-form second moment overflows at t={t}") from None


def pam_log_second_moment(t: float) -> float:
    """log of the closed form, stable for large t (no exponential overflow)."""
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    return t / 4.0 + math.log(2.0 * std_normal_cdf(math.sqrt(t / 2.0)))


def pam_truncation_order(t: float, tol: float = 1e-12) -> int:
    """Smallest N with chaos tail below tol, from the Gamma denominator."""
    n = 1
    term = pam_chaos_term_variance(n, t)
    while True:
        # once terms decay geometrically by at least 1/2, tail <= 2 * next term
        nxt = pam_chaos_term_variance(n + 1, t)
        if nxt < term and nxt / (1.0 - nxt / term) < tol / 2.0:
            return n + 1
        term = nxt
        n += 1
        if n > 10_000:
            raise InputError(f"no truncation below tol={tol} within 10000 terms")


def pam_second_moment(t: float, n_terms: int) -> tuple[float, float]:
    """(partial sum 1 + sum of term variances, closed form)."""
    partial = 1.0 + sum(pam_chaos_term_variance(n, t) for n in range(1, n_terms + 1))
    return partial, pam_second_moment_closed_form(t)


def pam_chaos_series(t: float, n_terms: int) -> ChaosSeries:
    if n_terms < 0:
        raise InputError(f"n_terms must be >= 0, got {n_terms}")
    orders = np.arange(0, n_terms + 1)
    variances = np.array(
        [0.0] + [pam_chaos_term_variance(n, t) for n in range(1, n_terms + 1)]
    )
    variances[0] = 1.0  # order-0 term is the constant 1
    return ChaosSeries(
        orders=orders,
        term_variances=variances,
        partial_sums=np.cumsum(variances),
        truncation_order=n_terms,
        closed_form=pam_second_moment_closed_form(t),
    )


def _heat_step(grid: SpaceTimeGrid):
    """One periodic heat step v -> sum_y G(dt, x-y) v(y) along the last axis, by rFFT."""
    kern_hat = np.fft.rfft(_heat_kernel_vector(grid, grid.time.dt))
    nx = grid.n_cells
    return lambda v: np.fft.irfft(kern_hat * np.fft.rfft(v, axis=-1), n=nx, axis=-1)


def solve_pam_euler(grid: SpaceTimeGrid, noise: np.ndarray, initial: float = 1.0) -> np.ndarray:
    """Mild Euler marching for the multiplicative heat model, u(0, .) = initial:

    u(t_(k+1), x) = sum_y G(dt, x-y) [ u(t_k, y) dx + u(t_k, y) W(cell_(k,y)) ]

    with periodic wrap at +-L. ``noise`` is a batch of cell-mass sheets of
    shape (R, n_steps, n_cells); the result is the final-time values, shape
    (R, n_cells). For white-in-time noise the adapted product makes this an
    Ito scheme. For time-correlated noise the same product picks up the
    noise's interaction with the past (a Stratonovich-type trace), so
    moments drift above the Wick-product solution's; use WickPamSampler for
    moment comparisons against Wick-calculus formulas.
    """
    if grid.dim != 1:
        raise CapabilityError("mild Euler marching supports d = 1 only")
    w = np.asarray(noise)
    if w.shape[1:] != grid.cell_shape():
        raise InputError(
            f"noise sheets have shape {w.shape[1:]}, the grid needs {grid.cell_shape()}"
        )
    step = _heat_step(grid)
    u = np.full((w.shape[0], grid.n_cells), float(initial))
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        for k in range(grid.time.n_steps):
            u = step(u * (grid.dx + w[:, k]))
    if not np.all(np.isfinite(u)):
        raise NumericalError("mild Euler marching overflows")
    return u


class WickPamSampler:
    """Truncated Wick-chaos marching for the multiplicative heat model with
    time-correlated homogeneous noise.

    Carries the chaos levels U1 (linear) and U2 separately; the U2 update
    subtracts the deterministic trace tau(k, y) = sum over past cells of
    (influence kernel of U1) * Cov(past cell, current cell), which is
    exactly what keeps E[U2] = 0 and the levels orthogonal. The resulting
    1 + U1 + U2 is the chaos-order-2 part of the Wick (Skorohod-type)
    solution, whose second moment matches Wick-calculus moment formulas up
    to the chaos tail; the plain adapted product in solve_pam_euler does
    not converge to that solution when the noise is correlated in time.
    Both levels march with the same rFFT heat step as solve_pam_euler.
    """

    def __init__(self, grid: SpaceTimeGrid, spec: NoiseSpec):
        if grid.dim != 1:
            raise CapabilityError("Wick chaos marching supports d = 1 only")
        self.grid = grid
        self.sampler = HomogeneousNoiseSampler(grid, spec)
        self._step = _heat_step(grid)
        nt, nx = grid.time.n_steps, grid.n_cells
        t_cov, s_cov = self.sampler.time_cov, self.sampler.space_cov
        # the influence of a past cell j steps back is the circulant of
        # c_j = dx^j G(dt, .)^(*(j+1)); q[j, y] = sum_z c_j[(y-z) mod nx] S[z, y]
        idx = (np.arange(nx)[:, None] - np.arange(nx)[None, :]) % nx
        q = np.empty((nt, nx))
        c = _heat_kernel_vector(grid, grid.time.dt)
        for j in range(nt):
            q[j] = np.einsum("yz,zy->y", c[idx], s_cov)
            c = self._step(c * grid.dx)
        self.tau = np.zeros((nt, nx))
        for k in range(1, nt):
            # tau[k, y] = sum_(m<k) T[m, k] q[k-1-m, y]
            self.tau[k] = t_cov[:k, k] @ q[k - 1 :: -1]

    def sample_chaos(self, rng, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(U1, U2) at the final time node, each of shape (n, n_cells)."""
        w = self.sampler.sample_batch(rng, n)
        dx = self.grid.dx
        u1 = np.zeros((n, self.grid.n_cells))
        u2 = np.zeros_like(u1)
        # the sampler's einsum leaves space outermost and time innermost in
        # memory, so w[:, k] is a strided gather; a time-major copy of 8 steps
        # at a time (one cache line per replica and cell) makes each step
        # contiguous without a second whole-batch array, which kept RSS up
        for k0 in range(0, self.grid.time.n_steps, 8):
            steps = np.ascontiguousarray(w[:, k0 : k0 + 8].transpose(1, 0, 2))
            for k, w_k in enumerate(steps, k0):
                u2 = self._step(u2 * dx + u1 * w_k - self.tau[k])
                u1 = self._step(u1 * dx + w_k)
        return u1, u2

    def second_moment_samples(self, rng, n: int):
        """Per-replica spatial averages of (1 + U1 + U2)^2 over the center half."""
        u1, u2 = self.sample_chaos(rng, n)
        nx = self.grid.n_cells
        lo, hi = int(nx * 0.25), int(nx * 0.75)
        vals = (1.0 + u1[:, lo:hi] + u2[:, lo:hi]) ** 2
        return vals.mean(axis=1)
