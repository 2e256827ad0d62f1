"""Solution schemes: grid Ito sums, Picard iteration for the 1-d stochastic
heat equation, stochastic convolution for the linear equation, mild Euler
marching and chaos series for the multiplicative (Anderson) model.

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
space and an FFT along time, zero-padded to the shortest length at which
the causal sums at the nodes it serves do not wrap (2 nt for nodes 0..nt).
One pass costs O(nt log nt * nx) plus the space transforms, in place of
the O(nt^2 * nx) lag sum. Its kernel spectrum is built in place, one lag
at a time. One time pass per replica block, taken a chunk of spatial
frequencies at a time, turns space spectra into node values: Picard hands
it the rFFT of a chunk of integrands, and the node sampler one replica's
spectrum, rFFTed one time slab at a time as the sheet is drawn up to the
last node, so no whole sheet is ever held.

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
from .grids import SpaceTimeGrid
from .kernels import heat_kernel
from .noise import HomogeneousNoiseSampler, NoiseSpec
from .rng import (
    DEFAULT_BLOCK_SIZE,
    RngStream,
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
# Ito sums and the Picard loop
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


def _picard_trace(
    sigma, causal_sum_for, cells, scale, rng, n_iter, replicas, initial, block_size, threads
) -> PicardTrace:
    """Picard loop over replica blocks, from u_0 = 0:

    u_(n+1) = causal_sum(sigma(u_n at left endpoints) * noise) + initial,

    one noise array of shape ``cells`` (time first) times ``scale`` per
    replica; ``causal_sum_for(rows)``, called once per block, returns the
    ``causal_sum(phi, out)`` that writes the (R, nt+1, ...) node values of
    (R <= rows, nt, ...) integrands into ``out``. Each replica block takes
    its replicas in ``rng.row_chunks`` chunks through all ``n_iter``
    iterations, drawing each chunk's noise in order from the block's
    generator, and adds every replica's squared successive differences, in
    replica order, into a block-local (n_iter, nodes) sum. One noise, one
    integrand, two iterate arrays and one causal sum serve every chunk and
    iteration of a block. When sigma(u_0) is all zero, u_1 is written as
    ``initial + 0.0``, the sum of signed zeros plus ``initial`` unless
    ``initial`` is -0.0. A block returns its sum with its first replica's
    final path, and the block sums are added in block order as they
    arrive. The blocks are fixed by ``block_size``, so the result does not
    depend on the thread count. The heat scheme passes the causal
    convolution core; an Ito cumulative sum over (nt,) cells is the SDE
    scheme.
    """
    if n_iter < 1:
        raise InputError(f"n_iter must be >= 1, got {n_iter}")
    nodes = (cells[0] + 1,) + cells[1:]
    # -0.0 + (+-0) keeps the zero's sign, any other initial value does not
    skip_zero_pass = initial != 0 or math.copysign(1.0, initial) > 0

    def block(gen, count):
        sq_sum = np.zeros((n_iter,) + nodes)
        # a chunk's noise, integrand and two iterates stay near rng.CHUNK_BYTES
        chunks = row_chunks(count, 4 * 8 * math.prod(nodes))
        rows = max(hi - lo for lo, hi in chunks)
        causal_sum = causal_sum_for(rows)
        noise_buf = np.empty((rows,) + cells)
        phi_buf = np.empty_like(noise_buf)
        iterates = np.empty((2, rows) + nodes)
        with np.errstate(over="ignore", invalid="ignore"):  # checked after the reduction
            for lo, hi in chunks:
                noise, phi = noise_buf[: hi - lo], phi_buf[: hi - lo]
                gen.standard_normal(out=noise)
                noise *= scale
                u_prev, u_next = iterates[:, : hi - lo]
                u_prev.fill(0.0)
                for m in range(n_iter):
                    s = sigma(u_prev[:, :-1])
                    if m == 0 and skip_zero_pass and not np.any(s):
                        u_next.fill(initial + 0.0)
                    else:
                        np.multiply(s, noise, out=phi)
                        causal_sum(phi, u_next)
                        u_next += initial
                    # fl(a - b) = -fl(b - a), so the square is that of u_next - u_prev
                    np.subtract(u_prev, u_next, out=u_prev)
                    np.square(u_prev, out=u_prev)
                    for sq in u_prev:
                        sq_sum[m] += sq
                    u_prev, u_next = u_next, u_prev
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


def _five_smooth_at_least(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length the FFT splits into small radices."""
    m = max(n, 1)
    while m // math.gcd(m, 30**64) > 1:  # a prime factor above 5 is left
        m += 1
    return m


class _LinearHeatKernels:
    """Causal space-time convolution with the midpoint-lagged heat kernel.

    For a cell-indexed integrand phi (time rows j = 0..nt-1) it evaluates

        u[k] = sum_(j<k) G((k-j-1/2) dt, .) (*) phi[j],   first <= k <= last,

    with (*) the periodic convolution over the space cells. The kernel
    sequence g[0] = 0, g[m] = G((m-1/2) dt, .) turns this into one causal
    Toeplitz convolution in time, evaluated by an rFFT in space and an FFT
    along time. The nodes read only the rows j < last and the lags
    0..last, and the time FFT is zero-padded to n_fft = min(2 nt, the
    smallest 5-smooth length > last and >= 2 last - first), the shortest
    at which the circular sums at nodes first..last do not wrap: a term
    j + m >= n_fft lands at j + m - n_fft <= 2 last - 1 - n_fft < first.
    The default window 0..nt keeps 2 nt. Cost per pass: O(n_fft log n_fft
    * nx + last * nx log nx) instead of the O(nt^2 * nx) lag sum.
    """

    def __init__(self, grid: SpaceTimeGrid, first: int = 0, last: int | None = None):
        if grid.dim != 1:
            raise CapabilityError("linear heat solver supports d = 1 only")
        nt, dt = grid.time.n_steps, grid.time.dt
        self.last = nt if last is None else last
        n_fft = min(2 * nt, _five_smooth_at_least(max(2 * self.last - first, self.last + 1)))
        # time axis last, shape (n_cells // 2 + 1, n_fft), built in place: column
        # m <= last takes the space rFFT of g[m] (g[0]'s too, for its signed
        # zeros), the rest is the time padding; then one in-place time FFT
        self.spectrum = np.zeros((grid.n_cells // 2 + 1, n_fft), dtype=complex)
        for m in range(self.last + 1):
            g_m = _heat_kernel_vector(grid, (m - 0.5) * dt) if m else np.zeros(grid.n_cells)
            np.fft.rfft(g_m, out=self.spectrum[:, m])
        np.fft.fft(self.spectrum, axis=1, out=self.spectrum)

    def causal_sum(self, count: int, rows: np.ndarray, nx: int):
        """``run(phi, out)``: u at the time nodes ``rows`` for integrands phi of
        shape (c, last, nx), c <= count, written into ``out``, shape
        (c, len(rows), nx); node 0 is exactly zero. phi's rFFT in space goes
        into one (count, last, nf) buffer and through one ``time_pass``, both
        allocated here, once, for every call."""
        space = np.empty((count, self.last, self.spectrum.shape[0]), dtype=complex)
        time_pass = self.time_pass(count, rows, nx)

        def run(phi: np.ndarray, out: np.ndarray) -> np.ndarray:
            c = phi.shape[0]
            np.fft.rfft(phi, axis=2, out=space[:c])
            time_pass(space[:c], out)
            return out

        return run

    def time_pass(self, count: int, rows: np.ndarray, nx: int):
        """``run(space, out)``: u at the time nodes ``rows`` from space spectra
        of shape (c, last, nf), c <= count, into out, shape (c, len(rows), nx).

        The padded time FFT, the product with the kernel spectrum and the
        inverse FFT run over ``row_chunks`` of the spatial frequencies in one
        buffer, so the padded spectra held at once stay near
        ``rng.CHUNK_BYTES``; the nodes of each chunk are gathered into one
        (c, nf, len(rows)) array, whose inverse rFFT is ``out``. Both arrays
        are allocated here, once, and reused by every call. Every FFT line is
        transformed on its own, so neither the split nor c changes the bits
        of a line.
        """
        nf, n_fft = self.spectrum.shape
        freq_chunks = row_chunks(nf, 16 * count * n_fft)
        spec_buf = np.empty((count, max(b - a for a, b in freq_chunks), n_fft), dtype=complex)
        picked = np.empty((count, nf, rows.size), dtype=complex)
        at_zero = rows == 0

        def run(space: np.ndarray, out: np.ndarray) -> None:
            c = space.shape[0]
            for a, b in freq_chunks:
                spec = spec_buf[:c, : b - a]
                spec[:, :, : self.last] = space[:, :, a:b].transpose(0, 2, 1)
                spec[:, :, self.last :] = 0.0
                np.fft.fft(spec, axis=2, out=spec)
                spec *= self.spectrum[a:b]
                np.fft.ifft(spec, axis=2, out=spec)
                picked[:c, a:b] = spec[:, :, rows]
            np.fft.irfft(picked[:c].transpose(0, 2, 1), n=nx, axis=2, out=out)
            out[:, at_zero] = 0.0

        return run


def _grid_indices(values, stop: int, ndim: int, what: str) -> np.ndarray:
    """``values`` as an int array of ``ndim`` (0 or 1) dimensions inside 0..stop-1.

    The one index rule of the linear heat samplers: booleans, floats, other
    shapes and indices outside the grid raise InputError instead of being
    truncated, wrapped or read as a mask.
    """
    idx = np.asarray(values)
    if idx.dtype.kind not in "iu" or idx.ndim != ndim:
        shape = "an integer" if ndim == 0 else "a 1-d list of integers"
        raise InputError(f"{what} must be {shape}, got {values!r}")
    if np.any(idx < 0) or np.any(idx >= stop):
        raise InputError(f"{what} {values!r} outside 0..{stop - 1}")
    return idx.astype(int)


def linear_heat_point_weights(grid: SpaceTimeGrid, k: int, ix: int) -> np.ndarray:
    """Weights A with u(t_k, x_ix) = sum over cells A[j, i] W[j, i]."""
    if grid.dim != 1:
        raise CapabilityError("linear heat solver supports d = 1 only")
    nt = grid.time.n_steps
    k = int(_grid_indices(k, nt + 1, 0, "time index"))
    ix = int(_grid_indices(ix, grid.n_cells, 0, "space index"))
    # row j < k holds g[k - j], centred on x_ix
    a = np.zeros((nt, grid.n_cells))
    a[:k] = np.roll(_lagged_heat_kernels(grid)[k:0:-1], ix, axis=1)
    return a


def linear_heat_point_variance(grid: SpaceTimeGrid, k: int, ix: int) -> float:
    """Exact variance of the discrete stochastic convolution at one node."""
    a = linear_heat_point_weights(grid, k, ix)
    return float(np.sum(a * a) * grid.cell_volume)


_DROPPED_SHARE = 2.0**-53


def _kept_cells(a: np.ndarray) -> np.ndarray:
    """Row-major flat indices of the cells of ``a`` that the point sampler draws:
    all but the smallest squared weights whose running sum, in ascending
    order, stays at most _DROPPED_SHARE of sum a^2. Zero weights are always
    dropped, so an all-zero ``a`` keeps nothing."""
    sq = np.square(a.ravel())
    order = np.argsort(sq, kind="stable")
    n_dropped = np.searchsorted(np.cumsum(sq[order]), _DROPPED_SHARE * sq.sum(), "right")
    kept = np.ones(sq.size, dtype=bool)
    kept[order[:n_dropped]] = False
    return np.flatnonzero(kept)


def linear_heat_point_samples(
    grid: SpaceTimeGrid,
    k: int,
    ix: int,
    replicas: int,
    rng: RngStream,
    block_size: int = DEFAULT_BLOCK_SIZE,
    threads: int = 1,
) -> np.ndarray:
    """Monte Carlo samples of u(t_k, x_ix) = sum A W under fresh white noise per replica.

    A holds ``linear_heat_point_weights``, and only a fixed kept set of cells is
    drawn: the smallest squared weights are dropped while their running sum
    stays at most a fixed 2^-53 of sum A^2, so the kept cells carry the variance to
    rounding (about half the cells at criterion 7's node). Each ``row_chunks``
    chunk of a block draws (rows, n_kept) normals, in row-major cell order, and
    dots them with the packed weights, whatever the thread count; at k = 0 every
    sample is 0.0. This redrew every seeded point sample; no CLI command calls
    the sampler, so no CLI artifact changed.
    """
    a = linear_heat_point_weights(grid, k, ix)
    w = a.ravel()[_kept_cells(a)]
    scale = math.sqrt(grid.cell_volume)

    def block(gen, count):
        out = np.zeros(count)
        if not w.size:
            return out
        chunks = row_chunks(count, w.nbytes)
        z = np.empty((max(hi - lo for lo, hi in chunks), w.size))
        for lo, hi in chunks:
            np.dot(gen.standard_normal(out=z[: hi - lo]), w, out=out[lo:hi])
        out *= scale
        return out

    return map_replica_blocks(replicas, block, rng, block_size, threads)


def linear_heat_node_chunks(grid: SpaceTimeGrid, node_indices: np.ndarray):
    """The chunked sampler behind ``linear_heat_node_samples``.

    Returns ``chunks(gen, count)``, a generator over ``(lo, hi, u)``: u is
    the field at the nodes for replicas lo..hi-1 of a block of ``count``,
    shape (hi - lo, len(nodes), nx), one ``rng.row_chunks`` chunk of
    replicas at a time. The nodes read only the noise rows below the last
    node, so each replica's sheet is drawn only that far, in order from the
    block's generator, in ``row_chunks`` time slabs into one reused slab,
    scaled, and rFFTed into one reused (last, nf) space spectrum; the time
    pass of a core sized to the nodes turns that spectrum into the
    replica's rows of u. The draws are those of one (count, last, nx) draw,
    and a block holds one slab, one spectrum, one time-pass workspace and
    one chunk of u, never a whole sheet. Node indices are integers in
    0..nt, in any order, repeats allowed.
    """
    nt, nx = grid.time.n_steps, grid.n_cells
    nodes = _grid_indices(node_indices, nt + 1, 1, "node indices")
    kernels = _LinearHeatKernels(grid, int(nodes.min()), int(nodes.max()))
    scale = math.sqrt(grid.cell_volume)
    slabs = row_chunks(kernels.last, 8 * nx)

    def chunks(gen, count):
        slab_buf = np.empty((max(b - a for a, b in slabs), nx))
        space = np.empty((1, kernels.last, kernels.spectrum.shape[0]), dtype=complex)
        time_pass = kernels.time_pass(1, nodes, nx)
        for lo, hi in row_chunks(count, 8 * nt * nx):
            u = np.empty((hi - lo, nodes.size, nx))
            for r in range(hi - lo):
                for a, b in slabs:
                    w = gen.standard_normal(out=slab_buf[: b - a])
                    w *= scale
                    np.fft.rfft(w, axis=1, out=space[0, a:b])
                time_pass(space, u[r : r + 1])
            yield lo, hi, u

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

    Each replica block fills its rows one chunk of replicas at a time from
    ``linear_heat_node_chunks``, which draws every sheet in time slabs up to
    the last node, so a block holds neither a whole sheet nor the field
    history. The node indices are integers in 0..nt; anything else raises
    InputError.
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
    The multiplicative coefficient sigma(x) = x is only non-degenerate with
    ``initial=1`` (the Anderson-model setup): from zero initial data every
    iterate vanishes.
    """
    kernels = _LinearHeatKernels(grid)
    nodes = np.arange(grid.time.n_steps + 1)
    return _picard_trace(
        sigma, lambda rows: kernels.causal_sum(rows, nodes, grid.n_cells), grid.cell_shape(),
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
    """One periodic heat step v -> sum_y G(dt, x-y) v(y) along the last axis, by rFFT.

    ``step(v, out=None, spec=None)`` puts v's rFFT into ``spec`` (complex,
    last axis n_cells // 2 + 1) and the stepped values into ``out`` when they
    are given, so a march in arrays the caller owns allocates nothing per step.
    """
    kern_hat = np.fft.rfft(_heat_kernel_vector(grid, grid.time.dt))
    nx = grid.n_cells

    def step(v, out=None, spec=None):
        spec = np.fft.rfft(v, axis=-1, out=spec)
        # kernel first: a complex product's bits depend on the operand order
        np.multiply(kern_hat, spec, out=spec)
        return np.fft.irfft(spec, n=nx, axis=-1, out=out)

    return step


def _pam_march(grid: SpaceTimeGrid, steps, count: int, initial: float = 1.0) -> np.ndarray:
    """Mild Euler marching for the multiplicative heat model, u(0, .) = initial:

    u(t_(k+1), x) = sum_y G(dt, x-y) [ u(t_k, y) dx + u(t_k, y) W(cell_(k,y)) ]

    with periodic wrap at +-L, over ``steps``, an iterable of (count, n_cells)
    cell masses that is only read; returns the final-time values, shape
    (count, n_cells). For white-in-time noise the adapted product makes this
    an Ito scheme. For time-correlated noise the same product picks up the
    noise's interaction with the past (a Stratonovich-type trace), so
    moments drift above the Wick-product solution's; WickPamSampler is the
    scheme for moment comparisons against Wick-calculus formulas.
    """
    if grid.dim != 1:
        raise CapabilityError("mild Euler marching supports d = 1 only")
    step = _heat_step(grid)
    u = np.full((count, grid.n_cells), float(initial))
    # every step reuses one product and one spectrum array; noise is only read
    v = np.empty_like(u)
    spec = np.empty((count, grid.n_cells // 2 + 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        for w_k in steps:
            np.add(w_k, grid.dx, out=v)
            v *= u
            step(v, out=u, spec=spec)
    if not np.all(np.isfinite(u)):
        raise NumericalError("mild Euler marching overflows")
    return u


def pam_white_block(grid: SpaceTimeGrid, ix: int):
    """Replica block of the multiplicative heat model under white noise.

    Returns ``block(gen, count)`` for ``rng.map_replica_blocks``; a block
    gives u(t, x_ix) per replica. It draws each step's cell masses for all
    ``count`` replicas into one reused array and advances the Euler march by
    that step: the draws are those of one (n_steps, count, n_cells) draw,
    and memory does not grow with n_steps. ``ix`` follows the linear heat
    samplers' index rule, checked before anything is drawn.
    """
    ix = int(_grid_indices(ix, grid.n_cells, 0, "space index"))
    vol, nt = math.sqrt(grid.cell_volume), grid.time.n_steps

    def block(gen, count):
        w = np.empty((count, grid.n_cells))  # each step is drawn and scaled in place
        steps = (np.multiply(gen.standard_normal(out=w), vol, out=w) for _ in range(nt))
        return _pam_march(grid, steps, count)[:, ix]

    return block


class WickPamSampler:
    """Truncated Wick-chaos marching for the multiplicative heat model with
    time-correlated homogeneous noise.

    Carries the chaos levels U1 (linear) and U2 separately; the U2 update
    subtracts the deterministic trace tau(k, y) = sum over past cells of
    (influence kernel of U1) * Cov(past cell, current cell), which is
    exactly what keeps E[U2] = 0 and the levels orthogonal. The resulting
    1 + U1 + U2 is the chaos-order-2 part of the Wick (Skorohod-type)
    solution, whose second moment matches Wick-calculus moment formulas up
    to the chaos tail; the plain adapted product of the Euler march
    (_pam_march) does not converge to that solution when the noise is
    correlated in time. Both levels march with the same rFFT heat step.
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
        dx, nx = self.grid.dx, self.grid.n_cells
        # both levels are halves of one array and take one heat step together
        u = np.zeros((2, n, nx))
        v = np.empty_like(u)
        (u1, u2), (v1, v2) = u, v
        spec = np.empty((2, n, nx // 2 + 1), dtype=complex)
        for w_k, tau_k in zip(w.swapaxes(0, 1), self.tau):
            # U2 <- step(U2 dx + U1 w_k - tau_k), U1 <- step(U1 dx + w_k), both from old U1
            np.multiply(u1, w_k, out=v2)
            np.multiply(u2, dx, out=v1)
            v2 += v1
            v2 -= tau_k
            np.multiply(u1, dx, out=v1)
            v1 += w_k
            self._step(v, out=u, spec=spec)
        return u1, u2

    def second_moment_blocks(
        self, rng: RngStream, replicas: int, block_size: int, threads: int = 1
    ) -> np.ndarray:
        """``second_moment_samples`` of ``replicas`` replicas, block b of
        ``block_size`` drawn from ``rng.substream(b)``, with the same bits at any
        thread count."""
        return map_replica_blocks(replicas, self.second_moment_samples, rng, block_size, threads)

    def second_moment_samples(self, rng, n: int):
        """Per-replica spatial averages of (1 + U1 + U2)^2 over the center half."""
        u1, u2 = self.sample_chaos(rng, n)
        nx = self.grid.n_cells
        lo, hi = int(nx * 0.25), int(nx * 0.75)
        vals = (1.0 + u1[:, lo:hi] + u2[:, lo:hi]) ** 2
        return vals.mean(axis=1)
