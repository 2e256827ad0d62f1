"""Seeded generators for the Gaussian drivers: Brownian paths, white-noise
sheets, fractional Brownian motion, and space-time homogeneous fields.

Covariance conventions
----------------------
Fractional time correlation uses the fBm normalization
gamma_H(u) = alpha_H |u|^(2H-2), alpha_H = H(2H-1); the Riesz spatial kernel
is f(x) = |x|^(-alpha) with no extra constant. Every 1-d kernel has a second
antiderivative F(w) = c |w|^p, with (c, p) = (1/2, 1) for white noise,
(1/2, 2H) for fractional time and (1/((1-alpha)(2-alpha)), 2-alpha) for
d=1 Riesz. Its double integral over [a,b] x [c,d] is the corner sum
F(b-c) + F(a-d) - F(a-c) - F(b-d), which over [0,t] x [0,s] gives the fBm
covariance R_H(t,s) = (t^(2H) + s^(2H) - |t-s|^(2H)) / 2. The d=2 Riesz kernel
is the Gaussian scale mixture |x|^(-alpha) = Gamma(alpha/2)^(-1) int_0^inf
s^(alpha/2-1) exp(-s |x|^2) ds; the Gaussian factorizes over the axes, each axis
is the corner sum of its second antiderivative F_s, and a trapezoid rule in
log s sums over s. Cell masses of a homogeneous noise have separable covariance

    Cov(W(C), W(C')) = [time cell integral] * [space cell integral],

so the full covariance is a Kronecker product T (x) S whose Cholesky factor
is chol(T) (x) chol(S).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError, InputError, NumericalError
from .field import Field
from .grids import SpaceTimeGrid, TimeGrid
from .rng import as_generator

DEFAULT_CHOLESKY_CAP = 2048

# ---------------------------------------------------------------------------
# noise specification
# ---------------------------------------------------------------------------

WHITE = "white"
FRACTIONAL = "fractional"
RIESZ = "riesz"


@dataclass(frozen=True)
class TimeKernel:
    kind: str
    hurst: float | None = None

    def __post_init__(self):
        if self.kind not in (WHITE, FRACTIONAL):
            raise DomainError(f"unknown time kernel {self.kind!r}")
        if self.kind == FRACTIONAL and not (0.5 < (self.hurst or 0) < 1.0):
            raise DomainError(f"fractional time kernel needs H in (1/2,1), got {self.hurst}")

    @staticmethod
    def white() -> "TimeKernel":
        return TimeKernel(WHITE)

    @staticmethod
    def fractional(hurst: float) -> "TimeKernel":
        return TimeKernel(FRACTIONAL, hurst=hurst)


@dataclass(frozen=True)
class SpaceKernel:
    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in (WHITE, RIESZ):
            raise DomainError(f"unknown space kernel {self.kind!r}")
        if self.kind == RIESZ and not (self.alpha or 0) > 0:
            raise DomainError(f"Riesz kernel needs alpha > 0, got {self.alpha}")

    @staticmethod
    def white() -> "SpaceKernel":
        return SpaceKernel(WHITE)

    @staticmethod
    def riesz(alpha: float) -> "SpaceKernel":
        return SpaceKernel(RIESZ, alpha=alpha)


@dataclass(frozen=True)
class NoiseSpec:
    """Tagged description of the driving noise, gamma (x) f."""

    time_kernel: TimeKernel
    space_kernel: SpaceKernel

    @staticmethod
    def space_time_white() -> "NoiseSpec":
        return NoiseSpec(TimeKernel.white(), SpaceKernel.white())

    @staticmethod
    def fractional_riesz(hurst: float, alpha: float) -> "NoiseSpec":
        return NoiseSpec(TimeKernel.fractional(hurst), SpaceKernel.riesz(alpha))

    def validate_for_dim(self, dim: int) -> None:
        if self.space_kernel.kind == RIESZ and not self.space_kernel.alpha < dim:
            raise DomainError(
                f"Riesz kernel needs alpha < d; alpha={self.space_kernel.alpha}, d={dim}"
            )


@dataclass(frozen=True)
class Cell:
    """One space-time cell: a time interval times an axis-aligned box."""

    t_lo: float
    t_hi: float
    x_lo: tuple[float, ...]
    x_hi: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.x_lo)


def grid_cell(grid: SpaceTimeGrid, k: int, ix) -> Cell:
    """Cell (k, ix) of a grid; ix is an int (d=1) or a tuple of ints."""
    if isinstance(ix, int):
        ix = (ix,)
    if len(ix) != grid.dim:
        raise InputError(f"need {grid.dim} spatial indices, got {len(ix)}")
    dt, dx = grid.time.dt, grid.dx
    edges = grid.space_edges()
    return Cell(
        k * dt,
        (k + 1) * dt,
        tuple(edges[i] for i in ix),
        tuple(edges[i + 1] for i in ix),
    )


# ---------------------------------------------------------------------------
# elementary paths and sheets
# ---------------------------------------------------------------------------


def sample_bm_paths(grid: TimeGrid, rng, n_paths: int = 1) -> np.ndarray:
    """Brownian paths on the grid nodes, shape (n_paths, n_steps + 1); B_0 = 0."""
    gen = as_generator(rng)
    inc = gen.standard_normal((n_paths, grid.n_steps)) * math.sqrt(grid.dt)
    paths = np.zeros((n_paths, grid.n_steps + 1))
    np.cumsum(inc, axis=1, out=paths[:, 1:])
    return paths


def sample_bm_path(grid: TimeGrid, rng) -> np.ndarray:
    return sample_bm_paths(grid, rng, 1)[0]


def sample_white_noise_sheet(grid: SpaceTimeGrid, rng) -> Field:
    """I.i.d. cell increments with variance dt * dx^d (Brownian-sheet masses)."""
    gen = as_generator(rng)
    vals = gen.standard_normal(grid.cell_shape()) * math.sqrt(grid.cell_volume)
    return Field(grid, vals, label="white_noise")


# ---------------------------------------------------------------------------
# fractional Brownian motion
# ---------------------------------------------------------------------------


def fbm_covariance(hurst: float, t: float, s: float) -> float:
    """R_H(t,s) = (t^(2H) + s^(2H) - |t-s|^(2H)) / 2."""
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"Hurst index must lie in (0,1), got {hurst}")
    if t < 0 or s < 0:
        raise DomainError("fBm covariance needs t, s >= 0")
    h2 = 2.0 * hurst
    return 0.5 * (t**h2 + s**h2 - abs(t - s) ** h2)


def fbm_covariance_matrix(hurst: float, times: np.ndarray) -> np.ndarray:
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"Hurst index must lie in (0,1), got {hurst}")
    t = np.asarray(times, dtype=float)
    h2 = 2.0 * hurst
    tt = t[:, None]
    ss = t[None, :]
    return 0.5 * (tt**h2 + ss**h2 - np.abs(tt - ss) ** h2)


_JITTER_EPS_START = 1e-14
_JITTER_EPS_MAX = 1e-10


def cholesky_with_jitter(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor with an escalating diagonal jitter eps * trace / n.

    eps doubles from 1e-14 up to 1e-10; beyond that the matrix is declared
    numerically non-PSD.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    try:
        return np.linalg.cholesky(cov), 0.0
    except np.linalg.LinAlgError:
        pass
    scale = np.trace(cov) / n
    eps = _JITTER_EPS_START
    while eps <= _JITTER_EPS_MAX:
        try:
            L = np.linalg.cholesky(cov + eps * scale * np.eye(n))
            return L, eps * scale
        except np.linalg.LinAlgError:
            eps *= 2.0
    raise NumericalError(
        f"covariance matrix not positive semidefinite within jitter "
        f"{_JITTER_EPS_MAX} * trace/n"
    )


def sample_fbm_paths(hurst: float, grid: TimeGrid, rng, n_paths: int = 1) -> np.ndarray:
    """Zero-mean paths with pairwise covariance R_H on the nodes, B^H_0 = 0.

    Exact Cholesky factorization of the node covariance; grids are capped at
    DEFAULT_CHOLESKY_CAP nodes.
    """
    if grid.n_steps > DEFAULT_CHOLESKY_CAP:
        raise InputError(
            f"fBm sampling factorizes an n x n covariance; n_steps={grid.n_steps} "
            f"exceeds the cap {DEFAULT_CHOLESKY_CAP}"
        )
    nodes = grid.nodes()[1:]
    L, _ = cholesky_with_jitter(fbm_covariance_matrix(hurst, nodes))
    gen = as_generator(rng)
    z = gen.standard_normal((n_paths, grid.n_steps))
    paths = np.zeros((n_paths, grid.n_steps + 1))
    paths[:, 1:] = z @ L.T
    return paths


# ---------------------------------------------------------------------------
# exact cell integrals of the covariance kernels
# ---------------------------------------------------------------------------


def _interval_overlap(a: float, b: float, c: float, d: float) -> float:
    return max(0.0, min(b, d) - max(a, c))


def _power_law(kind: str, param: float | None) -> tuple[float, float]:
    """(c, p) of F(w) = c |w|^p, the second antiderivative of a 1-d kernel."""
    if kind == WHITE:
        return 0.5, 1.0
    if kind == FRACTIONAL:
        return 0.5, 2.0 * param
    return 1.0 / ((1.0 - param) * (2.0 - param)), 2.0 - param


def _corner_sum(law: tuple[float, float], a: float, b: float, c: float, d: float) -> float:
    """Double integral over [a,b] x [c,d] of the kernel with F = c |w|^p:
    F(b-c) + F(a-d) - F(a-c) - F(b-d)."""
    coef, p = law
    return coef * (abs(b - c) ** p + abs(a - d) ** p - abs(a - c) ** p - abs(b - d) ** p)


def fractional_time_cell_integral(hurst: float, a: float, b: float, c: float, d: float) -> float:
    """alpha_H * double integral of |r-s|^(2H-2) over [a,b] x [c,d]."""
    return _corner_sum(_power_law(FRACTIONAL, hurst), a, b, c, d)


def riesz_cell_integral_1d(alpha: float, a: float, b: float, c: float, d: float) -> float:
    """Double integral of |x-y|^(-alpha) over [a,b] x [c,d], d=1, alpha in (0,1)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"exact d=1 Riesz cell integral needs alpha in (0,1), got {alpha}")
    return _corner_sum(_power_law(RIESZ, alpha), a, b, c, d)


_ERF = np.frompyfunc(math.erf, 1, 1)  # math.erf keeps scipy off the import path
# trapezoid step in u = log s: the integrand is analytic for |Im u| < pi/2, so
# the step error is about exp(-pi^2 / 0.3) ~ 5e-15; the tails are cut after exp(-40)
_LOG_STEP, _LOG_SPAN = 0.3, 40.0


def riesz_cell_integral(alpha: float, x_lo_a, x_hi_a, x_lo_b, x_hi_b, dim: int) -> float:
    """Double integral of |x-y|^(-alpha) over two axis-aligned boxes, d <= 2.

    d=1 is exact. d=2 integrates the Gaussian scale mixture over u = log s:
    s^(alpha/2) J_1(s) J_2(s) / Gamma(alpha/2), J_i the axis-i corner sum of
    F_s(w) = w (sqrt(pi)/2) erf(sqrt(s) w) / sqrt(s) + expm1(-s w^2) / (2s). The
    part s^(alpha/2) (L e^(-s tau) + P (1 - e^(-s tau)) / s), with P = pi times the
    two overlaps, L = (product of the four widths) - P tau and tau the pair's mean
    |x-y|^2, has the s -> 0 and s -> inf limits and a closed-form integral; the
    rest decays like e^(-|u|/2) or faster and is summed by the trapezoid rule.
    It matches a polar quadrature and dblquad oracles to about 1e-14 relative.
    """
    if not 0.0 < alpha < dim:
        raise DomainError(f"Riesz cell integral needs alpha in (0, d)=(0,{dim})")
    if dim == 1:
        return riesz_cell_integral_1d(alpha, x_lo_a[0], x_hi_a[0], x_lo_b[0], x_hi_b[0])
    if dim > 2:
        raise CapabilityError(f"Riesz cell integrals are implemented for d <= 2, got d={dim}")
    a, b, c, d = (np.asarray(v, dtype=float) for v in (x_lo_a, x_hi_a, x_lo_b, x_hi_b))
    gaps = np.array([b - c, a - d, a - c, b - d])  # (corner, axis); corner signs + + - -
    scale = float(np.abs(gaps).max())  # the integral scales like length^(4 - alpha)
    gaps, widths = gaps / scale, np.concatenate([b - a, d - c]) / scale
    area = float(np.prod(widths))
    if area == 0.0:
        return 0.0
    upper = math.pi * math.prod(_interval_overlap(*ends) for ends in zip(a, b, c, d)) / scale**2
    centre = 0.5 * (gaps[0] + gaps[1])
    tau = float(np.sum(centre * centre) + np.sum(widths * widths) / 12.0)  # mean |x-y|^2
    lower = area - upper * tau
    half = 0.5 * alpha
    u_hi = -2.0 * math.log(widths.min()) + _LOG_SPAN / (1.5 - half)
    s = np.exp(np.arange(-_LOG_SPAN / (1.0 + half), u_hi + _LOG_STEP, _LOG_STEP))
    s3, root = s[:, None, None], np.sqrt(s[:, None, None])
    erf = _ERF(root * gaps).astype(float)
    f = gaps * (0.5 * math.sqrt(math.pi)) * erf / root + np.expm1(-s3 * gaps * gaps) / (2 * s3)
    mixed = np.prod(f[:, 0] + f[:, 1] - f[:, 2] - f[:, 3], axis=1)
    fade = np.expm1(-s * tau)
    rest = s**half * (mixed - lower * (1.0 + fade) + upper * fade / s)
    closed = lower * tau**-half + upper * tau ** (1.0 - half) / (1.0 - half)
    return (closed + _LOG_STEP * float(np.sum(rest)) / math.gamma(half)) * scale ** (4.0 - alpha)


def cell_covariance(cell_a: Cell, cell_b: Cell, spec: NoiseSpec) -> float:
    """Exact covariance of the noise masses of two cells under ``spec``.

    White factors are interval overlaps, so disjoint white cells give exactly 0.
    """
    if cell_a.dim != cell_b.dim:
        raise InputError("cells have different dimensions")
    spec.validate_for_dim(cell_a.dim)
    tk, sk = spec.time_kernel, spec.space_kernel
    t_ends = (cell_a.t_lo, cell_a.t_hi, cell_b.t_lo, cell_b.t_hi)
    if tk.kind == WHITE:
        tfac = _interval_overlap(*t_ends)
    else:
        tfac = fractional_time_cell_integral(tk.hurst, *t_ends)
    x_ends = (cell_a.x_lo, cell_a.x_hi, cell_b.x_lo, cell_b.x_hi)
    if sk.kind == WHITE:
        sfac = math.prod(_interval_overlap(*ends) for ends in zip(*x_ends))
    else:
        sfac = riesz_cell_integral(sk.alpha, *x_ends, cell_a.dim)
    return tfac * sfac


# ---------------------------------------------------------------------------
# factor matrices and the homogeneous sampler
# ---------------------------------------------------------------------------


def _gather_by_gap(table: np.ndarray) -> np.ndarray:
    """Cell-pair matrix of a grid shaped like ``table`` (cells in row-major
    order): entry (a, b) is ``table`` at the per-axis gaps |a - b|, sorted."""
    idx = np.indices(table.shape).reshape(table.ndim, -1)
    gaps = np.sort(np.abs(idx[:, :, None] - idx[:, None, :]), axis=0)
    return table[tuple(gaps)]


def _power_law_toeplitz(law: tuple[float, float], h: float, n: int) -> np.ndarray:
    """Covariance of n consecutive cells of width h; at lag m it is the
    corner sum c h^p ((m+1)^p + |m-1|^p - 2 m^p)."""
    coef, p = law
    m = np.arange(n, dtype=float)
    return _gather_by_gap(coef * h**p * ((m + 1) ** p + np.abs(m - 1) ** p - 2 * m**p))


def time_factor_matrix(tgrid: TimeGrid, tk: TimeKernel) -> np.ndarray:
    return _power_law_toeplitz(_power_law(tk.kind, tk.hurst), tgrid.dt, tgrid.n_steps)


def space_factor_matrix(grid: SpaceTimeGrid, sk: SpaceKernel) -> np.ndarray:
    n, dim = grid.n_cells, grid.dim
    if sk.kind == WHITE:
        return np.eye(grid.n_space_cells) * grid.dx**dim
    if not sk.alpha < dim:
        raise DomainError(f"Riesz kernel needs alpha < d; alpha={sk.alpha}, d={dim}")
    if dim == 1:
        return _power_law_toeplitz(_power_law(RIESZ, sk.alpha), grid.dx, n)
    # d >= 2: one cell integral from cell 0 to each offset sorted per axis
    edges = grid.space_edges()
    lo, hi = (edges[0],) * dim, (edges[1],) * dim
    table = np.full((n,) * dim, np.nan)
    for off in itertools.combinations_with_replacement(range(n), dim):
        ends = (tuple(edges[i] for i in off), tuple(edges[i + 1] for i in off))
        table[off] = riesz_cell_integral(sk.alpha, lo, hi, *ends, dim)
    return _gather_by_gap(table)


class HomogeneousNoiseSampler:
    """Sampler for jointly Gaussian cell masses with separable covariance.

    Factorizes the time and space covariance matrices once; each draw costs
    two small matrix products. Total cell count is capped because verdicts
    about PSD-ness and exactness are only validated at desk scale.
    """

    def __init__(self, grid: SpaceTimeGrid, spec: NoiseSpec):
        total = grid.time.n_steps * grid.n_space_cells
        if total > DEFAULT_CHOLESKY_CAP:
            raise InputError(
                f"grid has {total} cells, exceeding the Cholesky cap {DEFAULT_CHOLESKY_CAP}"
            )
        spec.validate_for_dim(grid.dim)
        self.grid = grid
        self.spec = spec
        self.time_cov = time_factor_matrix(grid.time, spec.time_kernel)
        self.space_cov = space_factor_matrix(grid, spec.space_kernel)
        self._lt, self.time_jitter = cholesky_with_jitter(self.time_cov)
        self._ls, self.space_jitter = cholesky_with_jitter(self.space_cov)

    def covariance(self, k: int, ix, l: int, jx) -> float:
        """Covariance of cells (k, ix) and (l, jx); matches cell_covariance."""
        a = np.ravel_multi_index(tuple(np.atleast_1d(ix)), (self.grid.n_cells,) * self.grid.dim)
        b = np.ravel_multi_index(tuple(np.atleast_1d(jx)), (self.grid.n_cells,) * self.grid.dim)
        return float(self.time_cov[k, l] * self.space_cov[a, b])

    def sample_batch(self, rng, n: int) -> np.ndarray:
        """n fields of cell masses, shape (n,) + grid.cell_shape()."""
        gen = as_generator(rng)
        nt, nsp = self.grid.time.n_steps, self.grid.n_space_cells
        z = gen.standard_normal((n, nt, nsp))
        w = np.einsum("km,rmn,pn->rkp", self._lt, z, self._ls, optimize=True)
        return w.reshape((n,) + self.grid.cell_shape())

    def sample(self, rng) -> Field:
        return Field(self.grid, self.sample_batch(rng, 1)[0], label="homogeneous_noise")


def sample_homogeneous_noise(grid: SpaceTimeGrid, spec: NoiseSpec, rng) -> Field:
    """One draw of the homogeneous noise cell masses (see the sampler class)."""
    return HomogeneousNoiseSampler(grid, spec).sample(rng)
