"""Monte Carlo moment estimation, Lyapunov-exponent fitting, intermittency
diagnostics, the path-pair exponential-functional estimator for second
moments under fractional-Riesz noise, and empirical regularity exponents.

Lyapunov exponents lambda_p are asymptotic slopes of log E|X(t)|^p against
t^kappa; kappa = 1 for Brownian-driven models and kappa = 2H for the
geometric fractional model, whose moments grow like exp(p(p-1) t^(2H) / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conditions import check_fractional
from .errors import (
    CapabilityError,
    ConditionNotSatisfiedError,
    DomainError,
    InputError,
    NumericalError,
)
from .grids import SpaceTimeGrid, TimeGrid
from .kernels import HEAT
from .noise import NoiseSpec, time_factor_matrix
from .rng import RngStream, map_replica_blocks, replica_blocks, row_chunks
from .solvers import linear_heat_node_chunks

# ---------------------------------------------------------------------------
# moment reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentRow:
    model: str
    t: float
    p: float
    estimate: float
    stderr: float
    replicas: int


def jackknife_stderr(samples: np.ndarray) -> float:
    """Jackknife standard error of the sample mean.

    For the mean the leave-one-out estimator collapses to the classical
    sqrt(sum (x - xbar)^2 / (n (n-1))); kept as the named method because the
    reports quote it. Fewer than 2 samples have no error estimate: InputError.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise InputError(f"a standard error needs at least 2 samples, got {n}")
    return float(np.sqrt(np.sum((x - x.mean()) ** 2) / (n * (n - 1))))


def _means(vals: np.ndarray, what: str) -> list[tuple[float, float]]:
    """(mean, jackknife stderr) of each column of the (n, k) sample ``vals``;
    NumericalError when one is not finite, or when a stderr is 0 on a column
    whose values differ (their squared deviations underflowed)."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        pairs = [(float(m), jackknife_stderr(col)) for m, col in zip(vals.mean(axis=0), vals.T)]
    for (m, se), col in zip(pairs, vals.T):
        if not (math.isfinite(m) and math.isfinite(se)):
            raise NumericalError(f"{what} is not finite")
        if se == 0.0 and col.max() > col.min():
            raise NumericalError(f"{what} underflows")
    return pairs


def estimate_moments(
    samples: np.ndarray, p_list, model: str = "", t: float = float("nan")
) -> list[MomentRow]:
    """Sample means of |X|^p with jackknife standard errors, one row per p;
    NumericalError when either is not finite or underflows: |X|^p is 0 on
    every sample while some |X| > 0, or the stderr is 0 on differing |X|^p."""
    x = np.abs(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise InputError("cannot estimate moments from an empty sample")
    rows = []
    for p in np.atleast_1d(p_list):
        if p < 1:
            raise DomainError(f"moment order must be >= 1, got {p}")
        with np.errstate(over="ignore"):  # checked by _means
            vals = x[:, None] ** p
        [(est, se)] = _means(vals, f"moment of order {p} at t={t}")
        if se == 0.0 and est == 0.0 and x.any():  # every |X|^p rounded to 0
            raise NumericalError(f"moment of order {p} at t={t} underflows")
        rows.append(MomentRow(model, t, float(p), est, se, x.size))
    return rows


# ---------------------------------------------------------------------------
# Lyapunov exponents and intermittency
# ---------------------------------------------------------------------------


def fit_log_slope(ts: np.ndarray, values: np.ndarray, kappa: float) -> float:
    """Least-squares slope of log(values) against t^kappa."""
    t = np.asarray(ts, dtype=float)
    v = np.asarray(values, dtype=float)
    if np.unique(t).size < 4:
        raise InputError("Lyapunov fit needs at least 4 distinct t values")
    if np.any(v <= 0):
        raise InputError("Lyapunov fit needs positive moment estimates")
    x = t**kappa
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, np.log(v), rcond=None)
    return float(coef[0])


def lyapunov_closed_form(model: str, p: float, hurst: float | None = None):
    """(lambda_p, kappa) for the models with known exponents.

    gbm: p(p-1)/2 at kappa = 1; pam_white: p(p^2-1)/4! at kappa = 1;
    gfbm: p(p-1)/2 at kappa = 2H.
    """
    if p <= 0:
        raise DomainError(f"moment order must be positive, got {p}")
    if model == "gbm":
        return p * (p - 1.0) / 2.0, 1.0
    if model == "pam_white":
        return p * (p * p - 1.0) / 24.0, 1.0
    if model == "gfbm":
        if hurst is None or not 0.0 < hurst < 1.0:
            raise DomainError(f"gfbm needs a Hurst index in (0,1), got {hurst}")
        return p * (p - 1.0) / 2.0, 2.0 * hurst
    raise CapabilityError(f"no closed-form Lyapunov exponents for model {model!r}")


def intermittency_check(p_values, lambdas) -> bool:
    """True iff p -> lambda_p / p is strictly increasing over the given orders."""
    p = np.asarray(p_values, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    if p.size != lam.size or p.size < 2:
        raise InputError("need matching arrays with at least 2 orders")
    order = np.argsort(p)
    ratios = lam[order] / p[order]
    return bool(np.all(np.diff(ratios) > 0))


# ---------------------------------------------------------------------------
# path-pair second-moment estimator (fractional time x Riesz space)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathPairEstimate:
    """Second-moment estimate from the two-path exponential functional.

    ``estimate_half_floor`` repeats the evaluation with the spatial
    singularity floor halved, as a sensitivity report on the floor policy.
    """

    estimate: float
    stderr: float
    estimate_half_floor: float
    stderr_half_floor: float
    replicas: int
    n_quad: int
    delta_floor: float
    parameters: dict = field(default_factory=dict)


def _pair_exponents(
    b1: np.ndarray, b2: np.ndarray, wt: np.ndarray, alpha: float, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Interaction exponents sum_ij wt_ij max(|b1_i - b2_j|, floor)^(-alpha)
    of each replica's path pair, at ``floor`` and at ``floor / 2``.

    ``b1`` and ``b2`` have shape (replicas, n_quad, d). The pair arrays are
    built one chunk of replicas at a time, in buffers every chunk reuses.
    Private, so a traced run times it as part of ``fk_second_moment``'s work.
    """
    count, n_quad, d = b1.shape
    # floor**-alpha by the same array log and exp as the pair entries: numpy's
    # SIMD float64 routines and the scalar ones differ in the last bit on some
    # inputs, and only the array ones give the full-floor entry's own value
    cap = np.exp(-alpha * np.log(np.full(1, floor)))[0]
    a_full, a_half = np.empty((2, count))
    chunks = row_chunks(count, 8 * n_quad * n_quad * d)
    rows = max(hi - lo for lo, hi in chunks)
    bufs = np.empty((min(d, 2), rows, n_quad, n_quad))
    # b1_i - b2_j as the two-term dot [b1_i, 1] . [1, -b2_j]: it rounds once in
    # any order, so one batched matmul per axis gives the exact differences
    left, right = np.ones((rows, n_quad, 2)), np.ones((rows, 2, n_quad))

    def differences(lo, hi, axis, out):
        left[: hi - lo, :, 0] = b1[lo:hi, :, axis]
        np.negative(b2[lo:hi, :, axis], out=right[: hi - lo, 1])
        return np.matmul(left[: hi - lo], right[: hi - lo], out=out)

    for lo, hi in chunks:
        dist, sq = bufs[0, : hi - lo], bufs[-1, : hi - lo]
        if d == 1:  # sqrt(x * x) == |x| exactly
            np.abs(differences(lo, hi, 0, dist), out=dist)
        elif d < 8:  # in axis order, as np.sum adds fewer than 8 terms
            np.square(differences(lo, hi, 0, dist), out=dist)
            for c in range(1, d):
                dist += np.square(differences(lo, hi, c, sq), out=sq)
            np.sqrt(dist, out=dist)
        else:  # np.sum adds 8 or more pairwise
            diff = b1[lo:hi, :, None] - b2[lo:hi, None]
            np.sqrt(np.sum(np.square(diff, out=diff), axis=-1, out=dist), out=dist)
        # one x**-alpha = exp(-alpha log x) per entry, at the half floor (the
        # sensitivity variant); it never increases with x, so capping the
        # entries at cap gives the same bits as flooring the distances at floor
        np.maximum(dist, floor / 2.0, out=dist)
        np.log(dist, out=dist)
        dist *= -alpha
        np.exp(dist, out=dist)
        a_half[lo:hi] = np.einsum("ij,rij->r", wt, dist)
        np.minimum(dist, cap, out=dist)
        a_full[lo:hi] = np.einsum("ij,rij->r", wt, dist)
    return a_full, a_half


def fk_second_moment(
    t: float,
    spec: NoiseSpec,
    d: int,
    replicas: int,
    n_quad: int,
    rng: RngStream,
    block_size: int = 128,
    threads: int = 1,
) -> PathPairEstimate:
    """E[u(t,x)^2] for the multiplicative heat model via the two-path
    exponential functional

        E[ exp( double integral of gamma_H(r-s) |B^1_r - B^2_s|^(-alpha) ) ]

    over independent d-dimensional Brownian pairs. The time integral is
    evaluated per quadrature-cell pair with the exact alpha_H-weighted cell
    integral (no time-singularity error); the spatial factor uses path
    values at cell centers with |B^1 - B^2| floored at half a quadrature
    cell, t / (2 n_quad).
    """
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    if spec.time_kernel.kind != "fractional" or spec.space_kernel.kind != "riesz":
        raise CapabilityError(
            "path-pair second moments support fractional(H) x riesz(alpha) noise"
        )
    hurst = spec.time_kernel.hurst
    alpha = spec.space_kernel.alpha
    verdict = check_fractional(HEAT, alpha, hurst, d)
    if not verdict.satisfied:
        raise ConditionNotSatisfiedError(
            f"existence condition alpha < 4H fails (alpha={alpha}, H={hurst})",
            verdict=verdict,
        )
    if n_quad < 2:
        raise InputError(f"n_quad must be >= 2, got {n_quad}")
    delta = t / n_quad
    floor = delta / 2.0
    if not floor > 0.0:
        raise InputError(
            f"the distance floor t / (2 n_quad) underflows to 0 at t={t}, --n-quad {n_quad}"
        )

    # exact alpha_H-weighted time integrals over cell pairs (Toeplitz in the lag)
    wt = time_factor_matrix(TimeGrid(t, n_quad), spec.time_kernel)
    centers = (np.arange(n_quad) + 0.5) * delta
    gaps = np.diff(centers, prepend=0.0)
    sq_gaps = np.sqrt(gaps)

    def block(gen, count):
        b1 = np.cumsum(gen.standard_normal((count, n_quad, d)) * sq_gaps[:, None], axis=1)
        b2 = np.cumsum(gen.standard_normal((count, n_quad, d)) * sq_gaps[:, None], axis=1)
        a_full, a_half = _pair_exponents(b1, b2, wt, alpha, floor)
        with np.errstate(over="ignore"):
            return np.column_stack([np.exp(a_full), np.exp(a_half)])

    vals = map_replica_blocks(replicas, block, rng, block_size, threads)
    if not np.all(np.isfinite(vals)):
        raise NumericalError(
            f"{np.count_nonzero(~np.isfinite(vals))} exponential-functional samples "
            f"overflowed at t={t}; the second moment is beyond float range"
        )
    if not np.all(vals >= 1.0):
        raise NumericalError(
            "exponential-functional samples fell below 1; "
            "nonnegative kernels make that impossible"
        )
    (est, se), (est_half, se_half) = _means(vals, f"fk estimate or its stderr at t={t}")
    return PathPairEstimate(
        estimate=est,
        stderr=se,
        estimate_half_floor=est_half,
        stderr_half_floor=se_half,
        replicas=replicas,
        n_quad=n_quad,
        delta_floor=floor,
        parameters={"t": t, "hurst": hurst, "alpha": alpha, "d": d},
    )


# ---------------------------------------------------------------------------
# empirical Holder exponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolderFit:
    exponent: float
    lags: tuple[int, ...]
    lag_spacings: np.ndarray
    norms: np.ndarray
    p: float
    axis: str


DEFAULT_HOLDER_LAGS = (2, 4, 8, 16, 32)


def _increment_lags(
    spacing: float, p: float, lags: tuple[int, ...], n_axis: int, periodic: bool
) -> tuple[list[int], np.ndarray]:
    """The usable lags on an axis of ``n_axis`` points and their spacings.

    Raises ``DomainError`` for a moment order that is not finite or below 1,
    a spacing that is not finite and positive, or lag spacings that
    overflow, and ``InputError`` for fewer than 3 usable lags.
    """
    if not (np.isfinite(p) and p >= 1):
        raise DomainError(f"moment order must be finite and >= 1, got {p}")
    if not (np.isfinite(spacing) and spacing > 0):
        raise DomainError(f"spacing must be finite and positive, got {spacing}")
    usable = [m for m in lags if 0 < m and (m <= n_axis // 2 if periodic else m < n_axis)]
    if len(usable) < 3:
        raise InputError(
            f"need at least 3 usable lag scales on an axis of length {n_axis}, "
            f"got {usable}"
        )
    with np.errstate(over="ignore"):  # checked next
        lag_spacings = np.asarray(usable, dtype=float) * spacing
    if not np.all(np.isfinite(lag_spacings)):
        raise DomainError(f"lag spacings overflow float64 at spacing {spacing}")
    return usable, lag_spacings


def _increment_sums(
    u: np.ndarray, ax: int, p: float, lags: list[int], periodic: bool
) -> np.ndarray:
    """Sums of |increment|^p (row 0) and numbers of increments (row 1) per lag.

    Increments of the (replicas, n_time, n_space) array ``u`` are taken
    along axis ``ax`` (1 time, 2 space; ``periodic`` wraps them around
    axis 2) by slice subtraction into a contiguous prefix of one buffer: a
    strided view would change the pairwise order, and the bits, of the sum.
    A sum that is not finite is left for ``_holder_fit`` to reject.
    """
    buf = np.empty(u.size)
    sums = np.empty((2, len(lags)))
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the fit
        for i, m in enumerate(lags):
            if periodic:
                inc = buf.reshape(u.shape)
                np.subtract(u[:, :, m:], u[:, :, :-m], out=inc[:, :, :-m])
                np.subtract(u[:, :, :m], u[:, :, -m:], out=inc[:, :, -m:])
            else:
                shape = list(u.shape)
                shape[ax] -= m
                inc = buf[: math.prod(shape)].reshape(shape)
                hi = u[:, m:] if ax == 1 else u[:, :, m:]
                lo = u[:, :-m] if ax == 1 else u[:, :, :-m]
                np.subtract(hi, lo, out=inc)
            np.abs(inc, out=inc)
            inc **= p  # the in-place form of ``inc ** p``, with the same fast paths
            sums[:, i] = np.sum(inc), inc.size
    return sums


def _holder_fit(
    sums: np.ndarray,
    varies: bool,
    lags: list[int],
    lag_spacings: np.ndarray,
    p: float,
    axis: str,
) -> HolderFit:
    """Least-squares slope of log ||increment||_p against log lag spacing.

    ``sums`` is ``_increment_sums``' array, or a sum of them; each lag's
    moment is its sum over its count. One that is not finite raises
    ``NumericalError``; one that is 0 raises ``NumericalError`` when the
    field ``varies`` (rounding lost the increments) and ``InputError`` when
    it is constant.
    """
    norms = []
    for m, total, count in zip(lags, *sums):
        moment = total / count
        if not np.isfinite(moment):
            raise NumericalError(f"increment moment of order {p} at lag {m} is not finite")
        if moment <= 0.0:
            # on a field that varies, rounding lost them: |increment|^p underflowed,
            # or the increments lie below the values' spacing (a huge t flattens G)
            if varies:
                raise NumericalError(
                    f"{axis} increments at lag {m} round to 0 on a field that varies"
                )
            raise InputError("increments vanish; the exponent is undefined")
        norms.append(moment ** (1.0 / p))
    norms = np.asarray(norms)
    xs = np.log(lag_spacings)
    design = np.column_stack([xs, np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(design, np.log(norms), rcond=None)
    return HolderFit(
        exponent=float(coef[0]),
        lags=tuple(lags),
        lag_spacings=lag_spacings,
        norms=norms,
        p=p,
        axis=axis,
    )


def linear_heat_holder_study(
    grid: SpaceTimeGrid,
    replicas: int,
    rng: RngStream,
    time_lags: tuple[int, ...] = DEFAULT_HOLDER_LAGS,
    space_lags: tuple[int, ...] = DEFAULT_HOLDER_LAGS,
    base_node: int | None = None,
    p: float = 2.0,
    block_size: int = 32,
    threads: int = 1,
) -> dict:
    """Fitted time/space regularity exponents of the linear heat solution.

    Simulates the solution over a window of time nodes ending well inside
    the horizon (default base: 3/4 of the way), wide enough that every time
    lag sees many base points, and fits both exponents on the ensemble.
    Each replica block takes the window's field one ``row_chunks`` chunk of
    replicas at a time from ``linear_heat_node_chunks``, which draws every
    sheet in time slabs only up to the window's last node, convolves it
    through a core sized to the window (at the default base, half the FFT
    length and kernel spectrum of the whole horizon) and never holds a
    whole sheet, and adds each chunk's sums of |increment|^p, at each time
    lag and each periodic space lag, into block-local sums, with the
    values' min and max for the fit's vanishing-increment check. The block
    sums are added in block order, so the fits do not depend on the thread
    count, and no per-replica field outlives a chunk. Returns the two fits
    plus the window metadata.
    """
    if not time_lags or not space_lags:
        raise InputError(
            f"time and space lags must be non-empty, got time {time_lags}, space {space_lags}"
        )
    if any(m < 1 for m in (*time_lags, *space_lags)):
        raise InputError(f"lags must be >= 1, got time {time_lags}, space {space_lags}")
    nt = grid.time.n_steps
    max_lag = max(time_lags)
    k0 = (3 * nt) // 4 if base_node is None else base_node
    if k0 + 2 * max_lag > nt:
        raise InputError(
            f"window [{k0}, {k0 + 2 * max_lag}] exceeds the grid ({nt} steps); "
            "lower the base node or the largest time lag"
        )
    window = np.arange(k0, k0 + 2 * max_lag + 1)
    time_axis = _increment_lags(grid.time.dt, p, time_lags, window.size, False)
    space_axis = _increment_lags(grid.dx, p, space_lags, grid.n_cells, True)
    axes = ((1, time_axis[0], False), (2, space_axis[0], True))
    chunks = linear_heat_node_chunks(grid, window)

    def block(gen, count):
        sums = [np.zeros((2, len(lags))) for _, lags, _ in axes]
        lo, hi = np.inf, -np.inf
        for _, _, u in chunks(gen, count):
            for acc, (ax, lags, periodic) in zip(sums, axes):
                acc += _increment_sums(u, ax, p, lags, periodic)
            lo, hi = min(lo, u.min()), max(hi, u.max())
        return sums, lo, hi

    totals = [np.zeros((2, len(lags))) for _, lags, _ in axes]
    lo, hi = np.inf, -np.inf
    for _, (sums, block_lo, block_hi) in replica_blocks(
        replicas, block, rng, block_size, threads
    ):
        for acc, block_sums in zip(totals, sums):
            acc += block_sums
        lo, hi = min(lo, block_lo), max(hi, block_hi)
    return {
        "time_fit": _holder_fit(totals[0], lo < hi, *time_axis, p, "time"),
        "space_fit": _holder_fit(totals[1], lo < hi, *space_axis, p, "space"),
        "window_nodes": (int(window[0]), int(window[-1])),
        "replicas": replicas,
    }
