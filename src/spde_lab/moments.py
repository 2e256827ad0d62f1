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
from .kernels import HEAT, WAVE
from .noise import NoiseSpec, time_factor_matrix
from .rng import RngStream, map_replica_blocks, row_chunks
from .solvers import linear_heat_node_samples

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


@dataclass
class MomentReport:
    """Moment rows plus an optional Lyapunov fit against t^kappa."""

    rows: list[MomentRow] = field(default_factory=list)
    kappa: float | None = None
    fitted_lambda: float | None = None
    closed_form_lambda: float | None = None


def jackknife_stderr(samples: np.ndarray) -> float:
    """Jackknife standard error of the sample mean.

    For the mean the leave-one-out estimator collapses to the classical
    sqrt(sum (x - xbar)^2 / (n (n-1))); kept as the named method because the
    reports quote it.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        return 0.0
    return float(np.sqrt(np.sum((x - x.mean()) ** 2) / (n * (n - 1))))


def estimate_moments(
    samples: np.ndarray, p_list, model: str = "", t: float = float("nan")
) -> list[MomentRow]:
    """Sample means of |X|^p with jackknife standard errors, one row per p;
    NumericalError when either is not finite."""
    x = np.abs(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise InputError("cannot estimate moments from an empty sample")
    rows = []
    for p in np.atleast_1d(p_list):
        if p < 1:
            raise DomainError(f"moment order must be >= 1, got {p}")
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            vals = x**p
            row = MomentRow(model, t, float(p), float(vals.mean()), jackknife_stderr(vals), x.size)
        if not (math.isfinite(row.estimate) and math.isfinite(row.stderr)):
            raise NumericalError(f"moment of order {p} at t={t} is not finite")
        rows.append(row)
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


def lyapunov_fit(rows, p: float, kappa: float = 1.0) -> float:
    """Fitted Lyapunov exponent of order p from MomentReport rows."""
    sel = [r for r in rows if r.p == p]
    if not sel:
        raise InputError(f"no rows with p={p}")
    return fit_log_slope([r.t for r in sel], [r.estimate for r in sel], kappa)


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


def intermittency_exponent_predicted(op_kind: str, alpha: float, hurst: float) -> float:
    """Predicted moment growth exponent rho in exp(c p^a t^rho).

    heat: (4H - alpha) / (2 - alpha); wave: (2H + 2 - alpha) / (3 - alpha).
    """
    if op_kind not in (HEAT, WAVE):
        raise DomainError(f"operator kind must be 'heat' or 'wave', got {op_kind!r}")
    if not 0.5 < hurst < 1.0:
        raise DomainError(f"Hurst index must lie in (1/2,1), got {hurst}")
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha must lie in (0, d wedge 2) subset (0,2), got {alpha}")
    if op_kind == HEAT:
        return (4.0 * hurst - alpha) / (2.0 - alpha)
    return (2.0 * hurst + 2.0 - alpha) / (3.0 - alpha)


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
    built one chunk of replicas at a time, not a whole block's. Private, so
    a traced run times it as part of ``fk_second_moment``'s own work.
    """
    count, n_quad, d = b1.shape
    # floor**-alpha from the same array power as the pair entries: numpy's
    # SIMD float64 power and the scalar one differ in the last bit on some
    # inputs, and only the array one is the full-floor entry's own value
    cap = np.power(np.full(1, floor), -alpha)[0]
    a_full, a_half = np.empty((2, count))
    for lo, hi in row_chunks(count, 8 * n_quad * n_quad * d):
        if d == 1:  # sqrt(x * x) == |x| exactly
            dist = b1[lo:hi, :, None, 0] - b2[lo:hi, None, :, 0]
            np.abs(dist, out=dist)
        else:
            diff = b1[lo:hi, :, None, :] - b2[lo:hi, None, :, :]
            dist = np.sqrt(np.sum(diff * diff, axis=-1))
        # one power per entry, at the half floor (the sensitivity variant);
        # x -> x**-alpha is decreasing, so capping the powers at cap gives the
        # same bits as powering the distances floored at the full floor
        np.maximum(dist, floor / 2.0, out=dist)
        np.power(dist, -alpha, out=dist)
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
    delta_floor: float | None = None,
    block_size: int = 128,
    threads: int = 1,
) -> PathPairEstimate:
    """E[u(t,x)^2] for the multiplicative heat model via the two-path
    exponential functional

        E[ exp( double integral of gamma_H(r-s) |B^1_r - B^2_s|^(-alpha) ) ]

    over independent d-dimensional Brownian pairs. The time integral is
    evaluated per quadrature-cell pair with the exact alpha_H-weighted cell
    integral (no time-singularity error); the spatial factor uses path
    values at cell centers with |B^1 - B^2| floored at ``delta_floor``
    (default: half a quadrature cell).
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
    floor = delta / 2.0 if delta_floor is None else float(delta_floor)
    if not floor > 0.0:
        raise InputError(f"delta_floor must be positive, got {floor}")

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
    with np.errstate(over="ignore", invalid="ignore"):
        est, est_half = vals.mean(axis=0)
        se, se_half = (jackknife_stderr(vals[:, 0]), jackknife_stderr(vals[:, 1]))
    if not np.all(np.isfinite([est, est_half, se, se_half])):
        raise NumericalError(f"fk estimate or its stderr overflowed at t={t}")
    return PathPairEstimate(
        estimate=float(est),
        stderr=float(se),
        estimate_half_floor=float(est_half),
        stderr_half_floor=float(se_half),
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


def holder_estimate(
    fields: np.ndarray,
    spacing: float,
    axis: str = "time",
    p: float = 2.0,
    lags: tuple[int, ...] = DEFAULT_HOLDER_LAGS,
    periodic_space: bool = False,
) -> HolderFit:
    """Fitted regularity exponent from dyadic-lag increment moments.

    ``fields`` has shape (replicas, n_time, n_space); increments are taken
    along the chosen axis at each listed lag, averaged over replicas and
    over all admissible base points, and the exponent is the least-squares
    slope of log ||increment||_p against log(lag * spacing). Lag 1 is
    excluded by default (dominated by discretization noise). With
    ``periodic_space`` space increments wrap around, at lags up to n_space / 2;
    time increments never do.
    """
    if not (np.isfinite(p) and p >= 1):
        raise DomainError(f"moment order must be finite and >= 1, got {p}")
    if not (np.isfinite(spacing) and spacing > 0):
        raise DomainError(f"spacing must be finite and positive, got {spacing}")
    u = np.asarray(fields, dtype=float)
    if u.ndim != 3:
        raise InputError(f"fields must be (replicas, n_time, n_space), got {u.shape}")
    if axis not in ("time", "space"):
        raise InputError(f"axis must be 'time' or 'space', got {axis!r}")
    ax = 1 if axis == "time" else 2
    n_axis = u.shape[ax]
    periodic = axis == "space" and periodic_space  # time increments are never periodic
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
    # every lag's increments go into a contiguous prefix of one buffer: a
    # strided view would change the pairwise order, and the bits, of np.mean
    buf = np.empty(u.size)
    norms = []
    for m in usable:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
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
            moment = np.mean(inc)
        if not np.isfinite(moment):
            raise NumericalError(f"increment moment of order {p} at lag {m} is not finite")
        if moment <= 0.0:
            raise InputError("increments vanish; the exponent is undefined")
        norms.append(moment ** (1.0 / p))
    norms = np.asarray(norms)
    xs = np.log(lag_spacings)
    design = np.column_stack([xs, np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(design, np.log(norms), rcond=None)
    return HolderFit(
        exponent=float(coef[0]),
        lags=tuple(usable),
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
    Returns the two fits plus the window metadata.
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
    fields = linear_heat_node_samples(
        grid, window, replicas, rng, block_size=block_size, threads=threads
    )
    time_fit = holder_estimate(fields, grid.time.dt, "time", p, time_lags)
    space_fit = holder_estimate(
        fields, grid.dx, "space", p, space_lags, periodic_space=True
    )
    return {
        "time_fit": time_fit,
        "space_fit": space_fit,
        "window_nodes": (int(window[0]), int(window[-1])),
        "replicas": replicas,
    }
