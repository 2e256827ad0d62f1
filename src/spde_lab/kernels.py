"""Fundamental solutions of the heat and wave operators and scalar kernels.

For the heat operator d/dt - (1/2) Laplacian,

    G(t, x) = (2 pi t)^(-d/2) exp(-|x|^2 / (2t)),

and for the wave operator in d = 1, 2,

    G(t, x) = (1/2) 1{|x| < t},
    G(t, x) = (2 pi)^(-1) (t^2 - |x|^2)^(-1/2) 1{|x| < t}.

In d = 3 the wave kernel is a surface measure and is not pointwise
evaluable; queries are rejected. g(s) = integral of G(s, .)^2 over space is
available in closed form where the toolkit's experiments need it:
(4 pi s)^(-1/2) for heat d=1 and s/2 for wave d=1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError

HEAT = "heat"
WAVE = "wave"


@dataclass(frozen=True)
class OperatorSpec:
    kind: str
    dim: int = 1

    def __post_init__(self):
        if self.kind not in (HEAT, WAVE):
            raise DomainError(f"operator kind must be 'heat' or 'wave', got {self.kind!r}")
        if self.dim < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dim}")


def _norm(x, d: int):
    """Euclidean norm; scalars are radii (the kernels are radial)."""
    x = np.asarray(x, dtype=float)
    if d == 1 or x.ndim == 0:
        return np.abs(x)
    if x.shape[-1] != d:
        raise DomainError(f"point has {x.shape[-1]} coordinates, expected {d}")
    return np.sqrt(np.sum(x * x, axis=-1))


def heat_kernel(t: float, x, d: int = 1):
    """Gaussian fundamental solution of the heat operator; t > 0."""
    if not t > 0:
        raise DomainError(f"heat kernel needs t > 0, got {t}")
    r = _norm(x, d)
    with np.errstate(over="ignore"):  # r^2 / 2t beyond float range: exp(-inf) = 0
        return (2.0 * math.pi * t) ** (-d / 2.0) * np.exp(-(r * r) / (2.0 * t))


def wave_kernel(t: float, x, d: int = 1):
    """Wave fundamental solution for d in {1, 2}; d = 3 is measure-valued."""
    if not t > 0:
        raise DomainError(f"wave kernel needs t > 0, got {t}")
    if d == 3:
        raise CapabilityError(
            "wave kernel in d=3 is the surface measure sigma_t / (4 pi); "
            "pointwise values are undefined"
        )
    if d not in (1, 2):
        raise CapabilityError(f"wave kernel supported for d in {{1, 2}}, got d={d}")
    r = _norm(x, d)
    inside = r < t
    if d == 1:
        return np.where(inside, 0.5, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = np.where(inside, 1.0 / (2.0 * math.pi * np.sqrt(t * t - r * r)), 0.0)
    return vals


def g_squared_integral(op: OperatorSpec, s: float) -> float:
    """g(s) = integral over space of G(s, y)^2.

    Closed form only for the combinations the experiments use:
    heat d=1 gives (4 pi s)^(-1/2), wave d=1 gives s/2.
    """
    if not s > 0:
        raise DomainError(f"g(s) needs s > 0, got {s}")
    if op.kind == HEAT and op.dim == 1:
        return (4.0 * math.pi * s) ** -0.5
    if op.kind == WAVE and op.dim == 1:
        return s / 2.0
    raise CapabilityError(
        f"g(s) in closed form only for heat/wave d=1, got {op.kind} d={op.dim}"
    )


def riesz_kernel(alpha: float, x, d: int | None = None):
    """Riesz spatial covariance kernel |x|^(-alpha), alpha in (0, d)."""
    if d is not None and not (0.0 < alpha < d):
        raise DomainError(f"Riesz kernel needs alpha in (0, d)=(0,{d}), got {alpha}")
    if d is None and not alpha > 0:
        raise DomainError(f"Riesz kernel needs alpha > 0, got {alpha}")
    r = _norm(x, d if d is not None else 1)
    if np.any(r == 0.0):
        raise DomainError(
            "Riesz kernel is singular at 0; integrate over cells "
            "(noise.cell_covariance) instead of evaluating pointwise"
        )
    return r ** (-alpha)


def gamma_fractional(hurst: float, t):
    """Temporal covariance kernel |t|^(2H-2) for H in (1/2, 1).

    This is the raw kernel; the fBm normalization alpha_H = H(2H-1)
    multiplies it wherever cell masses or FK weights are formed.
    """
    if not 0.5 < hurst < 1.0:
        raise DomainError(f"fractional kernel needs H in (1/2, 1), got {hurst}")
    t = np.asarray(t, dtype=float)
    if np.any(t == 0.0):
        raise DomainError(
            "fractional kernel is singular at 0; integrate over cells "
            "(noise.cell_covariance) instead of evaluating pointwise"
        )
    return np.abs(t) ** (2.0 * hurst - 2.0)


def alpha_h(hurst: float) -> float:
    """fBm normalization H(2H-1) so that R_H = alpha_H * double integral of the kernel."""
    return hurst * (2.0 * hurst - 1.0)
