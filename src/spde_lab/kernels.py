"""The fundamental solution of the heat operator and the operator specs.

For the heat operator d/dt - (1/2) Laplacian,

    G(t, x) = (2 pi t)^(-d/2) exp(-|x|^2 / (2t)).

``OperatorSpec`` names a heat or wave operator and its dimension for the
existence conditions and the Gronwall certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

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
