"""Hermite polynomials and scalar special functions used by the closed forms.

Hermite polynomials here are the probabilists' ones,

    H_0 = 1,  H_1(x) = x,  H_{n+1}(x) = x H_n(x) - n H_{n-1}(x),

the family appearing in chaos expansions through the generating function
exp(tx - t^2/2) = sum_n t^n/n! H_n(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError

DEFAULT_MAX_ORDER = 200

# Rescale the running recurrence pair whenever it exceeds this magnitude;
# values are carried as mantissa * 2**exponent.
_SCALE_LIMIT = 1e300
_SCALE_SHIFT = 1024


def _hermite_scaled_seq(n: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """All orders 0..n at a scalar x, as (mantissa, base-2 exponent) pairs.

    The forward three-term recurrence is numerically stable for these
    polynomials; the scaling only guards against overflow of the raw values
    for large n (|H_n| grows like sqrt(n!)).
    """
    mant = np.empty(n + 1)
    exp2 = np.zeros(n + 1, dtype=np.int64)
    mant[0] = 1.0
    if n == 0:
        return mant, exp2
    mant[1] = x
    h_prev, h_cur = 1.0, x
    e_prev, e_cur = 0, 0
    for k in range(1, n):
        # h_prev is carried at the same scale as h_cur before each step.
        h_next = x * h_cur - k * h_prev * 2.0 ** (e_prev - e_cur)
        e_next = e_cur
        if abs(h_next) > _SCALE_LIMIT:
            h_next *= 2.0**-_SCALE_SHIFT
            h_cur *= 2.0**-_SCALE_SHIFT
            e_next = e_cur + _SCALE_SHIFT
            e_cur = e_next
        h_prev, e_prev = h_cur, e_cur
        h_cur, e_cur = h_next, e_next
        mant[k + 1] = h_cur
        exp2[k + 1] = e_cur
    return mant, exp2


@dataclass(frozen=True)
class HermiteTable:
    """Evaluator for H_n up to a configured maximum order."""

    max_order: int = DEFAULT_MAX_ORDER

    def values(self, n: int, x: float) -> np.ndarray:
        """H_0(x)..H_n(x) as a dense array (overflows to +-inf if unrepresentable)."""
        mant, exp2 = self.values_scaled(n, x)
        with np.errstate(over="ignore"):
            return np.ldexp(mant, exp2)

    def values_scaled(self, n: int, x: float) -> tuple[np.ndarray, np.ndarray]:
        """Scaled representation (mantissa, exp2); exact for orders beyond overflow."""
        if n < 0:
            raise DomainError(f"Hermite order must be >= 0, got {n}")
        if n > self.max_order:
            raise CapabilityError(
                f"Hermite order {n} exceeds configured maximum {self.max_order}"
            )
        return _hermite_scaled_seq(n, float(x))


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x), absolute error <= 1e-12.

    Evaluated through the complementary error function, whose C library
    implementation switches between a small-|x| series and a large-|x|
    continued-fraction branch.
    """
    return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)
