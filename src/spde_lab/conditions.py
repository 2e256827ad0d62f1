"""Existence-condition checkers and closed-form regularity predictors.

The random-field existence conditions are spectral integrability criteria of
the form

    integral over R^d of (1 + |xi|^2)^(-kappa) mu(d xi) < infinity,

with kappa = 1 (Dalang), kappa = 2H (heat, fractional time) and
kappa = H + 1/2 (wave, fractional time). For radial measures
mu(d xi) = c |xi|^beta d xi this reduces to a one-dimensional Beta integral
B(a, kappa) = int_0^inf r^(a-1) (1+r^2)^(-kappa) dr, finite iff 0 < a < 2 kappa:
every closed-form verdict is decided and valued by that one rule. Quadrature
(``dalang_integral_numeric``, the independent oracle) only ever certifies the
value of a convergent integral, never divergence.

Reported integral estimates are the radial profile integrals

    int_0^inf r^(d-1) rho(r) w(r) dr

without the angular surface constant; closed-form and quadrature paths use
the same convention so their values are directly comparable.

The quadrature is a fixed tanh-sinh (double-exponential) rule on (0, 1) in
numpy, so no route here loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DomainError, InputError, NumericalError
from .kernels import HEAT, WAVE, OperatorSpec
from .rng import as_generator, row_chunks

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"


@dataclass(frozen=True)
class ConditionVerdict:
    satisfied: bool
    integral_estimate: float | None
    method: str
    parameters: dict = field(default_factory=dict)
    divergent: bool = False

    def to_dict(self) -> dict:
        estimate: object
        if self.divergent:
            estimate = "divergent"
        else:
            estimate = self.integral_estimate
        return {
            "satisfied": self.satisfied,
            "estimate": estimate,
            "method": self.method,
            "parameters": dict(self.parameters),
        }


@dataclass(frozen=True)
class SpectralMeasure:
    """Radial measure with density ``constant * r**exponent``; exponent 0 is Lebesgue."""

    exponent: float = 0.0
    constant: float = 1.0

    def __post_init__(self):
        if self.constant <= 0:
            raise DomainError(f"measure constant must be positive, got {self.constant}")

    @staticmethod
    def riesz_dual(alpha: float, d: int) -> "SpectralMeasure":
        """Spectral measure of the Riesz kernel |x|^(-alpha): density ~ |xi|^(alpha-d)."""
        if not 0.0 < alpha < d:
            raise DomainError(f"Riesz measure needs alpha in (0, d)=(0,{d}), got {alpha}")
        return SpectralMeasure(alpha - d, 1.0)


def _beta_integral(a: float, kappa: float) -> float:
    """int_0^inf r^(a-1) (1+r^2)^(-kappa) dr = Gamma(a/2) Gamma(kappa-a/2) / (2 Gamma(kappa))."""
    try:
        return math.exp(
            math.lgamma(a / 2.0) + math.lgamma(kappa - a / 2.0) - math.lgamma(kappa)
        ) / 2.0
    except (ValueError, OverflowError):  # a / 2 underflows to 0, or Gamma(a/2) ~ 2/a overflows
        raise NumericalError(f"the integral overflows at a={a}, kappa={kappa}") from None


def _beta_verdict(a: float, kappa: float, params: dict, scale: float = 1.0) -> ConditionVerdict:
    """The closed-form verdict rule: divergent unless a < 2 kappa, else
    scale * B(a, kappa). Callers check a > 0, the Beta integral's other end."""
    if not a < 2.0 * kappa:
        return ConditionVerdict(False, None, CLOSED_FORM, params, divergent=True)
    return ConditionVerdict(True, scale * _beta_integral(a, kappa), CLOSED_FORM, params)


def check_dalang_riesz(alpha: float, d: int) -> ConditionVerdict:
    """Dalang's condition for the Riesz kernel: satisfied iff alpha < min(d, 2)."""
    if not 0.0 < alpha < d:
        raise DomainError(f"Riesz kernel needs alpha in (0, d)=(0,{d}), got {alpha}")
    return _beta_verdict(alpha, 1.0, {"alpha": alpha, "d": d, "kappa": 1.0})


def check_fractional(op_kind: str, alpha: float, hurst: float, d: int) -> ConditionVerdict:
    """Existence of the linear solution with fractional time / Riesz space noise.

    heat: alpha < 4H (kappa = 2H); wave: alpha < 2H + 1 (kappa = H + 1/2).
    Boundary cases are genuinely divergent, so inequalities are strict.
    """
    if op_kind not in (HEAT, WAVE):
        raise DomainError(f"operator kind must be 'heat' or 'wave', got {op_kind!r}")
    if not 0.5 < hurst < 1.0:
        raise DomainError(f"Hurst index must lie in (1/2,1), got {hurst}")
    if not 0.0 < alpha < d:
        raise DomainError(f"Riesz kernel needs alpha in (0, d)=(0,{d}), got {alpha}")
    kappa = 2.0 * hurst if op_kind == HEAT else hurst + 0.5
    params = {"op": op_kind, "alpha": alpha, "hurst": hurst, "d": d, "kappa": kappa}
    return _beta_verdict(alpha, kappa, params)


# tanh-sinh rule on (0, 1): x = 1 / (1 + exp(s)), s = pi sinh(t), t = k h with
# |k| <= _TS_NODES (|t| <= 4), so log x and the weight dx/dt = pi cosh(t) x (1 - x)
# come from s, never from 1 - x; at h = 1/32 it matches the Beta closed form to
# about 1e-14 relative for kappa <= 30, a and e down to 1e-15 included
_TS_STEP = 1.0 / 32.0
_TS_NODES = 128


def _unit_integral(q: float, kappa: float) -> float:
    """int_0^1 (1 + x^q)^(-kappa) dx for q > 0, by the tanh-sinh rule."""
    t = np.arange(-_TS_NODES, _TS_NODES + 1) * _TS_STEP
    s = np.pi * np.sinh(t)
    weights = _TS_STEP * np.pi * np.cosh(t) / (2.0 + 2.0 * np.cosh(s))
    x_q = np.exp(q * -np.logaddexp(0.0, s))
    return float(weights @ np.exp(-kappa * np.log1p(x_q)))


def dalang_integral_numeric(
    mu: SpectralMeasure, kappa: float, d: int
) -> ConditionVerdict:
    """Radial reduction of int (1+|xi|^2)^(-kappa) mu(d xi).

    Finiteness is decided from the integrand exponents (near 0 the measure
    must be locally finite, in the tail r^(d-1+beta-2kappa) must decay
    faster than r^(-1)); the value comes from quadrature. With a = d + beta
    and e = 2 kappa - a, r = v^(1/a) maps [0, 1] and r = w^(-1/e) maps
    [1, inf) onto the unit interval, where both pieces are bounded:

        c/a int_0^1 (1 + v^(2/a))^(-kappa) dv + c/e int_0^1 (1 + w^(2/e))^(-kappa) dw.
    """
    beta = mu.exponent
    a = d + beta
    if a <= 0.0:
        raise DomainError(
            f"measure density r^{beta} is not locally finite in d={d} (needs beta > -d)"
        )
    params = {"beta": beta, "constant": mu.constant, "kappa": kappa, "d": d}
    if a >= 2.0 * kappa:
        return ConditionVerdict(False, None, QUADRATURE, params, divergent=True)
    e = 2.0 * kappa - a
    with np.errstate(invalid="ignore"):  # inf * 0 at kappa = inf; checked next
        value = (mu.constant / a * _unit_integral(2.0 / a, kappa)
                 + mu.constant / e * _unit_integral(2.0 / e, kappa))
    if not 0.0 < value < math.inf:  # the integrand is positive: 0 underflowed
        raise NumericalError(f"the integral overflows or underflows at a={a}, kappa={kappa}")
    return ConditionVerdict(True, value, QUADRATURE, params)


def predicted_holder(
    op_kind: str,
    eta: float | None = None,
    alpha: float | None = None,
    hurst: float | None = None,
) -> tuple[float, float]:
    """Predicted Holder orders (time, space), without the epsilon loss.

    heat with spectral parameter eta: ((1-eta)/2, 1-eta);
    heat with Riesz alpha and fractional H: ((2H - alpha/2)/2, 2H - alpha/2),
    space order capped at 1; wave with eta: (1-eta, 1-eta).
    """
    if op_kind not in (HEAT, WAVE):
        raise DomainError(f"operator kind must be 'heat' or 'wave', got {op_kind!r}")
    if eta is not None:
        if not 0.0 < eta < 1.0:
            raise DomainError(f"eta must lie in (0,1), got {eta}")
        if op_kind == HEAT:
            return (1.0 - eta) / 2.0, 1.0 - eta
        return 1.0 - eta, 1.0 - eta
    if alpha is None or hurst is None:
        raise InputError("provide either eta or both alpha and hurst")
    if op_kind != HEAT:
        raise CapabilityError(
            "fractional-time Holder improvement is only available for the heat operator; "
            "use eta for the wave equation"
        )
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha must lie in (0, d wedge 2) subset (0,2), got {alpha}")
    if not 0.5 < hurst < 1.0:
        raise DomainError(f"Hurst index must lie in (1/2,1), got {hurst}")
    space = 2.0 * hurst - alpha / 2.0
    return 0.5 * space, min(1.0, space)


# ---------------------------------------------------------------------------
# Dalang-Gronwall certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GronwallCertificate:
    """Monte Carlo estimates of the extension-of-Gronwall coefficients.

    a_n = G(T)^n P(S_n <= T) with S_n a sum of n i.i.d. draws from the
    density g / G(T); bounds[n] = M a_n dominates the n-th Picard increment.
    """

    orders: np.ndarray
    a_n: np.ndarray
    stderr: np.ndarray
    bounds: np.ndarray
    partial_sums_p1: np.ndarray
    partial_sums_p2: np.ndarray
    g_total: float
    replicas: int

    def tail(self, p: int, last: int = 5) -> float:
        sums = self.partial_sums_p1 if p == 1 else self.partial_sums_p2
        return float(sums[-1] - sums[-1 - last])


def _profile_sampler(profile, T: float):
    """G(T) = int_0^T g(s) ds and an inverse-CDF sampler for g / G(T) on [0, T]."""
    if isinstance(profile, OperatorSpec):
        if profile.kind == HEAT and profile.dim == 1:
            # g(s) = (4 pi s)^(-1/2): G(T) = sqrt(T / pi), density ~ s^(-1/2): T U^2
            return math.sqrt(T / math.pi), lambda u: T * u * u
        if profile.kind == WAVE and profile.dim == 1:
            # g(s) = s / 2: G(T) = T^2 / 4, density ~ s: T sqrt(U)
            return T * T / 4.0, lambda u: T * np.sqrt(u)
        raise CapabilityError("certificate profiles: heat/wave d=1 or a constant")
    beta = float(profile)
    if beta < 0:
        raise DomainError(f"constant profile must be nonnegative, got {beta}")
    return beta * T, lambda u: T * u


def dalang_gronwall_certificate(
    profile,
    T: float,
    M: float = 1.0,
    n_max: int = 20,
    mc_replicas: int = 100_000,
    *,
    rng,
) -> GronwallCertificate:
    """Estimate a_n = G(T)^n P(S_n <= T) for n = 0..n_max by Monte Carlo.

    ``profile`` is an OperatorSpec (heat/wave, d=1) or a nonnegative float
    for the constant-kernel classical case, where a_n = (beta T)^n / n!.
    ``rng`` (an RngStream or a numpy Generator) drives the draws.
    """
    if T <= 0:
        raise DomainError(f"T must be positive, got {T}")
    if not M >= 0:
        raise DomainError(f"M must be nonnegative, got {M}")
    if n_max < 0:
        raise InputError(f"n_max must be >= 0, got {n_max}")
    if mc_replicas < 2:  # one replica has no standard error
        raise InputError(f"mc_replicas must be >= 2, got {mc_replicas}")
    g_total, inv_cdf = _profile_sampler(profile, T)
    if g_total == 0.0:
        raise InputError("degenerate profile: G(T) = 0")
    gen = as_generator(rng)
    # one chunk of replicas at a time: the chunks draw the rows of one
    # (mc_replicas, n_max) array in order, and integer counts add exactly
    inside = np.zeros(n_max, dtype=np.int64)
    for lo, hi in row_chunks(mc_replicas, 8 * n_max) if n_max else ():
        with np.errstate(over="ignore"):  # a sum beyond float range is beyond T too
            s = np.cumsum(inv_cdf(gen.random((hi - lo, n_max))), axis=1)
        inside += np.count_nonzero(s <= T, axis=0)
    p_hat = np.empty(n_max + 1)
    p_err = np.empty(n_max + 1)
    p_hat[0], p_err[0] = 1.0, 0.0
    p_hat[1:] = inside / mc_replicas
    p_err[1:] = np.sqrt(p_hat[1:] * (1.0 - p_hat[1:]) / mc_replicas)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = g_total ** np.arange(n_max + 1)
        a_n = powers * p_hat
        cert = GronwallCertificate(
            orders=np.arange(n_max + 1),
            a_n=a_n,
            stderr=powers * p_err,
            bounds=M * a_n,
            partial_sums_p1=np.cumsum(a_n),
            partial_sums_p2=np.cumsum(np.sqrt(a_n)),
            g_total=g_total,
            replicas=mc_replicas,
        )
    arrays = [cert.a_n, cert.stderr, cert.bounds, cert.partial_sums_p1, cert.partial_sums_p2]
    if not (math.isfinite(g_total) and np.all(np.isfinite(arrays))):
        raise NumericalError(f"certificate overflows: G(T) = {g_total}, n_max = {n_max}, M = {M}")
    return cert
