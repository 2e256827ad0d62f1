import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

from spde_lab import conditions, rng
from spde_lab.conditions import (
    GronwallCertificate,
    SpectralMeasure,
    check_dalang_riesz,
    check_fractional,
    dalang_gronwall_certificate,
    dalang_integral_numeric,
    predicted_holder,
)
from spde_lab.errors import CapabilityError, DomainError, InputError, NumericalError
from spde_lab.kernels import OperatorSpec
from spde_lab.rng import CHUNK_BYTES, RngStream, as_generator

from conftest import traced_peak

ALPHAS = (0.25, 0.75, 1.25, 1.75)
HURSTS = (0.55, 0.65, 0.75, 0.85, 0.95)
# g(s), the spatial integral of G(s, .)^2, in closed form for d = 1; the oracle
G_SQUARED = {"heat": lambda s: (4.0 * math.pi * s) ** -0.5, "wave": lambda s: s / 2.0}


def lebesgue() -> SpectralMeasure:
    """Lebesgue measure, the spectral measure of white noise."""
    return SpectralMeasure(0.0, 1.0)


def fractional_time(hurst: float) -> SpectralMeasure:
    """Spectral measure of |t|^(2H-2) on R: density ~ |tau|^(1-2H)."""
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"Hurst index must lie in (0,1), got {hurst}")
    return SpectralMeasure(1.0 - 2.0 * hurst, 1.0)


def general_joint_condition(op_kind, nu, mu, d):
    """Joint time-space criterion with tempered measures nu (time) and mu (space),
    in closed form; check_fractional's second closed-form oracle.

    heat: double integral of 1 / (1 + tau^2 + |xi|^4),
    wave: (1 + |xi|^2)^(-1/2) * 1 / (1 + tau^2 + |xi|^2),
    both against nu (x) mu. With b = beta_t and a = d + beta_s, rescaling
    tau = sqrt(1 + m^2) sigma (m^2 = r^4 heat, r^2 wave) factors the time
    integral into (1 + m^2)^((b - 1)/2) J, J = 2 B(b + 1, 1); the radial
    integral is then B(a/2, (1 - b)/2) / 2 (heat) or B(a, (2 - b)/2) (wave),
    B as in ``conditions._beta_integral``. It diverges unless -1 < b < 1 and
    the radial Beta integral converges. For nu = fractional_time(H) and
    mu = riesz_dual(alpha, d) the verdict is check_fractional's, reached
    through another pair of Beta integrals.
    """
    if op_kind not in ("heat", "wave"):
        raise DomainError(f"operator kind must be 'heat' or 'wave', got {op_kind!r}")
    bt, bs = nu.exponent, mu.exponent
    params = {"op": op_kind, "beta_t": bt, "beta_s": bs, "d": d}
    if not -1.0 < bt < 1.0:
        return conditions.ConditionVerdict(False, None, conditions.CLOSED_FORM, params,
                                           divergent=True)
    a = d + bs
    if a <= 0.0:
        raise DomainError(f"space measure density r^{bs} is not locally finite in d={d}")
    # J = 2 B(b + 1, 1) = 2 B(1 - |b|, 1), as B(a, kappa) = B(2 kappa - a, kappa);
    # 1 - |b| is exact next to |b| = 1, where b + 1 would round
    scale = nu.constant * mu.constant * 2.0 * conditions._beta_integral(1.0 - abs(bt), 1.0)
    if op_kind == "heat":
        return conditions._beta_verdict(a / 2.0, (1.0 - bt) / 2.0, params, scale / 2.0)
    return conditions._beta_verdict(a, (2.0 - bt) / 2.0, params, scale)


def _reference_joint_quadrature(op_kind, nu, mu, d):
    """The joint condition's value by iterated adaptive quadrature, the way
    general_joint_condition computed it before its closed form; the oracle.
    Only for convergent cases: -1 < beta_t < 1 and d + beta_s below the tail
    threshold."""
    bt, a_out = nu.exponent, d + mu.exponent
    # J = int_R |sigma|^bt / (1+sigma^2) dsigma; sigma = v^(1/at) flattens [0,1]
    at = bt + 1.0
    j_head, _ = integrate.quad(
        lambda v: 1.0 / at / (1.0 + v ** (2.0 / at)), 0.0, 1.0, epsabs=1e-12, epsrel=1e-12
    )
    j_tail, _ = integrate.quad(
        lambda s: s**bt / (1.0 + s * s), 1.0, np.inf, epsabs=1e-12, epsrel=1e-12
    )
    j_value = 2.0 * (j_head + j_tail)

    def smooth_part(r):
        # the time integral at m^2 is (1 + m^2)^((bt - 1)/2) J
        m2 = r**4 if op_kind == "heat" else r * r
        w = 1.0 if op_kind == "heat" else (1.0 + r * r) ** -0.5
        return mu.constant * w * nu.constant * (1.0 + m2) ** (0.5 * (bt - 1.0)) * j_value

    # r = v^(1/a_out) on [0,1]: the weight r^(a_out-1) dr becomes dv / a_out
    head, _ = integrate.quad(
        lambda v: smooth_part(v ** (1.0 / a_out)) / a_out, 0.0, 1.0,
        epsabs=1e-9, epsrel=1e-9, limit=200,
    )
    tail, _ = integrate.quad(
        lambda r: r ** (a_out - 1.0) * smooth_part(r), 1.0, np.inf,
        epsabs=1e-9, epsrel=1e-9, limit=200,
    )
    return head + tail


# (alpha, d) for the joint-condition sweep, crossed with both operators and JOINT_HURSTS
JOINT_RIESZ = ((0.01, 1), (0.25, 1), (0.5, 1), (0.9, 1), (1.5, 2), (1.9, 2), (2.5, 3))
JOINT_HURSTS = (0.51, 0.55, 0.75, 0.95, 0.999)


def _reference_quad(mu, kappa, d):
    """dalang_integral_numeric's value by scipy's adaptive quad, the way it was
    computed before the tanh-sinh rule; the oracle. Only for convergent cases."""
    a = d + mu.exponent
    # r = v^(1/a) on [0,1]: the weight r^(a-1) dr becomes dv / a
    head, _ = integrate.quad(
        lambda v: mu.constant / a * (1.0 + v ** (2.0 / a)) ** -kappa, 0.0, 1.0,
        epsabs=1e-12, epsrel=1e-12,
    )
    tail, _ = integrate.quad(
        lambda r: mu.constant * r ** (a - 1.0) * (1.0 + r * r) ** -kappa, 1.0, np.inf,
        epsabs=1e-12, epsrel=1e-12,
    )
    return head + tail


def _beta_closed_form(a, kappa):
    """B(a, kappa) = Gamma(a/2) Gamma(kappa - a/2) / (2 Gamma(kappa))."""
    return math.exp(math.lgamma(a / 2) + math.lgamma(kappa - a / 2) - math.lgamma(kappa)) / 2


def _whole_array_certificate(profile, T, M, n_max, mc_replicas, rng):
    """The certificate's arrays as dalang_gronwall_certificate computed them
    before it drew per chunk: one (mc_replicas, n_max) draw; the oracle."""
    g_total, inv_cdf = conditions._profile_sampler(profile, T)
    u = as_generator(rng).random((mc_replicas, n_max))
    with np.errstate(over="ignore"):
        s = np.cumsum(inv_cdf(u), axis=1)
    p_hat = np.empty(n_max + 1)
    p_err = np.empty(n_max + 1)
    p_hat[0], p_err[0] = 1.0, 0.0
    inside = s <= T
    p_hat[1:] = inside.mean(axis=0)
    p_err[1:] = np.sqrt(p_hat[1:] * (1.0 - p_hat[1:]) / mc_replicas)
    powers = g_total ** np.arange(n_max + 1)
    a_n = powers * p_hat
    return {"a_n": a_n, "stderr": powers * p_err, "bounds": M * a_n,
            "partial_sums_p1": np.cumsum(a_n), "partial_sums_p2": np.cumsum(np.sqrt(a_n))}


class TestClosedFormChecks:
    def test_dalang_riesz(self):
        assert check_dalang_riesz(1.5, 3).satisfied
        assert not check_dalang_riesz(2.0, 3).satisfied
        assert check_dalang_riesz(0.5, 1).satisfied
        with pytest.raises(DomainError):
            check_dalang_riesz(3.5, 3)
        with pytest.raises(DomainError):
            check_dalang_riesz(0.0, 2)

    def test_fractional(self):
        assert check_fractional("heat", 2.5, 0.7, 3).satisfied  # 2.5 < 2.8
        assert not check_fractional("wave", 2.5, 0.7, 3).satisfied  # 2.5 >= 2.4
        with pytest.raises(DomainError):
            check_fractional("heat", 1.0, 0.4, 3)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310])
    def test_estimate_beyond_float_range_raises(self, alpha):
        # Gamma(alpha/2) ~ 2/alpha: alpha/2 underflows to 0 at the smallest
        # float and the estimate overflows at 1e-310
        with pytest.raises(NumericalError):
            check_dalang_riesz(alpha, 2)
        with pytest.raises(NumericalError):
            check_fractional("heat", alpha, 0.7, 1)
        assert check_dalang_riesz(1e-300, 2).integral_estimate == pytest.approx(1e300)

    def test_h_half_limit_matches_dalang(self):
        # as H -> 1/2 both conditions reduce to alpha < 2 (Riesz, alpha < d)
        h = 0.5 + 1e-9
        for d in (2, 3):
            for alpha in (0.5, 1.0, 1.5, 1.9):
                frac = check_fractional("heat", alpha, h, d)
                assert frac.satisfied == check_dalang_riesz(alpha, d).satisfied
                wave = check_fractional("wave", alpha, h, d)
                assert wave.satisfied == check_dalang_riesz(alpha, d).satisfied

    def test_estimate_matches_quadrature(self):
        v = check_dalang_riesz(1.5, 3)
        n = dalang_integral_numeric(SpectralMeasure.riesz_dual(1.5, 3), 1.0, 3)
        assert v.integral_estimate == pytest.approx(n.integral_estimate, rel=1e-10)

    def test_json_serialization(self):
        d = check_dalang_riesz(1.5, 3).to_dict()
        assert set(d) == {"satisfied", "estimate", "method", "parameters"}
        d2 = check_dalang_riesz(2.5, 3).to_dict()
        assert d2["estimate"] == "divergent" and d2["satisfied"] is False


class TestNumericIntegral:
    def test_white_noise_case(self):
        # Lebesgue measure, kappa=1, d=1: finite, radial value pi/2
        assert lebesgue() == SpectralMeasure(exponent=0.0)
        v = dalang_integral_numeric(lebesgue(), 1.0, 1)
        assert v.satisfied
        assert v.integral_estimate == pytest.approx(math.pi / 2, rel=1e-10)
        assert not dalang_integral_numeric(lebesgue(), 1.0, 2).satisfied

    def test_divergent_flag_from_tail_exponent(self):
        # kappa = 2H with 4H < alpha -> divergent
        h, alpha, d = 0.55, 2.5, 3
        assert 4 * h < alpha
        v = dalang_integral_numeric(SpectralMeasure.riesz_dual(alpha, d), 2 * h, d)
        assert v.divergent and not v.satisfied

    def test_verdict_coherence_sweep(self):
        # numeric and closed-form verdicts agree on a 4 x 5 x 3 sweep
        for d in (1, 2, 3):
            for alpha in ALPHAS:
                if not alpha < d:
                    continue
                for h in HURSTS:
                    mu = SpectralMeasure.riesz_dual(alpha, d)
                    heat = dalang_integral_numeric(mu, 2 * h, d)
                    assert heat.satisfied == check_fractional("heat", alpha, h, d).satisfied
                    wave = dalang_integral_numeric(mu, h + 0.5, d)
                    assert wave.satisfied == check_fractional("wave", alpha, h, d).satisfied
                    dal = dalang_integral_numeric(mu, 1.0, d)
                    assert dal.satisfied == check_dalang_riesz(alpha, d).satisfied

    def test_monotonicity_of_verdicts(self):
        # decreasing alpha or increasing H never flips satisfied -> unsatisfied
        for d in (1, 2, 3):
            for h_lo, h_hi in zip(HURSTS[:-1], HURSTS[1:]):
                for a_lo, a_hi in zip(ALPHAS[:-1], ALPHAS[1:]):
                    if not a_hi < d:
                        continue
                    if check_fractional("heat", a_hi, h_lo, d).satisfied:
                        assert check_fractional("heat", a_lo, h_lo, d).satisfied
                        assert check_fractional("heat", a_hi, h_hi, d).satisfied

    def test_local_finiteness_guard(self):
        with pytest.raises(DomainError):
            dalang_integral_numeric(SpectralMeasure(exponent=-2.5), 1.0, 2)

    # at e = 1e-3 quad's tail on [1, inf) reports roundoff but still agrees to 1e-10
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_matches_adaptive_quadrature_sweep(self):
        # a = alpha near 0 and e = 2 kappa - a near 0 sharpen the unit-interval
        # integrands next to 1; the constant scales the value
        cases = 0
        for d in (1, 2, 3):
            for kappa in (1.0, 1.1, 1.3, 1.5, 1.9):
                alphas = (1e-3, 0.1, 0.25, 0.5, 0.9, 1.25, 1.75, 2.5, 2.9, 2 * kappa - 1e-3)
                for alpha in alphas:
                    if not alpha < min(d, 2 * kappa):
                        continue
                    mu = SpectralMeasure(alpha - d, 2.5)
                    v = dalang_integral_numeric(mu, kappa, d)
                    assert v.satisfied and v.method == "quadrature"
                    ref = _reference_quad(mu, kappa, d)
                    assert v.integral_estimate == pytest.approx(ref, rel=1e-10), (d, kappa, alpha)
                    exact = 2.5 * _beta_closed_form(alpha, kappa)
                    assert v.integral_estimate == pytest.approx(exact, rel=1e-12), (d, kappa, alpha)
                    cases += 1
        assert cases >= 80

    @pytest.mark.parametrize("kappa", [0.05, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("a", [1e-15, 1e-9, "2k-1e-9", "2k-ulp"])
    def test_matches_closed_form_at_float_extremes(self, kappa, a):
        # where the adaptive quadrature gives up, the Beta closed form still holds
        a = {"2k-1e-9": 2 * kappa - 1e-9, "2k-ulp": math.nextafter(2 * kappa, 0)}.get(a, a)
        v = dalang_integral_numeric(SpectralMeasure(a - 1.0), kappa, 1)
        a = 1.0 + (a - 1.0)  # the exponent a the measure really has
        assert v.integral_estimate == pytest.approx(_beta_closed_form(a, kappa), rel=1e-12)

    @pytest.mark.parametrize("constant, exponent, kappa", [
        (1e308, -0.5, 1.0),  # c / a = 2e308
        (1e308, 0.5, 1.0),  # c / e = 2e308
        (1.0, -0.5, 1e308),  # (1 + v^4)^(-kappa) is 0 at every node
        (1.0, -0.9, math.inf),  # inf * 0
    ], ids=["head-overflow", "tail-overflow", "underflow", "kappa-inf"])
    def test_value_beyond_float_range_raises(self, constant, exponent, kappa):
        with pytest.raises(NumericalError, match="overflows or underflows"):
            dalang_integral_numeric(SpectralMeasure(exponent, constant), kappa, 1)


class TestJointCondition:
    def test_matches_fractional_sweep(self):
        for h in (0.55, 0.75, 0.95):
            for alpha in (0.25, 0.5, 0.75):
                nu = fractional_time(h)
                mu = SpectralMeasure.riesz_dual(alpha, 1)
                jh = general_joint_condition("heat", nu, mu, 1)
                assert jh.satisfied == check_fractional("heat", alpha, h, 1).satisfied
                jw = general_joint_condition("wave", nu, mu, 1)
                assert jw.satisfied == check_fractional("wave", alpha, h, 1).satisfied

    def test_lebesgue_time_matches_dalang(self):
        for alpha, d in [(0.5, 1), (1.5, 2), (1.9, 3)]:
            j = general_joint_condition(
                "heat", lebesgue(), SpectralMeasure.riesz_dual(alpha, d), d
            )
            assert j.satisfied == check_dalang_riesz(alpha, d).satisfied

    def test_riesz_range_enforced(self):
        with pytest.raises(DomainError):
            SpectralMeasure.riesz_dual(2.0, 2)

    @pytest.mark.parametrize("op", ["heat", "wave"])
    @pytest.mark.parametrize("alpha, d", JOINT_RIESZ)
    def test_closed_form_matches_reference_quadrature(self, op, alpha, d):
        convergent = 0
        for h in JOINT_HURSTS:
            nu, mu = fractional_time(h), SpectralMeasure.riesz_dual(alpha, d)
            j = general_joint_condition(op, nu, mu, d)
            assert j.method == "closed_form"
            assert j.satisfied == check_fractional(op, alpha, h, d).satisfied
            if j.satisfied:
                convergent += 1
                ref = _reference_joint_quadrature(op, nu, mu, d)
                assert j.integral_estimate == pytest.approx(ref, rel=1e-10)
        # every (op, alpha, d) row has convergent cases; 65 over the sweep
        assert convergent >= 1

    def test_constants_scale_the_value(self):
        nu, mu = SpectralMeasure(-0.4, 3.0), SpectralMeasure(-0.5, 0.5)
        for op in ("heat", "wave"):
            value = general_joint_condition(op, nu, mu, 1).integral_estimate
            ref = _reference_joint_quadrature(op, nu, mu, 1)
            assert value == pytest.approx(ref, rel=1e-10)

    # (op, beta_t, beta_s, d) and the verdict class the iterated quadrature
    # route gave: "satisfied", "divergent" or "DomainError"
    EDGES = [
        ("heat", 1.0, 0.0, 1, "divergent"),
        ("heat", -1.0, 0.0, 1, "divergent"),
        ("wave", math.nextafter(1.0, 2.0), 0.0, 1, "divergent"),
        ("wave", math.nextafter(-1.0, -2.0), 0.0, 1, "divergent"),
        ("heat", math.nextafter(-1.0, 0.0), 0.0, 1, "satisfied"),
        ("wave", math.nextafter(-1.0, 0.0), -1.5, 2, "satisfied"),
        ("heat", math.nextafter(1.0, 0.0), -0.999, 1, "divergent"),
        ("wave", math.nextafter(1.0, 0.0), -0.999, 1, "satisfied"),
        ("heat", 1.0, -1.5, 1, "divergent"),  # time divergence is decided first
        ("heat", math.nextafter(1.0, 0.0), -1.0, 1, "DomainError"),
        ("wave", 0.5, -1.5, 1, "DomainError"),
        # Lebesgue time measure: heat needs d + beta_s < 2, wave d + beta_s < 2
        ("heat", 0.0, 0.0, 1, "satisfied"),
        ("heat", 0.0, 0.0, 2, "divergent"),
        ("wave", 0.0, 0.0, 1, "satisfied"),
        ("wave", 0.0, 0.0, 2, "divergent"),
    ] + [
        # a = 1 + beta_s one float below, at and above the tail threshold 1.5:
        # 2 (1 - beta_t) for heat at beta_t = 1/4, 2 - beta_t for wave at 1/2
        (op, bt, a - 1.0, 1, "satisfied" if a < 1.5 else "divergent")
        for op, bt in (("heat", 0.25), ("wave", 0.5))
        for a in (math.nextafter(1.5, 0.0), 1.5, math.nextafter(1.5, 2.0))
    ]

    @pytest.mark.parametrize("op, bt, bs, d, expected", EDGES)
    def test_verdict_classes_at_edges(self, op, bt, bs, d, expected):
        nu, mu = SpectralMeasure(bt, 1.0), SpectralMeasure(bs, 1.0)
        if expected == "DomainError":
            with pytest.raises(DomainError):
                general_joint_condition(op, nu, mu, d)
            return
        j = general_joint_condition(op, nu, mu, d)
        assert j.method == "closed_form"
        assert j.satisfied == (expected == "satisfied")
        assert j.divergent == (expected == "divergent")
        if j.satisfied:
            # next to beta_t = +-1 the time integral J ~ 2 / (1 - |beta_t|) is
            # about 1.8e16, beyond what the reference quadrature resolves
            assert math.isfinite(j.integral_estimate) and j.integral_estimate > 0
        else:
            assert j.integral_estimate is None

    def test_loads_no_scipy(self):
        # the closed-form route both verdicts share, run without the test oracles
        code = (
            "import sys\n"
            "from spde_lab.conditions import check_fractional\n"
            "for op in ('heat', 'wave'):\n"
            "    check_fractional(op, 0.5, 0.75, 1)\n"
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_value_against_direct_2d_quadrature(self):
        nu = fractional_time(0.75)
        mu = SpectralMeasure.riesz_dual(0.5, 1)
        j = general_joint_condition("heat", nu, mu, 1)

        def f(tau, r):
            return r**-0.5 * abs(tau) ** -0.5 / (1 + tau**2 + r**4)

        val = 0.0
        for rl, rh in [(0, 1), (1, 200)]:
            for tl, th in [(0, 1), (1, 2000)]:
                v, _ = integrate.dblquad(f, rl, rh, tl, th, epsabs=1e-10)
                val += 2 * v
        assert j.integral_estimate == pytest.approx(val, rel=2e-3)


class TestPredictedHolder:
    def test_heat_eta(self):
        assert predicted_holder("heat", eta=0.5) == (0.25, 0.5)

    def test_heat_riesz_fractional(self):
        t, s = predicted_holder("heat", alpha=1.0, hurst=0.75)
        assert t == pytest.approx(0.5)
        assert s == pytest.approx(1.0)  # 2H - alpha/2 = 1.0, capped at 1
        t2, s2 = predicted_holder("heat", alpha=0.5, hurst=0.9)
        assert s2 == 1.0  # 1.55 capped
        assert t2 == pytest.approx(0.775)

    def test_wave_eta(self):
        assert predicted_holder("wave", eta=0.5) == (0.5, 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            predicted_holder("heat", eta=1.5)
        with pytest.raises(InputError):
            predicted_holder("heat")
        with pytest.raises(CapabilityError):
            predicted_holder("wave", alpha=1.0, hurst=0.75)


class TestGronwallCertificate:
    def test_constant_profile_classical_factorials(self):
        # a_n = (beta T)^n / n! for the classical Gronwall case
        beta, big_t = 2.0, 1.0
        cert = dalang_gronwall_certificate(
            beta, big_t, M=1.0, n_max=6, mc_replicas=200_000, rng=RngStream(3)
        )
        assert cert.a_n[0] == 1.0 and cert.bounds[0] == 1.0
        for n in range(7):
            exact = (beta * big_t) ** n / math.factorial(n)
            assert abs(cert.a_n[n] - exact) <= 3.0 * cert.stderr[n] + 1e-12

    def test_base_case_bound_is_m(self):
        cert = dalang_gronwall_certificate(
            1.0, 1.0, M=7.5, n_max=3, mc_replicas=1000, rng=RngStream(1)
        )
        assert cert.bounds[0] == 7.5

    def test_heat_profile_partial_sums_cauchy(self):
        cert = dalang_gronwall_certificate(
            OperatorSpec("heat", 1), 1.0, n_max=20, mc_replicas=100_000, rng=RngStream(4)
        )
        assert cert.g_total == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-8)
        assert cert.tail(2, last=5) < 1e-3
        assert cert.tail(1, last=5) < 1e-3
        assert isinstance(cert, GronwallCertificate)

    def test_wave_profile_sampler(self):
        # g(s) = s/2, G(T) = T^2/4; a_1 = G(T) exactly since P(S_1 <= T) = 1
        cert = dalang_gronwall_certificate(
            OperatorSpec("wave", 1), 2.0, n_max=4, mc_replicas=50_000, rng=RngStream(5)
        )
        assert cert.g_total == pytest.approx(1.0, rel=1e-10)
        assert cert.a_n[1] == pytest.approx(1.0, abs=3 * cert.stderr[1] + 1e-12)

    @pytest.mark.parametrize("kind", ["heat", "wave"])
    @pytest.mark.parametrize("big_t", [0.25, 0.5, 1.0, 2.0, 3.7])
    def test_closed_form_g_total_matches_quadrature(self, kind, big_t):
        op = OperatorSpec(kind, 1)
        oracle, _ = integrate.quad(G_SQUARED[kind], 0.0, big_t)
        cert = dalang_gronwall_certificate(
            op, big_t, n_max=2, mc_replicas=100, rng=RngStream(0)
        )
        assert cert.g_total == pytest.approx(oracle, rel=1e-12)

    def test_degenerate_profile(self):
        with pytest.raises(InputError):
            dalang_gronwall_certificate(0.0, 1.0, rng=RngStream(0))

    def test_rng_is_required_by_keyword(self):
        with pytest.raises(TypeError):
            dalang_gronwall_certificate(1.0, 1.0)
        with pytest.raises(TypeError):
            dalang_gronwall_certificate(1.0, 1.0, 1.0, 2, 10, RngStream(0))

    @pytest.mark.parametrize("profile, big_t", [
        (OperatorSpec("heat", 1), 0.7), (OperatorSpec("wave", 1), 2.0), (2.0, 1.0),
    ], ids=["heat", "wave", "constant"])
    @pytest.mark.parametrize("replicas, n_max", [
        (2, 20), (5, 0), (13_107, 20), (13_109, 20), (200_001, 1),
    ])
    def test_chunked_draws_match_whole_array(self, profile, big_t, replicas, n_max, monkeypatch):
        # 13_107 rows end in a lone row merged into the chunk before it, 13_109 in three
        def row_chunks(count, row_bytes):
            assert row_bytes > 0
            return rng.row_chunks(count, row_bytes)

        monkeypatch.setattr(conditions, "row_chunks", row_chunks)
        cert = dalang_gronwall_certificate(
            profile, big_t, M=1.5, n_max=n_max, mc_replicas=replicas, rng=RngStream(11)
        )
        ref = _whole_array_certificate(profile, big_t, 1.5, n_max, replicas, RngStream(11))
        for name, values in ref.items():
            assert getattr(cert, name).tobytes() == values.tobytes(), name

    def test_peak_memory_does_not_grow_with_replicas(self):
        # one (400_000, 20) float array alone is 64 MB; a chunk's arrays stay near CHUNK_BYTES
        for replicas in (20_000, 400_000):
            peak = traced_peak(lambda: dalang_gronwall_certificate(
                OperatorSpec("heat", 1), 1.0, n_max=20, mc_replicas=replicas, rng=RngStream(2),
            ))
            assert peak < 6 * CHUNK_BYTES, replicas

    def test_horizon_beyond_float_range_raises(self):
        # T u^2 partial sums overflow (beyond T, so outside) before G(T)^n does
        with pytest.raises(NumericalError, match="overflows"):
            dalang_gronwall_certificate(
                OperatorSpec("heat", 1), sys.float_info.max, n_max=4, mc_replicas=100,
                rng=RngStream(0),
            )
