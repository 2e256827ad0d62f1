import math

import numpy as np
import pytest

from spde_lab import moments, rng
from spde_lab.cli import main
from spde_lab.errors import (
    CapabilityError,
    ConditionNotSatisfiedError,
    DomainError,
    InputError,
    NumericalError,
)
from spde_lab.grids import SpaceTimeGrid, TimeGrid
from spde_lab.moments import (
    estimate_moments,
    fit_log_slope,
    fk_second_moment,
    intermittency_check,
    jackknife_stderr,
    linear_heat_holder_study,
    lyapunov_closed_form,
)
from spde_lab.noise import NoiseSpec, sample_bm_paths, sample_fbm_paths, time_factor_matrix
from spde_lab.rng import RngStream, map_replica_blocks, row_chunks
from spde_lab.solvers import (
    geometric_bm,
    geometric_fbm,
    linear_heat_node_samples,
    pam_log_second_moment,
)

from conftest import traced_peak


class TestEstimateMoments:
    def test_constant_samples(self):
        rows = estimate_moments(np.full(100, 3.0), [1.0, 2.0], model="const", t=1.0)
        assert rows[0].estimate == 3.0 and rows[0].stderr == 0.0
        assert rows[1].estimate == 9.0 and rows[1].stderr == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            estimate_moments(np.array([]), [2.0])
        with pytest.raises(DomainError):
            estimate_moments(np.ones(10), [0.5])

    @pytest.mark.parametrize("x, p", [(np.full(4, 1e200), 2.0), (np.array([1.0, 2.0]), 1e300)],
                             ids=["values", "order"])
    def test_overflowing_moment_raises(self, x, p):
        with pytest.raises(NumericalError, match="not finite"):
            estimate_moments(x, [p])

    def test_underflowing_moment_raises(self):
        # every |X|^2 underflows to 0 while |X| > 0: a 0 estimate would be wrong
        with pytest.raises(NumericalError, match="underflows"):
            estimate_moments(np.array([1e-200, 3e-170, 0.0]), [1.0, 2.0])
        with pytest.raises(NumericalError, match="underflows"):
            estimate_moments(np.full(3, 1e-200), [2.0])
        rows = estimate_moments(np.array([1e-50, 3e-50, 0.0]), [1.0, 2.0])
        assert rows[1].estimate > 0.0 and rows[1].stderr > 0.0

    def test_underflowing_stderr_raises(self):
        # subnormal |X|^2 that differ: their squared deviations underflow to 0
        with pytest.raises(NumericalError, match="underflows"):
            estimate_moments(np.array([1e-157, 2e-157, 3e-157]), [2.0])

    def test_zero_sample_has_zero_moment(self):
        row = estimate_moments(np.zeros(4), [2.0])[0]
        assert row.estimate == 0.0 and row.stderr == 0.0

    def test_gbm_second_moment(self):
        grid = TimeGrid(1.0, 1)
        paths = sample_bm_paths(grid, RngStream(17), 100_000)
        x = geometric_bm(grid.nodes(), paths)[:, -1]
        r = estimate_moments(x, [2.0], model="gbm", t=1.0)[0]
        assert abs(r.estimate - math.e) <= 3.0 * r.stderr
        assert r.replicas == 100_000

    def test_gfbm_second_moment(self):
        grid = TimeGrid(1.0, 1)
        paths = sample_fbm_paths(0.75, grid, RngStream(18), 100_000)
        x = geometric_fbm(grid.nodes(), paths, 0.75)[:, -1]
        r = estimate_moments(x, [2.0], model="gfbm", t=1.0)[0]
        assert abs(r.estimate - math.e) <= 3.0 * r.stderr  # t^(2H) = 1 at t = 1

    def test_jackknife_halves_with_replicas(self):
        # doubling replicas shrinks stderr by sqrt(2). On a Gaussian sample the
        # halves' variances v1, v2 are independent and (n-1) v / sigma^2 is chi-square,
        # so log(v2 / v1) has sd sqrt(4 / 19999) = 0.014; s1 / s2 ~ sqrt(2) (1 - log(v2 / v1) / 4)
        # then has relative sd 0.0035, and the 2 % band is 5.7 sd. (A squared lognormal
        # sample's variance is ruled by its largest draw, so no such band holds there.)
        paths = sample_bm_paths(TimeGrid(1.0, 1), RngStream(19), 40_000)
        x = paths[:, -1]
        s1 = jackknife_stderr(x[:20_000])
        s2 = jackknife_stderr(x)
        assert s1 / s2 == pytest.approx(math.sqrt(2.0), rel=0.02)

    def test_csv_fixed_columns(self, tmp_path):
        assert main(["simulate", "--t", "0.5", "--p", "2", "--replicas", "10",
                     "--seed", "1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "moments.csv").read_text().strip().splitlines()
        assert lines[2] == "model,t,p,estimate,stderr,replicas"
        assert lines[3].startswith("gbm,0.5,2,") and lines[3].endswith(",10")


class TestLyapunov:
    def test_gbm_exact_fit(self):
        ts = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        for p in (2.0, 3.0, 4.0):
            lam = fit_log_slope(ts, np.exp(p * (p - 1) / 2 * ts), 1.0)
            assert lam == pytest.approx(p * (p - 1) / 2, abs=1e-8)

    def test_pam_white_fit_quarter(self):
        ts = np.array([100.0, 125.0, 150.0, 175.0, 200.0])
        vals = np.exp([pam_log_second_moment(t) for t in ts])
        assert fit_log_slope(ts, vals, 1.0) == pytest.approx(0.25, abs=1e-8)

    def test_gfbm_modified_exponent(self):
        h = 0.75
        ts = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        for p in (2.0, 3.0):
            vals = np.exp(p * (p - 1) / 2 * ts ** (2 * h))
            assert fit_log_slope(ts, vals, 2 * h) == pytest.approx(
                p * (p - 1) / 2, abs=1e-8
            )

    def test_constant_process_zero(self):
        ts = np.array([1.0, 2.0, 3.0, 4.0])
        assert fit_log_slope(ts, np.full(4, 2.5), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_needs_four_points_and_positive(self):
        with pytest.raises(InputError):
            fit_log_slope([1.0, 2.0, 3.0], [1, 2, 3], 1.0)
        with pytest.raises(InputError):
            fit_log_slope([1.0, 2.0, 3.0, 4.0], [1, -2, 3, 4], 1.0)

    def test_rows_interface(self):
        rows = []
        for t in (1.0, 2.0, 3.0, 4.0):
            rows.extend(estimate_moments(np.full(4, math.exp(3 * t)), [1.0], t=t))
        # the CLI's --fit: the rows of one moment order against their times
        sel = [r for r in rows if r.p == 1.0]
        lam = fit_log_slope([r.t for r in sel], [r.estimate for r in sel], 1.0)
        assert lam == pytest.approx(3.0, abs=1e-10)

    def test_closed_forms(self):
        assert lyapunov_closed_form("pam_white", 2.0) == (pytest.approx(0.25), 1.0)
        assert lyapunov_closed_form("pam_white", 3.0)[0] == pytest.approx(1.0)
        assert lyapunov_closed_form("gbm", 1.0)[0] == 0.0
        lam, kappa = lyapunov_closed_form("gfbm", 2.0, hurst=0.7)
        assert (lam, kappa) == (pytest.approx(1.0), pytest.approx(1.4))
        with pytest.raises(CapabilityError):
            lyapunov_closed_form("ornstein", 2.0)


class TestIntermittency:
    def test_pam_exponents_intermittent(self):
        ps = [2.0, 3.0, 4.0]
        lams = [lyapunov_closed_form("pam_white", p)[0] for p in ps]
        assert intermittency_check(ps, lams)
        # ratios are 1/8 < 1/3 < 5/8
        assert np.allclose(np.array(lams) / ps, [1 / 8, 1 / 3, 5 / 8])

    def test_gbm_intermittent_linear_not(self):
        ps = [2.0, 3.0, 4.0]
        assert intermittency_check(ps, [p * (p - 1) / 2 for p in ps])
        assert not intermittency_check(ps, [2.0 * p for p in ps])


def _exp_log_power(x, alpha):
    """x**-alpha as exp(-alpha log x), the kernel's evaluation of each entry."""
    return np.exp(-alpha * np.log(x))


def _reference_pair_exponents(b1, b2, wt, alpha, floor, power=_exp_log_power):
    """The exponent sums of ``fk_second_moment``'s replica block as they were
    before the one-evaluation kernel (two per pair entry, by subtraction and
    ``np.sum``): with the default ``power``, the bit-exact oracle of
    ``moments._pair_exponents``."""
    count, n_quad, d = b1.shape
    a_half, a_full = np.empty((2, count))
    # pair arrays one chunk of replicas at a time, not a whole block's
    for lo, hi in row_chunks(count, 8 * n_quad * n_quad * d):
        diff = b1[lo:hi, :, None, :] - b2[lo:hi, None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        # sensitivity variant first: same paths, floor halved; raising the
        # floor afterwards gives the same bits as flooring the raw distances
        np.maximum(dist, floor / 2.0, out=dist)
        a_half[lo:hi] = np.einsum("ij,rij->r", wt, power(dist, alpha))
        np.maximum(dist, floor, out=dist)
        a_full[lo:hi] = np.einsum("ij,rij->r", wt, power(dist, alpha))
    return a_full, a_half


def _reference_fk_block(t, spec, d, n_quad):
    """``fk_second_moment``'s replica block as it was, verbatim apart from the
    exponent sums living in ``_reference_pair_exponents``."""
    alpha = spec.space_kernel.alpha
    delta = t / n_quad
    floor = delta / 2.0
    wt = time_factor_matrix(TimeGrid(t, n_quad), spec.time_kernel)
    centers = (np.arange(n_quad) + 0.5) * delta
    gaps = np.diff(centers, prepend=0.0)
    sq_gaps = np.sqrt(gaps)

    def block(gen, count):
        b1 = np.cumsum(gen.standard_normal((count, n_quad, d)) * sq_gaps[:, None], axis=1)
        b2 = np.cumsum(gen.standard_normal((count, n_quad, d)) * sq_gaps[:, None], axis=1)
        a_full, a_half = _reference_pair_exponents(b1, b2, wt, alpha, floor)
        with np.errstate(over="ignore"):
            return np.column_stack([np.exp(a_full), np.exp(a_half)])

    return block


# (H, alpha, t): criterion 9's parameters, then 48 seeded draws from the
# colored benchmark's ranges (seed 50 gives two floors where the scalar and
# array log and exp split, and five where the scalar and array powers do)
FK_ORACLE_DRAWS = [(0.7, 0.5, 0.25)] + [
    tuple(row)
    for row in np.random.default_rng(50).uniform((0.6, 0.3, 0.1), (0.8, 0.7, 0.25), (48, 3))
]


class TestFkSecondMoment:
    SPEC = NoiseSpec.fractional_riesz(0.7, 0.5)

    def test_zero_interaction_hook(self, monkeypatch):
        # zero interaction weights make every replica exactly 1
        monkeypatch.setattr(
            moments, "time_factor_matrix", lambda tgrid, tk: np.zeros((tgrid.n_steps,) * 2)
        )
        est = fk_second_moment(0.25, self.SPEC, 1, 200, 32, RngStream(5))
        assert est.estimate == 1.0 and est.stderr == 0.0

    def test_small_time_limit(self):
        est = fk_second_moment(1e-6, self.SPEC, 1, 500, 32, RngStream(6))
        assert est.estimate == pytest.approx(1.0, abs=1e-3)

    def test_positivity_and_floor_sensitivity(self):
        est = fk_second_moment(0.25, self.SPEC, 1, 2000, 96, RngStream(7))
        assert est.estimate >= 1.0
        # halving the floor moves the estimate by well under a percent
        assert abs(est.estimate_half_floor - est.estimate) < 0.01 * est.estimate

    def test_divergent_condition_rejected(self):
        bad = NoiseSpec.fractional_riesz(0.52, 2.3)  # alpha = 2.3 >= 4H = 2.08
        with pytest.raises(ConditionNotSatisfiedError) as err:
            fk_second_moment(0.25, bad, 3, 100, 16, RngStream(0))
        assert err.value.verdict is not None and not err.value.verdict.satisfied

    def test_unsupported_spec(self):
        with pytest.raises(CapabilityError):
            fk_second_moment(0.25, NoiseSpec.space_time_white(), 1, 10, 8, RngStream(0))

    def test_overflow_raises(self):
        # exp of the interaction functional overflows float64 at t = 400
        spec = NoiseSpec.fractional_riesz(0.95, 0.9)
        with pytest.raises(NumericalError):
            fk_second_moment(400.0, spec, 1, 32, 64, RngStream(3))

    def test_thread_invariance(self):
        a = fk_second_moment(0.25, self.SPEC, 1, 512, 48, RngStream(9), threads=1)
        b = fk_second_moment(0.25, self.SPEC, 1, 512, 48, RngStream(9), threads=4)
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_shared_pair_distances_bit_identical(self):
        # one pair-distance array serves both floors
        t, replicas, n_quad = 0.25, 300, 24
        vals = map_replica_blocks(
            replicas, _reference_fk_block(t, self.SPEC, 1, n_quad), RngStream(11), 128
        )
        est = fk_second_moment(t, self.SPEC, 1, replicas, n_quad, RngStream(11))
        assert (est.estimate, est.estimate_half_floor) == tuple(vals.mean(axis=0))
        assert est.stderr == jackknife_stderr(vals[:, 0])
        assert est.stderr_half_floor == jackknife_stderr(vals[:, 1])

    @pytest.mark.parametrize("d", [1, 2])
    def test_pair_chunks_bit_identical_to_whole_block(self, monkeypatch, d):
        # oracle: the reference block at the default chunk size, where every
        # pair array is a whole block's; chunks of 3 replicas over blocks of 7
        # leave a trailing lone replica in each block, and 50 = 7 * 7 + 1
        # leaves a block of one
        t, replicas, n_quad = 0.25, 50, 100
        vals = map_replica_blocks(
            replicas, _reference_fk_block(t, self.SPEC, d, n_quad), RngStream(12), 7
        )
        monkeypatch.setattr(rng, "CHUNK_BYTES", 3 * 8 * n_quad * n_quad * d)
        for threads in (1, 2):
            est = fk_second_moment(
                t, self.SPEC, d, replicas, n_quad, RngStream(12), block_size=7, threads=threads
            )
            assert (est.estimate, est.estimate_half_floor) == tuple(vals.mean(axis=0))
            assert est.stderr == jackknife_stderr(vals[:, 0])
            assert est.stderr_half_floor == jackknife_stderr(vals[:, 1])

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "hurst,alpha,t",
        FK_ORACLE_DRAWS,
        ids=[f"H{h:.3f}-a{a:.3f}-t{t:.3f}" for h, a, t in FK_ORACLE_DRAWS],
    )
    def test_one_power_kernel_bit_identical(self, d, hurst, alpha, t):
        # the exponent sums themselves, before exp can hide a last-bit move;
        # and within 1e-14 of the sums through np.power, an oracle that shares
        # no per-entry arithmetic with exp(-alpha log x)
        replicas, n_quad = 24, 128
        floor = t / n_quad / 2.0
        spec = NoiseSpec.fractional_riesz(hurst, alpha)
        wt = time_factor_matrix(TimeGrid(t, n_quad), spec.time_kernel)
        steps = np.random.default_rng(13).standard_normal((2, replicas, n_quad, d))
        b1, b2 = np.cumsum(steps, axis=2) * np.sqrt(t / n_quad)
        got = np.stack(moments._pair_exponents(b1, b2, wt, alpha, floor))
        want = np.stack(_reference_pair_exponents(b1, b2, wt, alpha, floor))
        assert got.tobytes() == want.tobytes()
        powered = np.stack(
            _reference_pair_exponents(b1, b2, wt, alpha, floor, power=lambda x, a: x**-a)
        )
        np.testing.assert_allclose(got, powered, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("d", [3, 7, 8, 9])
    def test_pair_distances_bit_identical_in_higher_dimensions(self, d):
        # np.sum adds fewer than 8 squares in axis order, which the in-place
        # sum follows, and 8 or more pairwise; 50 replicas at d = 9 span chunks
        replicas, n_quad, t = 50, 64, 0.2
        wt = time_factor_matrix(TimeGrid(t, n_quad), self.SPEC.time_kernel)
        steps = np.random.default_rng(d).standard_normal((2, replicas, n_quad, d))
        b1, b2 = np.cumsum(steps, axis=2) * np.sqrt(t / n_quad)
        args = (b1, b2, wt, self.SPEC.space_kernel.alpha, t / n_quad / 2.0)
        got = np.stack(moments._pair_exponents(*args))
        assert got.tobytes() == np.stack(_reference_pair_exponents(*args)).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matmul_differences_bit_identical_to_subtraction(self, monkeypatch, d):
        # every product the kernel forms, per chunk and axis, is b1_i - b2_j
        # with its sign bits, where coordinates coincide too (+0.0); 19
        # replicas in chunks of 2 leave a chunk of 3 at the end
        replicas, n_quad = 19, 32
        steps = np.random.default_rng(29).standard_normal((2, replicas, n_quad, d))
        b1, b2 = np.cumsum(steps, axis=2)
        b2[:, ::3] = b1[:, ::3]  # equal points share every coordinate
        b2[:, 1:30:3, -1] = b1[:, 2::3, -1]  # and equal coordinates off the diagonal
        products, matmul = [], np.matmul

        def spy(*args, out):
            products.append(matmul(*args, out=out).copy())
            return out

        monkeypatch.setattr(rng, "CHUNK_BYTES", 2 * 8 * n_quad * n_quad * d)
        monkeypatch.setattr(np, "matmul", spy)
        wt = np.ones((n_quad, n_quad))
        moments._pair_exponents(b1, b2, wt, 0.5, 1e-3)
        ranges = row_chunks(replicas, 8 * n_quad * n_quad * d)
        monkeypatch.undo()
        assert ranges[-1] == (16, 19)
        want = [
            np.subtract(b1[lo:hi, :, None, k], b2[lo:hi, None, :, k])
            for lo, hi in ranges
            for k in range(d)
        ]
        assert len(products) == len(want)
        for got, diff in zip(products, want):
            assert got.tobytes() == diff.tobytes()
        zeros = want[0] == 0.0
        assert zeros.any() and not np.signbit(want[0][zeros]).any()

    def test_oracle_draws_cover_scalar_cap_trap(self):
        # floor**-alpha by Python's scalar log and exp is not always numpy's
        # array log and exp of the floor; the draws above must include such a
        # floor, and there coincident paths, every distance of which is capped,
        # must give the oracle's bits: a kernel capping at the scalar value
        # fails them, while the few capped entries of random paths round away
        def split(floor, alpha):
            return math.exp(-alpha * math.log(floor)) != _exp_log_power(np.full(1, floor), alpha)[0]

        probe = np.random.default_rng(0).uniform((0.1, 0.3), (0.25, 0.7), (4000, 2))
        if not any(split(t / 256, a) for t, a in probe):
            pytest.skip("scalar and array float64 log and exp agree on this platform")
        traps = [(t / 256, alpha) for _, alpha, t in FK_ORACLE_DRAWS if split(t / 256, alpha)]
        assert traps
        paths, wt = np.zeros((3, 128, 1)), np.ones((128, 128))
        for floor, alpha in traps:
            got = np.stack(moments._pair_exponents(paths, paths, wt, alpha, floor))
            want = np.stack(_reference_pair_exponents(paths, paths, wt, alpha, floor))
            assert got.tobytes() == want.tobytes(), (floor, alpha)

    def test_capped_power_identity_at_ulp_neighbours(self):
        # the identity the one-evaluation kernel rests on, bit for bit, at
        # every float within 2000 ULPs of each of 3000 floors (12 M probes),
        # with f(x) = exp(-a log x) by array log and exp:
        # min(f(max(x, floor/2)), f(floor)) == f(max(x, floor))
        gen = np.random.default_rng(2015)
        offsets = np.arange(-2000, 2001)
        floors = 10.0 ** gen.uniform(-6, 0, 3000)
        for floor, alpha in zip(floors, gen.uniform(0.02, 1.98, 3000)):
            x = (np.full(1, floor).view(np.int64) + offsets).view(np.float64)
            cap = _exp_log_power(np.full(1, floor), alpha)[0]
            capped = np.minimum(_exp_log_power(np.maximum(x, floor / 2), alpha), cap)
            direct = _exp_log_power(np.maximum(x, floor), alpha)
            assert capped.tobytes() == direct.tobytes(), (floor, alpha)

    def test_pair_arrays_bounded_per_chunk(self):
        # one block of 256 replicas at n_quad 64: its whole (256, 64, 64) pair
        # array is 8 MB; the whole-block code peaked at 3.1 times that, the
        # chunked one at 0.63 times, and the in-place d = 1 kernel at 0.39
        replicas, n_quad = 256, 64
        whole = 8 * replicas * n_quad * n_quad
        for d, bound in ((1, 0.5), (2, 1.0)):
            peak = traced_peak(lambda: fk_second_moment(
                0.2, self.SPEC, d, replicas, n_quad, RngStream(3), block_size=256
            ))
            assert peak < bound * whole, d


def holder_estimate(
    fields: np.ndarray,
    spacing: float,
    axis: str = "time",
    p: float = 2.0,
    lags: tuple[int, ...] = moments.DEFAULT_HOLDER_LAGS,
    periodic_space: bool = False,
) -> moments.HolderFit:
    """Fitted regularity exponent from dyadic-lag increment moments, on one
    whole array through the study's accumulator and fit; the oracle.

    ``fields`` has shape (replicas, n_time, n_space); increments are taken
    along the chosen axis at each listed lag, averaged over replicas and
    over all admissible base points, and the exponent is the least-squares
    slope of log ||increment||_p against log(lag * spacing). Lag 1 is
    excluded by default (dominated by discretization noise). With
    ``periodic_space`` space increments wrap around, at lags up to n_space / 2;
    time increments never do.
    """
    u = np.asarray(fields, dtype=float)
    if u.ndim != 3 or u.size == 0:
        raise InputError(
            f"fields must be a non-empty (replicas, n_time, n_space) array, got {u.shape}"
        )
    if axis not in ("time", "space"):
        raise InputError(f"axis must be 'time' or 'space', got {axis!r}")
    ax = 1 if axis == "time" else 2
    periodic = axis == "space" and periodic_space  # time increments are never periodic
    usable, lag_spacings = moments._increment_lags(spacing, p, lags, u.shape[ax], periodic)
    sums = moments._increment_sums(u, ax, p, usable, periodic)
    return moments._holder_fit(sums, u.min() < u.max(), usable, lag_spacings, p, axis)


def old_holder_estimate(fields, spacing, axis, p, lags, periodic_space):
    """holder_estimate's increments as they were, by np.take and np.roll copies; the oracle."""
    u = np.asarray(fields, dtype=float)
    ax = 1 if axis == "time" else 2
    n_axis = u.shape[ax]
    periodic = axis == "space" and periodic_space
    usable = [m for m in lags if 0 < m and (m <= n_axis // 2 if periodic else m < n_axis)]
    norms = []
    for m in usable:
        if periodic:
            inc = np.roll(u, -m, axis=2) - u
        else:
            take_hi = np.take(u, np.arange(m, n_axis), axis=ax)
            take_lo = np.take(u, np.arange(0, n_axis - m), axis=ax)
            inc = take_hi - take_lo
        norms.append(np.mean(np.abs(inc) ** p) ** (1.0 / p))
    norms = np.asarray(norms)
    xs = np.log(np.asarray(usable, dtype=float) * spacing)
    design = np.column_stack([xs, np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(design, np.log(norms), rcond=None)
    return float(coef[0]), norms


class TestHolderEstimate:
    @pytest.mark.parametrize("p", [1, 2, 3.5])
    @pytest.mark.parametrize(
        "axis, periodic", [("time", False), ("space", False), ("space", True), ("time", True)]
    )
    def test_bit_identical_to_take_and_roll(self, p, axis, periodic):
        fields = np.random.default_rng(7).standard_normal((5, 41, 33)).cumsum(axis=1).cumsum(axis=2)
        fit = holder_estimate(fields, 0.01, axis, p, (2, 4, 8, 16), periodic_space=periodic)
        exponent, norms = old_holder_estimate(fields, 0.01, axis, p, (2, 4, 8, 16), periodic)
        assert fit.exponent == exponent
        assert fit.norms.tobytes() == norms.tobytes()

    def test_periodic_flag_leaves_time_axis_alone(self):
        # time increments never wrap, so the flag must not drop lag 32 of 40 nodes
        fields = np.random.default_rng(5).standard_normal((4, 40, 8)).cumsum(axis=1)
        lags = (2, 4, 8, 16, 32)
        plain = holder_estimate(fields, 0.01, "time", lags=lags)
        flagged = holder_estimate(fields, 0.01, "time", lags=lags, periodic_space=True)
        assert flagged.lags == plain.lags == lags
        assert flagged.exponent == plain.exponent
        assert flagged.norms.tobytes() == plain.norms.tobytes()

    @pytest.mark.parametrize("p", [0, -1, 0.5, np.nan, np.inf])
    def test_moment_order_outside_domain(self, p):
        # p = 0 would divide by zero, and below 1 the moment is no norm
        fields = np.random.default_rng(1).standard_normal((2, 33, 8))
        with pytest.raises(DomainError, match="moment order"):
            holder_estimate(fields, 0.1, axis="time", p=p, lags=(2, 4, 8))

    @pytest.mark.parametrize("spacing", [0.0, -0.1, np.nan, np.inf, 1e308])
    def test_spacing_outside_domain(self, spacing, capfd):
        # spacing <= 0 must not reach LAPACK, which prints to stderr; at 1e308
        # the lag spacings overflow
        fields = np.random.default_rng(2).standard_normal((2, 33, 8))
        with pytest.raises(DomainError, match="spacing"):
            holder_estimate(fields, spacing, axis="time", lags=(2, 4, 8))
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200])
    def test_non_finite_increment_moment(self, bad):
        # inf and nan give nan moments; 1e200 overflows |increment|^2
        fields = np.random.default_rng(3).standard_normal((2, 33, 8))
        fields[1, 20, 5] = bad
        with pytest.raises(NumericalError, match="not finite"):
            holder_estimate(fields, 0.1, axis="time", lags=(2, 4, 8))

    def test_linear_deterministic_field(self):
        # u(t, x) = t has exact time exponent 1
        t = np.linspace(0, 1, 65)
        fields = np.broadcast_to(t[None, :, None], (3, 65, 8)).copy()
        fit = holder_estimate(fields, spacing=1 / 64, axis="time", lags=(2, 4, 8, 16))
        assert fit.exponent == pytest.approx(1.0, abs=1e-10)

    def test_empty_fields_rejected(self):
        # no replicas: the moments would be 0 / 0
        with pytest.raises(InputError, match="non-empty"):
            holder_estimate(np.empty((0, 33, 8)), 0.1, axis="time", lags=(2, 4, 8))

    def test_constant_field_rejected(self):
        fields = np.ones((2, 33, 8))
        with pytest.raises(InputError):
            holder_estimate(fields, 0.1, axis="time", lags=(2, 4, 8))

    def test_increments_lost_to_rounding_raise_numerical_error(self):
        # a field that varies in time but, as at a huge t, not on the space grid
        t = np.random.default_rng(4).standard_normal((2, 33, 1))
        flat_in_space = np.broadcast_to(t, (2, 33, 8)).copy()
        with pytest.raises(NumericalError, match="space increments"):
            holder_estimate(flat_in_space, 0.1, axis="space", lags=(1, 2, 4),
                            periodic_space=True)
        # increments of 1e-170 whose squares underflow
        tiny = 1e-170 * np.random.default_rng(5).standard_normal((2, 33, 8))
        with pytest.raises(NumericalError, match="time increments"):
            holder_estimate(tiny, 0.1, axis="time", lags=(2, 4, 8))

    def test_needs_three_lags(self):
        fields = np.random.default_rng(0).standard_normal((2, 5, 4))
        with pytest.raises(InputError):
            holder_estimate(fields, 0.1, axis="time", lags=(2, 4, 8, 16))
        with pytest.raises(InputError):  # lags below 1 are not usable
            holder_estimate(np.ones((2, 64, 4)), 0.1, axis="time", lags=(-2, 0, 2))
        grid = SpaceTimeGrid(TimeGrid(1.0, 16), 1.0, 8)
        for time_lags, space_lags in (((2,), ()), ((), (-1,))):  # one lag in all
            with pytest.raises(InputError):
                linear_heat_holder_study(
                    grid, 2, RngStream(0), time_lags=time_lags, space_lags=space_lags
                )

    def test_study_rejects_empty_time_lags(self):
        grid = SpaceTimeGrid(TimeGrid(0.25, 256), 4.0, 64)
        with pytest.raises(InputError, match="non-empty"):
            linear_heat_holder_study(grid, 2, RngStream(0), time_lags=())

    def test_study_rejects_empty_space_lags(self):
        # on a grid too short for the default time lags, the window check
        # used to fire first and blame the grid
        grid = SpaceTimeGrid(TimeGrid(0.25, 32), 4.0, 64)
        with pytest.raises(InputError, match="non-empty"):
            linear_heat_holder_study(grid, 2, RngStream(0), space_lags=())

    def test_fbm_path_exponent_matches_hurst(self):
        # sanity on a process with known regularity H
        for h in (0.3, 0.7):
            grid = TimeGrid(1.0, 512)
            paths = sample_fbm_paths(h, grid, RngStream(11), 256)
            fields = paths[:, :, None]
            fit = holder_estimate(fields, grid.dt, axis="time", lags=(2, 4, 8, 16, 32))
            assert fit.exponent == pytest.approx(h, abs=0.03)

    def test_linear_heat_study_small(self):
        grid = SpaceTimeGrid(TimeGrid(0.25, 256), 4.0, 256)
        study = linear_heat_holder_study(
            grid,
            replicas=48,
            rng=RngStream(12),
            time_lags=(2, 4, 8, 16),
            space_lags=(2, 4, 8),
            threads=2,
        )
        assert 0.15 < study["time_fit"].exponent < 0.40
        assert 0.35 < study["space_fit"].exponent < 0.65


def old_holder_study(grid, replicas, rng, time_lags, space_lags, base_node, p, block_size,
                     threads):
    """The study as it was: every replica's window of nodes, then two holder_estimate calls."""
    nt = grid.time.n_steps
    k0 = (3 * nt) // 4 if base_node is None else base_node
    window = np.arange(k0, k0 + 2 * max(time_lags) + 1)
    fields = linear_heat_node_samples(grid, window, replicas, rng, block_size, threads)
    time_fit = holder_estimate(fields, grid.time.dt, "time", p, time_lags)
    space_fit = holder_estimate(fields, grid.dx, "space", p, space_lags, periodic_space=True)
    return time_fit, space_fit, (int(window[0]), int(window[-1]))


class TestHolderStudy:
    # 512 kB sheets make two-row chunks: 13 replicas in blocks of 5 take the
    # chunks [0, 2), [2, 5) and a lone-row merge, plus a three-replica last block
    GRID = SpaceTimeGrid(TimeGrid(0.25, 256), 4.0, 256)

    @pytest.mark.parametrize("p, base_node, threads", [(2.0, None, 1), (3.5, 40, 2), (1, 100, 1)])
    def test_matches_node_samples_composition(self, p, base_node, threads):
        # space lag 200 exceeds 256 // 2 and is dropped on both sides
        kwargs = dict(time_lags=(2, 4, 8, 16), space_lags=(2, 4, 8, 200), base_node=base_node,
                      p=p, block_size=5, threads=threads)
        study = linear_heat_holder_study(self.GRID, 13, RngStream(21), **kwargs)
        *fits, window = old_holder_study(self.GRID, 13, RngStream(21), **kwargs)
        assert study["window_nodes"] == window
        assert study["replicas"] == 13
        for fit, ref in zip((study["time_fit"], study["space_fit"]), fits):
            assert (fit.axis, fit.p, fit.lags) == (ref.axis, ref.p, ref.lags)
            assert fit.lag_spacings.tobytes() == ref.lag_spacings.tobytes()
            assert fit.exponent == pytest.approx(ref.exponent, rel=1e-13, abs=0)
            np.testing.assert_allclose(fit.norms, ref.norms, rtol=1e-13, atol=0)

    def test_bit_identical_at_one_and_two_threads(self):
        a, b = (
            linear_heat_holder_study(self.GRID, 11, RngStream(22), time_lags=(2, 4, 8),
                                     space_lags=(2, 4, 8), block_size=3, threads=t)
            for t in (1, 2)
        )
        for key in ("time_fit", "space_fit"):
            assert a[key].exponent == b[key].exponent
            assert a[key].norms.tobytes() == b[key].norms.tobytes()

    def test_peak_below_half_the_window_array(self):
        # 128 replicas x 129 window nodes x 256 cells is a 33.8 MB array, which
        # the study used to hold, with a buffer of the same size for increments
        replicas, window, nx = 128, 129, 256
        whole = 8 * replicas * window * nx
        assert whole >= 32 * 2**20
        peak = traced_peak(lambda: linear_heat_holder_study(
            self.GRID, replicas, RngStream(23), time_lags=(4, 8, 16, 32, 64),
            space_lags=(2, 4, 8, 16), base_node=128,
        ))
        assert peak < 0.5 * whole

    def test_criterion_10_window_peak_at_two_threads(self):
        # heat-conv's study: two blocks of 32 replicas run at once. With the
        # core sized to nodes 768..896 (a (257, 1024) kernel spectrum and
        # (896, 257) space spectra) the traced peak read 20.5 MiB; the
        # whole-horizon core, (257, 2048) and (1024, 257), read 25.3 MiB
        grid = SpaceTimeGrid(TimeGrid(0.25, 1024), 4.0, 512)
        peak = traced_peak(lambda: linear_heat_holder_study(
            grid, 64, RngStream(1010), time_lags=(4, 8, 16, 32, 64),
            space_lags=(2, 4, 8, 16), base_node=768, block_size=32, threads=2,
        ))
        assert peak < 22 * 2**20

    @pytest.mark.parametrize("p", [0.5, np.nan])
    def test_rejects_moment_order_before_sampling(self, p, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before checking the moment order")

        monkeypatch.setattr(moments, "linear_heat_node_chunks", no_sampling)
        with pytest.raises(DomainError, match="moment order"):
            linear_heat_holder_study(self.GRID, 2, RngStream(0), p=p)
