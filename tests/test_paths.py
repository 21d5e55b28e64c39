"""Tests for path containers and process simulation.

Covers:
  1. SamplePath container invariants.
  2. Two-sided fBm assembly and the sfBm fold.
  3. sfBm covariance closed form (frozen oracle value, reductions).
  4. Euler recursion for the mixed OU process (exact cases, determinism),
     and its sfBm increments: the fold's differences, rounded once.
  5. Path buffers: byte equality with the public route, reuse scopes.
  6. CSV round trips.
"""

import io
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfou import (
    HurstParam,
    NoiseSpec,
    SamplePath,
    TwoSidedFbm,
    euler_msfou,
    paths,
    read_path_csv,
    sample_fgn,
    sfbm_covariance,
    sfbm_path,
    two_sided_fbm,
    write_path_csv,
)


# ---------------------------------------------------------------------------
# SamplePath container
# ---------------------------------------------------------------------------

class TestSamplePath:
    def test_basic_accessors(self):
        p = SamplePath(d=0.5, values=np.array([1.0, 2.0, 3.0]), initial_value=0.25)
        assert p.n == 3
        assert p.span == pytest.approx(1.5)
        assert np.allclose(p.full_values(), [0.25, 1.0, 2.0, 3.0])
        assert np.allclose(p.times, [0.5, 1.0, 1.5])

    @pytest.mark.parametrize("d", [0.0, -1.0, float("nan")])
    def test_rejects_bad_spacing(self, d):
        with pytest.raises(ValueError):
            SamplePath(d=d, values=np.array([1.0]))

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError):
            SamplePath(d=0.1, values=np.zeros((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SamplePath(d=0.1, values=np.array([1.0, float("inf")]))

    def test_values_read_only(self):
        p = SamplePath(d=0.1, values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            p.values[0] = 9.0


# ---------------------------------------------------------------------------
# Two-sided fBm and the sfBm fold
# ---------------------------------------------------------------------------

class TestTwoSidedFbm:
    def test_cumsum_structure(self):
        # 2N = 6 increments; hand-build both sides with d = 1 (scale = 1)
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        tw = two_sided_fbm(y, 1.0, HurstParam(0.5))
        assert np.allclose(tw.pos, [4.0, 9.0, 15.0])
        assert np.allclose(tw.neg, [-3.0, -5.0, -6.0])

    def test_self_similar_scaling(self):
        y = np.arange(1.0, 9.0)
        h = HurstParam(0.7)
        a = two_sided_fbm(y, 1.0, h)
        b = two_sided_fbm(y, 0.25, h)
        assert np.allclose(b.pos, 0.25**0.7 * a.pos)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            two_sided_fbm(np.ones(5), 0.1, HurstParam(0.6))

    @pytest.mark.parametrize("pos,neg", [([math.nan], [1.0]), ([1.0], [-math.inf])])
    def test_rejects_non_finite_sides(self, pos, neg):
        name = "pos" if math.isnan(pos[0]) else "neg"
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            TwoSidedFbm(pos=np.array(pos), neg=np.array(neg), d=1.0)

    def test_sfbm_fold(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        tw = two_sided_fbm(y, 1.0, HurstParam(0.5))
        s = sfbm_path(tw)
        assert np.allclose(s.values, (tw.pos + tw.neg) / math.sqrt(2.0))
        assert s.initial_value == 0.0


class TestSfbmCovariance:
    def test_frozen_oracle_value(self):
        # brute-force double integral of the covariance kernel over
        # [0,1]x[0,2] at H=0.65; see tests/oracles/covariance_from_kernel.py
        got = sfbm_covariance(1.0, 2.0, HurstParam(0.65))
        print(f"  R(1, 2; 0.65) = {got:.12f}")
        assert got == pytest.approx(0.876705071216, abs=2e-9)

    def test_brownian_reduction(self):
        h = HurstParam(0.5)
        for s, t in [(0.3, 1.7), (2.0, 2.0), (5.0, 1.0)]:
            assert sfbm_covariance(s, t, h) == pytest.approx(min(s, t), rel=1e-14)

    def test_diagonal_variance(self):
        # Var S_t = (2 - 2^(2H-1)) t^(2H)
        h = HurstParam(0.7)
        t = 2.5
        expected = (2.0 - 2.0 ** (2 * 0.7 - 1.0)) * t ** (2 * 0.7)
        assert sfbm_covariance(t, t, h) == pytest.approx(expected, rel=1e-14)

    @given(
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, s, t, h):
        hp = HurstParam(h)
        assert sfbm_covariance(s, t, hp) == pytest.approx(sfbm_covariance(t, s, hp), rel=1e-12)

    @pytest.mark.parametrize("s,t", [(-0.1, 1.0), (1.0, -1e-300), ([0.5, -1.0], 1.0)])
    def test_rejects_negative_times(self, s, t):
        with pytest.raises(ValueError, match="requires nonnegative times"):
            sfbm_covariance(s, t, HurstParam(0.6))

    @pytest.mark.parametrize("s,t", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf), ([0.5, math.nan], 1.0),
        (1.0, [math.inf]),
    ])
    def test_rejects_non_finite_times(self, s, t):
        name = "t" if np.all(np.isfinite(s)) else "s"
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            sfbm_covariance(s, t, HurstParam(0.6))

    def test_array_past_the_float_range_refused_by_name(self):
        # one time of 1e300 makes t^(2H) overflow: refused as a whole,
        # with no warning, and not returned as an array holding a NaN
        s = np.array([1.0, 1e300])
        with pytest.raises(ValueError, match=r"^sfbm_covariance is out of the float range at s="):
            sfbm_covariance(s, s, HurstParam(0.65))

    def test_array_matches_scalar(self):
        h = HurstParam(0.7)
        s = np.array([0.0, 0.3, 1.0, 2.5])
        t = np.array([[1.0], [2.0]])
        got = sfbm_covariance(s, t, h)
        assert isinstance(got, np.ndarray) and got.shape == (2, 4)
        expected = [[sfbm_covariance(float(a), float(b), h) for a in s] for b in t[:, 0]]
        assert np.array_equal(got, expected)
        assert isinstance(sfbm_covariance(1.0, 2.0, h), float)

    def test_sampled_covariance_matches(self):
        # 3000 short paths at H=0.7: sample covariance within 3 SE at (2, 3)
        h = HurstParam(0.7)
        vals = np.empty(3000)
        for r in range(3000):
            fgn = sample_fgn(NoiseSpec(n=8, seed=50_000 + r), h)
            s = sfbm_path(two_sided_fbm(fgn, 1.0, h))
            vals[r] = s.values[1] * s.values[2]
        target = sfbm_covariance(2.0, 3.0, h)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        print(f"  sample R(2,3) = {vals.mean():.4f}, closed form = {target:.4f}, SE = {se:.4f}")
        assert abs(vals.mean() - target) < 3 * se


# ---------------------------------------------------------------------------
# Mixed path assembly
# ---------------------------------------------------------------------------

class TestMsfbmPath:
    def test_variance_additivity(self):
        # Var xi_t = t + (2 - 2^(2H-1)) t^(2H) for independent components;
        # with theta = 0 and x0 = 0 the Euler path is xi itself
        h = HurstParam(0.65)
        t = 2.0
        n_rep, n = 4000, 4
        vals = np.empty(n_rep)
        for r in range(n_rep):
            x = euler_msfou(theta=0.0, H=h, d=0.5, N=n, seed=7_000 + r, x0=0.0)
            vals[r] = x.values[-1]
        target = t + (2.0 - 2.0 ** (2 * h.h - 1.0)) * t ** (2 * h.h)
        se = np.std(vals**2, ddof=1) / math.sqrt(n_rep)
        print(f"  Var xi(2) = {np.mean(vals**2):.4f}, target = {target:.4f}")
        assert abs(np.mean(vals**2) - target) < 3 * se


# ---------------------------------------------------------------------------
# Euler scheme
# ---------------------------------------------------------------------------

def _sfbm_increments(h, d, n, seed):
    """The fGn ``euler_msfou`` draws for ``seed``, and its sfBm increments.

    S(t_{i+1}) - S(t_i) = d^H (Y[N+i] - Y[N-1-i]) / sqrt(2), rounded as
    ``euler_msfou`` rounds it.
    """
    fgn = sample_fgn(NoiseSpec(n=2 * n, seed=seed, stream=0), h)
    return fgn, (fgn[n:] - fgn[n - 1 :: -1]) * (d**h.h / math.sqrt(2.0))


def _drive_parts(h, d, n, seed):
    """The sfBm and Brownian increments ``euler_msfou`` draws for ``seed``."""
    rng = NoiseSpec(n=n, seed=seed, stream=1).rng()
    return _sfbm_increments(h, d, n, seed)[1], math.sqrt(d) * rng.standard_normal(n)


class _SfbmOnly(NoiseSpec):
    """NoiseSpec whose Brownian stream draws zeros, so a drive is its sfBm part."""

    def rng(self):
        return super().rng() if self.stream == 0 else self

    def standard_normal(self, out):
        out[:] = 0.0
        return out


class TestEulerMsfou:
    def test_deterministic(self):
        a = euler_msfou(theta=1.0, H=HurstParam(0.65), d=0.01, N=100, seed=11)
        b = euler_msfou(theta=1.0, H=HurstParam(0.65), d=0.01, N=100, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_noise_free_decay(self):
        # X_i = (1 - theta d) X_{i-1} + Delta_i, with the noise increments
        # Delta read off the theta = 0, x0 = 0 path of the same seed
        theta, d, n, h = 0.8, 0.1, 20, HurstParam(0.6)
        x = euler_msfou(theta=theta, H=h, d=d, N=n, seed=3, x0=2.0)
        delta = np.diff(euler_msfou(theta=0.0, H=h, d=d, N=n, seed=3, x0=0.0).full_values())
        expected = np.empty(n)
        prev = 2.0
        for i in range(n):
            prev = (1.0 - theta * d) * prev + delta[i]
            expected[i] = prev
        np.testing.assert_allclose(x.values, expected, rtol=1e-12, atol=1e-12)
        # the initial value decays as (1 - theta d)^i x0 on top of the x0 = 0 path
        from_zero = euler_msfou(theta=theta, H=h, d=d, N=n, seed=3, x0=0.0)
        decay = 2.0 * (1.0 - theta * d) ** np.arange(1, n + 1)
        np.testing.assert_allclose(x.values - from_zero.values, decay, rtol=1e-12)

    def test_zero_drift_reduces_to_noise(self):
        # theta = 0: X_t = x0 + xi_t, so increments equal the raw drive
        x = euler_msfou(theta=0.0, H=HurstParam(0.6), d=0.05, N=50, seed=21, x0=1.5)
        inc = np.diff(x.full_values())
        y = euler_msfou(theta=0.0, H=HurstParam(0.6), d=0.05, N=50, seed=21, x0=0.0)
        assert np.allclose(inc, np.diff(y.full_values()), rtol=1e-12)
        assert np.allclose(x.values, 1.5 + y.values, rtol=1e-12)

    def test_recursion_matches_manual_loop(self):
        theta, d, n, seed = 0.7, 0.02, 64, 99
        h = HurstParam(0.55)
        x = euler_msfou(theta=theta, H=h, d=d, N=n, seed=seed, x0=0.5)
        ds, dw = _drive_parts(h, d, n, seed)

        cur, out = 0.5, []
        for i in range(n):
            cur = (1.0 - theta * d) * cur + ds[i] + dw[i]
            out.append(cur)
        assert np.allclose(x.values, out, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 32])
    @pytest.mark.parametrize("theta", [0.7, 0.0, -0.5])
    @pytest.mark.parametrize("x0", [0.0, 0.5])
    def test_recursion_rounds_like_the_plain_loop(self, n, theta, x0):
        # Up to one block of 32 steps the solve is the plain loop, so byte
        # equality pins its rounding fl(drive_i + fl(a*X_{i-1})).
        d, seed = 0.02, 99
        h = HurstParam(0.55)
        x = euler_msfou(theta=theta, H=h, d=d, N=n, seed=seed, x0=x0)
        ds, dw = _drive_parts(h, d, n, seed)
        drive = ds + dw
        a = 1.0 - theta * d
        drive[0] += a * x0

        cur, out = 0.0, []
        for v in drive.tolist():
            cur = v + a * cur
            out.append(cur)
        assert np.array_equal(x.values, out)

    # theta*d = 1 gives a = 0 and theta*d = 1.5 gives a = -1/2; the lengths
    # straddle one block of 32 steps and reach two levels of blocks
    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 64, 1025, 5000])
    @pytest.mark.parametrize("theta", [0.7, 0.0, -0.5, 50.0, 75.0])
    @pytest.mark.parametrize("x0", [0.0, 0.5])
    def test_recursion_matches_a_40_digit_reference(self, n, theta, x0):
        d, seed = 0.02, 99
        h = HurstParam(0.55)
        x = euler_msfou(theta=theta, H=h, d=d, N=n, seed=seed, x0=x0)
        ds, dw = _drive_parts(h, d, n, seed)

        with mpmath.workdps(40):
            a, cur, ref = mpmath.mpf(1.0 - theta * d), mpmath.mpf(x0), []
            for v in (ds + dw).tolist():
                cur = a * cur + v
                ref.append(float(cur))
        ref = np.array(ref)
        assert np.max(np.abs(x.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_overflowing_explosive_path_is_rejected(self):
        with pytest.raises(ValueError, match="values contains non-finite entries"):
            euler_msfou(theta=-0.5, H=HurstParam(0.55), d=0.1, N=20000, seed=99)

    @pytest.mark.parametrize("kwargs", [
        {"d": 0.0, "N": 10}, {"d": -0.1, "N": 10}, {"d": 0.1, "N": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            euler_msfou(theta=1.0, H=HurstParam(0.6), seed=1, **kwargs)

    @pytest.mark.parametrize("name,n_steps,seed", [
        ("N", 10.9, 3), ("N", math.inf, 3), ("N", math.nan, 3), ("seed", 10, 3.7),
    ])
    def test_refuses_non_whole_step_count_and_seed(self, name, n_steps, seed):
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            euler_msfou(1.0, HurstParam(0.6), 0.01, n_steps, seed)

    def test_reads_integral_float_step_count(self):
        h = HurstParam(0.6)
        a = euler_msfou(1.0, h, 0.01, 10.0, 3.0)
        assert a.n == 10
        assert np.array_equal(a.values, euler_msfou(1.0, h, 0.01, 10, 3).values)

    @pytest.mark.parametrize("theta,x0", [(math.nan, 0.0), (-math.inf, 0.0), (1.0, math.nan)])
    def test_rejects_non_finite_drift_and_start(self, theta, x0):
        name, value = ("x0", x0) if math.isfinite(theta) else ("theta", theta)
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            euler_msfou(theta=theta, H=HurstParam(0.6), d=0.1, N=10, seed=1, x0=x0)

    @pytest.mark.parametrize("n", [1, 33, 5000, 20000])
    def test_sfbm_increments_are_the_public_fold_differenced(self, n):
        # the fold sums N terms and differences the sums, which cost
        # 1.9e-14 of max|dS| at N = 5000 and 2.3e-14 at N = 20000 here
        h, d = HurstParam(0.65), 0.01
        fgn, ds = _sfbm_increments(h, d, n, 7)
        folded = np.diff(sfbm_path(two_sided_fbm(fgn, d, h)).full_values())
        assert np.max(np.abs(ds - folded)) <= 1e-13 * np.max(np.abs(ds))

    @pytest.mark.parametrize("n", [5000, 20000])
    def test_drive_sfbm_part_is_rounded_once(self, monkeypatch, n):
        # theta = 0, x0 = 0 and a zero Brownian stream leave the drive that
        # reaches the recursion equal to the sfBm increments. Summing the
        # path and differencing it cost 2.6e-14 of max|dS| at N = 5000 and
        # 2.4e-14 at N = 20000; one subtraction and one scaling, 1.4e-16
        # and 2.6e-16
        h, d, seed = HurstParam(0.65), 0.01, 7
        drives = []
        recursion = paths._first_order_recursion

        def capture(a, drive, work=None):
            drives.append(drive.copy())
            return recursion(a, drive, work)

        monkeypatch.setattr(paths, "_first_order_recursion", capture)
        monkeypatch.setattr(paths, "NoiseSpec", _SfbmOnly)
        euler_msfou(theta=0.0, H=h, d=d, N=n, seed=seed)
        fgn, _ = _sfbm_increments(h, d, n, seed)
        with mpmath.workdps(40):
            scale = mpmath.mpf(d) ** mpmath.mpf(h.h) / mpmath.sqrt(2)
            ref = np.array([
                float(scale * (mpmath.mpf(p) - mpmath.mpf(q)))
                for p, q in zip(fgn[n:].tolist(), fgn[n - 1 :: -1].tolist())
            ])
        err = np.max(np.abs(drives[0] - ref)) / np.max(np.abs(ref))
        print(f"  N={n}: sfBm drive within {err:.2g} of max|dS|")
        assert err <= 4e-16


def _public_route(theta, h, d, n, seed, x0):
    """euler_msfou's values from sample_fgn's increments and the allocating recursion."""
    ds, dw = _drive_parts(h, d, n, seed)
    drive = ds + dw
    a = 1.0 - theta * d
    drive[0] += a * x0
    return paths._first_order_recursion(a, drive)


class TestPathBuffers:
    # euler_msfou takes the increments and runs the recursion in place; the
    # public route is sample_fgn's fGn, the NoiseSpec stream's normals, the
    # increment formula and the allocating recursion, and beyond 32 steps
    # only byte equality with it pins the in-place work
    @pytest.mark.parametrize("n", [33, 1250, 5000])
    @pytest.mark.parametrize("theta", [0.7, 0.0, -0.5])
    @pytest.mark.parametrize("x0", [0.0, 0.5])
    def test_matches_the_public_route_byte_for_byte(self, n, theta, x0):
        d, seed, h = 0.02, 99, HurstParam(0.55)
        expected = _public_route(theta, h, d, n, seed, x0).tobytes()
        one_off = euler_msfou(theta=theta, H=h, d=d, N=n, seed=seed, x0=x0)
        assert one_off.values.tobytes() == expected
        with paths._reuse_buffers():
            # the first call leaves another path's numbers in the buffers
            euler_msfou(theta=theta, H=h, d=d, N=n, seed=seed + 1, x0=x0)
            x = euler_msfou(theta=theta, H=h, d=d, N=n, seed=seed, x0=x0)
        assert x.values.tobytes() == expected

    def test_exploding_path_in_a_scope_leaves_the_next_path_intact(self):
        h = HurstParam(0.55)
        expected = euler_msfou(theta=0.7, H=h, d=0.1, N=20000, seed=98).values.tobytes()
        with paths._reuse_buffers():
            with pytest.raises(ValueError, match="values contains non-finite entries"):
                euler_msfou(theta=-0.5, H=h, d=0.1, N=20000, seed=99)
            x = euler_msfou(theta=0.7, H=h, d=0.1, N=20000, seed=98)
        assert x.values.tobytes() == expected

    def test_scope_keeps_one_set_per_n_until_the_outermost_exits(self):
        h = HurstParam(0.6)
        assert paths._scope.sets is None
        with paths._reuse_buffers():
            x = euler_msfou(theta=1.0, H=h, d=0.01, N=100, seed=1)
            kept = x.values.copy()
            with paths._reuse_buffers():
                euler_msfou(theta=1.0, H=h, d=0.01, N=100, seed=2)
                euler_msfou(theta=1.0, H=h, d=0.01, N=40, seed=2)
            assert sorted(paths._scope.sets) == [40, 100]
            euler_msfou(theta=1.0, H=h, d=0.01, N=100, seed=3)
            assert x.values.tobytes() == kept.tobytes()
        assert paths._scope.sets is None

    def test_one_off_path_peaks_below_sixteen_vectors_of_n(self):
        # the allocating pipeline held 16 N-long float vectors at its peak
        n, h = 5000, HurstParam(0.6)
        euler_msfou(theta=1.0, H=h, d=0.01, N=n, seed=1)  # fills the spectrum cache
        tracemalloc.start()
        try:
            euler_msfou(theta=1.0, H=h, d=0.01, N=n, seed=2)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"  one-off path peaks at {peak / (8 * n):.2f} N floats")
        assert peak < 16 * 8 * n
        assert kept < 8 * 1024


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

class TestPathCsv:
    def test_round_trip(self):
        p = euler_msfou(theta=1.0, H=HurstParam(0.65), d=0.01, N=50, seed=13, x0=0.75)
        buf = io.StringIO()
        write_path_csv(p, buf)
        buf.seek(0)
        q = read_path_csv(buf)
        assert q.d == pytest.approx(p.d, rel=1e-14)
        assert q.initial_value == pytest.approx(p.initial_value, rel=1e-14)
        assert np.allclose(q.values, p.values, rtol=1e-14)

    def test_write_is_deterministic(self):
        p = euler_msfou(theta=0.5, H=HurstParam(0.6), d=0.02, N=25, seed=8)
        a, b = io.StringIO(), io.StringIO()
        write_path_csv(p, a)
        write_path_csv(p, b)
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize(
        "content,lineno",
        [("t,value\n0\n1\n", 2), ("t,value\n0,0\n\n1,1,9\n", 4)],
        ids=["one-column", "three-column"],
    )
    def test_rejects_rows_without_two_fields(self, content, lineno):
        # line numbers count the header and the skipped blank lines
        with pytest.raises(ValueError, match=f"line {lineno}: expected 2 fields"):
            read_path_csv(io.StringIO(content))

    def test_names_the_line_of_a_non_number(self):
        with pytest.raises(ValueError, match="^line 4: could not convert string to float: 'x'$"):
            read_path_csv(io.StringIO("t,value\n0,0\n\n0.2,x\n"))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_arbitrary_values(self, vals):
        p = SamplePath(d=0.125, values=np.array(vals))
        buf = io.StringIO()
        write_path_csv(p, buf)
        buf.seek(0)
        q = read_path_csv(buf)
        assert np.allclose(q.values, p.values, rtol=1e-14, atol=1e-305)
