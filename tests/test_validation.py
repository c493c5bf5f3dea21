"""The kernel battery evaluates the closed form once per index over a block's points.

The reference is the point-by-point loop: one ``fourier_analytic`` call per
(point, index), next to the oracle call for the same pair.  The batched
battery must give the same records, value for value.
"""

import math

import numpy as np
import pytest

import crosscavity.kernel as kernel
from crosscavity import CouplingParams, KernelIndices, MomentumPoint, fourier_analytic, kernel_battery
from crosscavity.quadrature import QuadratureOracle, SlitProfile
from crosscavity.validation import BatteryRecord, _tuple_set

QUICK = dict(lams=(20.0,), kdrs=(0.1,), max_total=2, points=8)
MID = dict(lams=(5.0, 20.0), kdrs=(0.1, 0.3), max_total=3, points=12)


def kernel_battery_reference(lams, kdrs, max_total, points, seed=20240, rtol=1e-6, floor=1e-12):
    """The point-by-point battery: the closed form at one point per call."""
    records = []
    for lam in lams:
        for kdr in kdrs:
            params = CouplingParams(lam, kdr)
            oracle = QuadratureOracle(params, SlitProfile.exponential(kdr))
            rng = np.random.default_rng([seed, int(lam * 1000), int(kdr * 1000)])
            tuples = _tuple_set(max_total)
            for total in range(1, max_total + 1):
                p_vals = rng.uniform(0.0, 2.0 * math.sqrt(total) * lam, size=points)
                a_vals = rng.uniform(0.0, 2.0 * math.pi, size=points)
                block_tuples = [t for t in tuples if t[0] == total]
                for p, a in zip(p_vals, a_vals):
                    point = MomentumPoint(float(p), float(a))
                    for total_, m, n, eps, branch in block_tuples:
                        idx = KernelIndices(total_, m, n, eps, branch)
                        fa = fourier_analytic(idx, point, params)
                        fn = oracle.fourier(idx, point)
                        err = abs(fa - fn)
                        tol = rtol * max(abs(fn), floor)
                        records.append(BatteryRecord(lam, kdr, idx, point, fa, fn, err, tol))
    return records


@pytest.mark.parametrize("config", [QUICK, MID], ids=["quick", "mid"])
def test_battery_matches_point_by_point_reference(config):
    summary = kernel_battery(**config)
    reference = kernel_battery_reference(**config)
    assert len(summary.records) == len(reference)
    for got, want in zip(summary.records, reference):
        assert (got.lam, got.k_delta_r, got.idx, got.point) == (want.lam, want.k_delta_r, want.idx, want.point)
        assert type(got.f_analytic) is complex
        assert got.f_analytic == want.f_analytic
        assert got.f_numeric == want.f_numeric
        assert got.abs_err == want.abs_err
        assert got.tolerance == want.tolerance
    assert summary.worst_ratio == max(r.abs_err / r.tolerance for r in reference)
    assert summary.failures == [r for r in reference if not r.passed]


def test_quick_battery_builds_one_radial_table_per_index(monkeypatch):
    calls = []
    original = kernel.mode_radial_table

    def counting(*args, **kwargs):
        calls.append(args[1].size)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel, "mode_radial_table", counting)
    summary = kernel_battery(**QUICK)
    assert len(summary.records) == 288
    assert len(calls) == 36  # one per index of each block; the point-by-point loop makes 288
    assert set(calls) == {8}


def test_quick_battery_transforms_each_plus_table_once_per_block(monkeypatch):
    calls = []
    transform = QuadratureOracle._radial_transform

    def counting(self, p_mag, shift, reach):
        calls.append((np.size(p_mag), np.size(shift), bool(np.all(np.asarray(shift) >= 0.0))))
        return transform(self, p_mag, shift, reach)

    monkeypatch.setattr(QuadratureOracle, "_radial_transform", counting)
    summary = kernel_battery(**QUICK)
    assert len(summary.records) == 288
    # one call per block over its 8 magnitudes: plus-branch tables n = 0, 1 of
    # block 1 and n = 0..2 of block 2; the point-by-point loop makes 40
    # one-magnitude, one-table calls
    assert calls == [(8, 2, True), (8, 3, True)]


def test_quick_battery_builds_two_array_points_and_one_point_per_record_point(monkeypatch):
    # each block's points are checked once, as one array point for both
    # routes; each record point is a one-point MomentumPoint of the same draws
    built = []
    post_init = MomentumPoint.__post_init__

    def counted(self):
        raw = (np.copy(self.p_mag), np.copy(self.p_ang))
        post_init(self)
        built.append((raw, self))

    monkeypatch.setattr(MomentumPoint, "__post_init__", counted)
    summary = kernel_battery(**QUICK)
    arrays = [(raw, pt) for raw, pt in built if np.ndim(pt.p_mag)]
    scalars = [pt for raw, pt in built if not np.ndim(pt.p_mag)]
    assert len(built) == 18 and len(arrays) == 2 and len(scalars) == 16
    assert [pt.p_mag.size for _, pt in arrays] == [8, 8]
    # the wrapped angles are the doubles of Python's float %, and the record
    # points carry the array points' values
    for (_, raw_ang), pt in arrays:
        assert pt.p_ang.tolist() == [a % (2.0 * math.pi) for a in raw_ang.tolist()]
    flat = [(p, a) for _, pt in arrays for p, a in zip(pt.p_mag.tolist(), pt.p_ang.tolist())]
    assert [(pt.p_mag, pt.p_ang) for pt in scalars] == flat
    record_points = list({id(r.point): r.point for r in summary.records}.values())
    assert len(record_points) == 16 and all(a is b for a, b in zip(record_points, scalars))


def _first_point_by_point_refusal(lams, kdrs, max_total, points, quad, seed=20240):
    """The AccuracyError that one-point oracle calls in record order raise first."""
    from crosscavity.quadrature import AccuracyError

    for lam in lams:
        for kdr in kdrs:
            oracle = QuadratureOracle(CouplingParams(lam, kdr), SlitProfile.exponential(kdr), quad)
            rng = np.random.default_rng([seed, int(lam * 1000), int(kdr * 1000)])
            tuples = _tuple_set(max_total)
            for total in range(1, max_total + 1):
                p_vals = rng.uniform(0.0, 2.0 * math.sqrt(total) * lam, size=points)
                a_vals = rng.uniform(0.0, 2.0 * math.pi, size=points)
                for p, a in zip(p_vals, a_vals):
                    for t in tuples:
                        if t[0] == total:
                            try:
                                oracle.fourier(KernelIndices(*t), MomentumPoint(float(p), float(a)))
                            except AccuracyError as exc:
                                return exc
    return None


@pytest.mark.parametrize("config", [QUICK, dict(QUICK, kdrs=(0.3,))], ids=["quick", "kdr0.3"])
def test_battery_refusal_matches_point_by_point_reference(config):
    # with no panel doubling, some radial tables miss a tight tolerance; the
    # battery transforms a block's tables before reading any amplitude, and
    # raises what the point-by-point loop raises first (at k_delta_r 0.3, one
    # index after another over all points would name a later point first)
    from crosscavity.quadrature import AccuracyError, QuadratureSpec

    quad = QuadratureSpec(radial_rel_tol=1e-13, max_radial_refinements=0)
    first = _first_point_by_point_refusal(quad=quad, **config)
    assert first is not None
    with pytest.raises(AccuracyError) as err:
        kernel_battery(quad=quad, **config)
    assert str(err.value) == str(first)
    assert err.value.error_bound == first.error_bound
    assert np.array_equal(err.value.estimate, first.estimate)
