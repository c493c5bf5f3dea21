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
