"""Closed-form-vs-quadrature cross-validation battery.

Runs every kernel index combination up to a given total excitation through
both evaluation routes at randomly sampled momentum points and reports the
worst disagreement against a relative tolerance with an absolute floor.
Both routes run once per index over all of a block's points: the closed
form builds one radial table per index, and the quadrature oracle transforms
each radial table the block reads once, over all of the block's momentum
magnitudes, before any index reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .kernel import KernelIndices, MomentumPoint, fourier_analytic
from .quadrature import QuadratureOracle, QuadratureSpec, SlitProfile, _reach
from .states import CouplingParams


@dataclass(frozen=True)
class BatteryRecord:
    lam: float
    k_delta_r: float
    idx: KernelIndices
    point: MomentumPoint
    f_analytic: complex
    f_numeric: complex
    abs_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.abs_err <= self.tolerance


@dataclass
class BatterySummary:
    records: List[BatteryRecord]
    worst_ratio: float
    failures: List[BatteryRecord]

    @property
    def passed(self) -> bool:
        return not self.failures


def _tuple_set(max_total: int) -> List[Tuple[int, int, int, str, int]]:
    out = []
    for total in range(1, max_total + 1):
        for branch in (1, -1):
            for m in range(0, total + 1):
                for n in range(0, total + 1):
                    out.append((total, m, n, "g", branch))
            for m in range(1, total + 1):
                for n in range(1, total + 1):
                    out.append((total, m, n, "e", branch))
    return out


def _transform_tables(oracle: QuadratureOracle, block: Sequence[KernelIndices], points) -> None:
    """Transform every radial table that ``block`` reads at ``points``, before any amplitude is read.

    One ``_radial_spectra`` call per harmonic reach (in order of first use)
    and run of magnitudes, with the tables in order of first use, so a table
    that misses the radial tolerance raises what the point-by-point battery
    raises: the first failing point, then its first failing table.  In
    ``_tuple_set`` order the ground indices of a block of total ``N`` read
    every table ``n = 0..N``, at the reach of ``N`` and in ascending ``n``,
    before any excited index reads its subset ``n = 1..N`` at a reach no
    higher; a table's error bound depends on neither reach nor branch, so the
    first reach finds the failure if there is one.
    """
    p_mag = np.array([pt.p_mag for pt in points], dtype=float)
    tables = {}
    for idx in block:
        tables.setdefault(_reach(idx.total - idx.delta), {})[idx.n, idx.branch] = None
    for reach, keys in tables.items():
        shift = math.sqrt(max(n for n, _ in keys)) * oracle.params.lam
        for mags, _ in oracle._magnitude_runs(p_mag, shift, reach):
            oracle._radial_spectra(mags, list(keys), reach)


def kernel_battery(
    lams: Sequence[float] = (5.0, 20.0),
    kdrs: Sequence[float] = (0.1, 0.3),
    max_total: int = 4,
    points: int = 50,
    seed: int = 20240,
    rtol: float = 1e-6,
    floor: float = 1e-12,
    quad: Optional[QuadratureSpec] = None,
    progress=None,
) -> BatterySummary:
    """Compare both kernel routes over the full index/parameter battery.

    The tolerance per comparison is ``rtol * max(|F_numeric|, floor)``.
    Points are drawn uniformly with ``p in [0, 2 sqrt(N) lam]`` per block
    and shared across all index tuples of that block.  Each side is one call
    per index over the block's points: ``fourier_analytic`` builds one radial
    table per index, and the oracle's ``fourier`` reads radial spectra that
    :func:`_transform_tables` filled once per table over the block's
    magnitudes.  Records come point-major, indices in ``_tuple_set`` order.
    """
    records: List[BatteryRecord] = []
    for lam in lams:
        for kdr in kdrs:
            params = CouplingParams(lam, kdr)
            oracle = QuadratureOracle(params, SlitProfile.exponential(kdr), quad)
            rng = np.random.default_rng([seed, int(lam * 1000), int(kdr * 1000)])
            tuples = _tuple_set(max_total)
            for total in range(1, max_total + 1):
                p_vals = rng.uniform(0.0, 2.0 * math.sqrt(total) * lam, size=points)
                a_vals = rng.uniform(0.0, 2.0 * math.pi, size=points)
                block = [KernelIndices(*t) for t in tuples if t[0] == total]
                block_points = [MomentumPoint(float(p), float(a)) for p, a in zip(p_vals, a_vals)]
                analytic = [fourier_analytic(idx, block_points, params).tolist() for idx in block]
                _transform_tables(oracle, block, block_points)
                numeric = [oracle.fourier(idx, block_points).tolist() for idx in block]
                for j, point in enumerate(block_points):
                    for idx, fa_row, fn_row in zip(block, analytic, numeric):
                        fa, fn = fa_row[j], fn_row[j]
                        err = abs(fa - fn)
                        tol = rtol * max(abs(fn), floor)
                        records.append(
                            BatteryRecord(lam, kdr, idx, point, fa, fn, err, tol)
                        )
                if progress:
                    progress(f"lam={lam:g} k_delta_r={kdr:g} N={total}: {len(records)} comparisons")
    worst = max((r.abs_err / r.tolerance for r in records), default=0.0)
    failures = [r for r in records if not r.passed]
    return BatterySummary(records, worst, failures)
