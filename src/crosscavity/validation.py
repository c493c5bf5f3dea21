"""Closed-form-vs-quadrature cross-validation battery.

Runs every kernel index combination up to a given total excitation through
both evaluation routes at randomly sampled momentum points and reports the
worst disagreement against a relative tolerance with an absolute floor.
The closed form runs once per index over all of a block's points, with one
radial table per index; the quadrature oracle takes the whole block in one
call, which transforms each radial table the block reads once, over all of
the block's momentum magnitudes, before any index reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .kernel import KernelIndices, MomentumPoint, fourier_analytic
from .quadrature import QuadratureOracle, QuadratureSpec, SlitProfile
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
    and shared across all index tuples of that block, as one array point.
    ``fourier_analytic`` builds one radial table per index over the block's
    points, and the oracle's ``fourier`` takes the whole block at once (one
    transform per radial table over the block's magnitudes; it raises what
    point-by-point calls would raise first).  Records come point-major,
    indices in ``_tuple_set`` order, each with a one-point ``MomentumPoint``
    of its own.
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
                block_points = MomentumPoint(p_vals, a_vals)
                analytic = [fourier_analytic(idx, block_points, params).tolist() for idx in block]
                numeric = oracle.fourier(block, block_points).tolist()
                for j, point in enumerate(map(MomentumPoint, p_vals.tolist(), a_vals.tolist())):
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
