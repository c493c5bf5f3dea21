"""Seeded operation mixes for the benchmark workloads.

An operation is one CLI verb call, described by a JSON-friendly dict:

    {"verb": "simulate", "builder": ["noon", [6]], "lam": 20.0,
     "atom": None | [[re_g, im_g], [re_e, im_e]], "flags": [...], "node": int}

A workload runs in rounds.  Every round holds the same fixed catalogue of
operation kinds.  The seed shuffles their order and draws the continuous
parameters (mixing angles, atom superpositions) and the choices that leave
the cost unchanged (lambda, worker count, family members of one total, the
photon number of the lightest calls).  Heavy calls have fixed block sizes.
The fixed composition keeps the latency distribution, and so the medians
and tails, the same for every seed, while the inputs still differ per seed.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple

import numpy as np

K_DELTA_R = 0.1
SWEEP_RANGE = f"0:{math.pi / 2!r}:33"


def op(verb, builder, lam, atom=None, flags=(), node=0) -> dict:
    return {
        "verb": verb,
        "builder": [builder[0], list(builder[1])],
        "lam": float(lam),
        "atom": atom,
        "flags": list(flags),
        "node": int(node),
    }


def spec_document(o: dict) -> dict:
    """State-spec JSON for an operation (``None`` for ``validate``)."""
    if o["builder"] is None:
        return None
    doc = {
        "builder": {"name": o["builder"][0], "args": o["builder"][1]},
        "params": {"lambda": o["lam"], "k_delta_r": K_DELTA_R},
    }
    if o["atom"] is not None:
        (gr, gi), (er, ei) = o["atom"]
        doc["atom"] = {"c_g": {"re": gr, "im": gi}, "c_e": {"re": er, "im": ei}}
    return doc


def argv(o: dict, spec_path: str, out_dir: str) -> List[str]:
    if o["verb"] == "validate":
        return ["validate", "--out", out_dir]
    return [o["verb"], "--state", spec_path, "--out", out_dir, *o["flags"]]


def family_members(max_total: int):
    """(j, q) with ``(|j, j+4q-2> + |j+4q-2, j>)/sqrt(2)`` of total <= max_total."""
    return [
        (j, q)
        for q in range(1, max_total // 4 + 2)
        for j in range(0, max_total + 1)
        if 2 * (j + 2 * q - 1) <= max_total
    ]


def hole_ring(builder) -> int | None:
    """Ring ``j + 2q`` emptied by interference, from the builder arguments."""
    name, args = builder
    if name == "family":
        j, q = args
        return j + 2 * q
    if name == "noon" and args[0] % 4 == 2:
        return args[0] // 2 + 1  # NOON-N is family(0, q) with N = 4q - 2
    return None


def _alpha(rng) -> float:
    return float(rng.uniform(0.0, math.pi / 2))


def _atom(rng):
    beta = float(rng.uniform(0.3, 1.2))
    chi = float(rng.uniform(0.0, 2.0 * math.pi))
    return [[math.cos(beta), 0.0], [math.sin(beta) * math.cos(chi), math.sin(beta) * math.sin(chi)]]


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _family(rng, total: int):
    """A family member of exactly ``total`` photons; all of them cost the same."""
    members = [(j, q) for j, q in family_members(total) if 2 * (j + 2 * q - 1) == total]
    return ("family", list(_pick(rng, members)))


def _balanced(rng, count: int, hits: int) -> List[bool]:
    """``count`` flags of which exactly ``hits`` are set, in seeded order."""
    flags = [True] * hits + [False] * (count - hits)
    rng.shuffle(flags)
    return flags


_RESOLVED_PANEL = [("noon", [2]), ("family", [1, 1]), ("noon", [6]), ("family", [2, 1])]


def render_round(rng) -> List[dict]:
    """Eight ``simulate`` calls on the default 400x720 grid, analytic kernel.

    Block sizes are fixed per slot (family members are drawn among those of
    the slot's total, which cost the same), so every round costs the same;
    the one- and two-photon states carry a seeded superposed atom.
    """
    states = [
        (("one_photon", [_alpha(rng)]), _atom(rng)),
        (("two_photon", [_alpha(rng)]), _atom(rng)),
        (("noon", [2]), None),
        (("noon", [6]), None),
        (("noon", [12]), None),
        (_family(rng, 4), None),
        (_family(rng, 8), None),
        (_family(rng, 12), None),
    ]
    lam_100 = _balanced(rng, len(states), len(states) // 2)
    workers_2 = _balanced(rng, len(states), len(states) // 2)
    ops = [
        op(
            "simulate",
            st,
            100.0 if lam_100[k] else 20.0,
            atom=atom,
            flags=["--workers", "2"] if workers_2[k] else [],
            node=int(rng.integers(2**31)),
        )
        for k, (st, atom) in enumerate(states)
    ]
    rng.shuffle(ops)
    return ops


def readout_round(rng) -> List[dict]:
    """Thirteen calls of detect, populations (three estimators) and sweep.

    The heavy calls have fixed block sizes (NOON-18 and NOON-32, family
    members of total 30 and 22, the 7-ring window panel states) and draw
    only among variants of equal cost, so every round costs the same; the
    light calls draw their photon numbers from a small range.
    """
    def lam():
        return 100.0 if rng.integers(2) else 20.0

    ops = [
        op("detect", ("one_photon", [_alpha(rng)]), lam()),
        op("detect", ("noon", [int(rng.integers(2, 6))]), lam()),
        op("detect", ("noon", [18]), lam()),
        op("detect", ("noon", [32]), lam()),
        op("detect", _family(rng, 30), lam()),
        op("populations", ("noon", [int(rng.integers(2, 6))]), lam(), flags=["--estimator", "exact"]),
        op("populations", _family(rng, 22), lam(), flags=["--estimator", "exact"]),
        op("populations", _pick(rng, _RESOLVED_PANEL), 100.0, flags=["--estimator", "eq8"]),
        op("populations", ("one_photon", [_alpha(rng)]), 100.0, flags=["--estimator", "eq8"]),
        op("populations", _pick(rng, [("noon", [2]), ("one_photon", [_alpha(rng)])]), 100.0,
           flags=["--estimator", "window"]),
        op("populations", _pick(rng, [("noon", [6]), ("family", [2, 1])]), 100.0,
           flags=["--estimator", "window"]),
        op("sweep", ("one_photon", [_alpha(rng)]), 20.0, flags=["--sweep", SWEEP_RANGE]),
        op("sweep", ("two_photon", [_alpha(rng)]), 20.0, flags=["--sweep", SWEEP_RANGE]),
    ]
    rng.shuffle(ops)
    return ops


_GRID_FLAGS = ["--kernel", "numeric", "--grid", "r:10,phi:20"]


def oracle_round(rng) -> List[dict]:
    """Six numeric-kernel ``simulate`` calls on a small grid plus ``validate``.

    One state of each builder with total photon number <= 4 (NOON-2 is also
    family(0, 1)); the one-photon state carries a superposed atom.
    """
    states = [
        (("one_photon", [_alpha(rng)]), _atom(rng)),
        (("two_photon", [_alpha(rng)]), None),
        (("noon", [2]), None),
        (("noon", [3]), None),
        (("noon", [4]), None),
        (("family", [1, 1]), None),
    ]
    ops = [op("simulate", st, 20.0, atom=atom, flags=_GRID_FLAGS) for st, atom in states]
    ops.append({"verb": "validate", "builder": None, "lam": 0.0, "atom": None, "flags": [], "node": 0})
    rng.shuffle(ops)
    return ops


class Workload(NamedTuple):
    make_round: Callable
    opening: dict  # fixed first operation: set-up probe and in-process warm-up
    trace_rounds: int  # rounds in the traced pass, fixed so counts repeat exactly
    exercises: tuple  # layer metrics the traced run must see non-zero
    bypasses: tuple  # layer metrics the traced run must see exactly zero


_POPULATIONS = tuple(f"distribution.populations.{e}.self_ms" for e in ("window", "eq8", "exact"))
_QUADRATURE = ("quadrature.fourier.calls", "quadrature.w_density.calls", "quadrature.radial_tables")


WORKLOADS: Dict[str, Workload] = {
    "render": Workload(
        render_round,
        op("simulate", ("noon", [6]), 20.0),
        1,
        (
            "io.grid_to_csv.ms", "io.grid_to_csv.bytes", "io.export_other.bytes",
            "io.parse_state_spec.ms", "distribution.w_grid.self_ms", "distribution.w_grid.points",
            "kernel.mode_radial_table.calls", "kernel.mode_radial_table.entries",
            "distribution.channel_tables.ms", "distribution.channels", "distribution.harmonics",
            "kernel.harmonic_coefficients.calls", "cli.main.self_ms",
        ),
        (
            "rotation.d_matrix_table.calls", "rotation.d_coeff.calls", "detect.detect.calls",
            "validation.kernel_battery.records", *_QUADRATURE, *_POPULATIONS,
        ),
    ),
    "readout": Workload(
        readout_round,
        op("detect", ("noon", [16]), 100.0),
        3,
        (
            "io.export_other.ms", "io.export_other.bytes", "io.parse_state_spec.ms",
            *_POPULATIONS, "rotation.d_matrix_table.calls", "rotation.d_matrix_table.entries",
            "rotation.d_matrix_table.ms", "detect.detect.calls", "detect.detect.self_ms",
            "kernel.mode_radial_table.calls", "distribution.channels",
            "kernel.harmonic_coefficients.calls", "cli.main.self_ms",
        ),
        (
            "io.grid_to_csv.bytes", "distribution.w_grid.points",
            "validation.kernel_battery.records", *_QUADRATURE,
        ),
    ),
    "oracle": Workload(
        oracle_round,
        op("simulate", ("noon", [2]), 20.0, flags=_GRID_FLAGS),
        1,
        (
            "quadrature.oracle_init.ms", "quadrature.fourier.self_ms", "quadrature.w_density.self_ms",
            "quadrature.fourier_per_radial_table", "rotation.d_coeff.calls", "rotation.d_coeff.ms",
            "kernel.fourier_analytic.calls", "kernel.fourier_analytic.ms",
            "validation.kernel_battery.ms", "validation.kernel_battery.records",
            "distribution.w_grid.points", "io.grid_to_csv.bytes", *_QUADRATURE,
        ),
        ("rotation.d_matrix_table.calls", "detect.detect.calls", *_POPULATIONS),
    ),
}


def rounds(name: str, seed: int):
    """Endless generator of seeded rounds for one workload."""
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    make = WORKLOADS[name].make_round
    while True:
        yield make(rng)
