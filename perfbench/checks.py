"""Output checks for benchmark operations, run in a separate process.

``run.py`` starts this file as a child process and sends one JSON line per
finished operation: ``{"op": ..., "out": dir, "stdout": text}``.  The reply
is ``{"ok": bool, "why": text}``.  Checking in another process keeps the
references (quadrature oracle, analytic grid, exact populations) out of the
workload process's memory peak and out of its layer trace.

Every check compares the written artifact with a reference that holds on the
unmodified package: the quadrature oracle ``w_numeric`` for analytic grids,
an analytic ``w_grid`` for numeric grids, and the tolerances of acceptance
criteria C4 (rotation readout) and C5 (ring-line estimator).

Usage: python3 checks.py SRC_DIR
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from workloads import K_DELTA_R, hole_ring


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def build(o):
    from crosscavity.states import AtomState, CouplingParams
    from crosscavity.states import family_state, noon_state, one_photon_state, two_photon_state

    builders = {"one_photon": one_photon_state, "two_photon": two_photon_state,
                "noon": noon_state, "family": family_state}
    name, args = o["builder"]
    state = builders[name](*args)
    if o["atom"] is None:
        atom = AtomState.excited()
    else:
        (gr, gi), (er, ei) = o["atom"]
        atom = AtomState.normalized(complex(gr, gi), complex(er, ei))
    return state, atom, CouplingParams(o["lam"], K_DELTA_R)


def flag_value(o, flag, default):
    flags = o["flags"]
    return flags[flags.index(flag) + 1] if flag in flags else default


def check_grid(o, out: Path):
    from crosscavity.distribution import GridSpec, w_grid
    from crosscavity.kernel import MomentumPoint
    from crosscavity.quadrature import w_numeric

    state, atom, params = build(o)
    radial, angular = 400, 720
    grid_flag = flag_value(o, "--grid", "")
    if grid_flag:
        fields = dict(part.split(":") for part in grid_flag.split(","))
        radial, angular = int(fields["r"]), int(fields["phi"])
    raw = (out / "momentum_grid.csv").read_bytes()
    require(raw.startswith(b"p_mag,p_ang,density\n"), "CSV header")
    rows = raw.count(b"\n")
    require(rows == radial * angular + 1, f"CSV has {rows} lines, want {radial * angular + 1}")
    data = np.loadtxt(out / "momentum_grid.csv", delimiter=",", skiprows=1).reshape(radial, angular, 3)
    require(np.isfinite(data).all(), "non-finite value in CSV")
    dens = data[:, :, 2]
    require(dens.min() >= 0.0, f"negative density {dens.min()!r}")
    top = float(dens.max())
    require(top > 0.0, "density is zero everywhere")
    tol = 1e-6 * top
    if flag_value(o, "--kernel", "analytic") == "numeric":
        ref = w_grid(state, atom, params, grid=GridSpec(radial, angular)).densities
        err = float(np.max(np.abs(dens - ref)))
        require(err <= tol, f"numeric grid differs from analytic by {err:.3e} > {tol:.3e}")
        return
    # one seeded node near the first ring, where the oracle stays cheap
    rng = np.random.default_rng(o["node"])
    radii = data[:, 0, 0]
    i = int(np.argmin(np.abs(radii - o["lam"]))) + int(rng.integers(-5, 6))
    i = min(max(i, 0), radial - 1)
    j = int(rng.integers(angular))
    ref = w_numeric(state, atom, MomentumPoint(radii[i], data[i, j, 1]), params)
    err = abs(dens[i, j] - ref)
    require(err <= tol, f"node ({i}, {j}): W = {dens[i, j]!r}, oracle {ref!r}, err {err:.3e} > {tol:.3e}")


def check_distribution(spectrum: dict, hole, closure=1e-10):
    require(all(p >= 0.0 for p in spectrum.values()), f"negative population in {spectrum}")
    total = math.fsum(spectrum.values())
    require(abs(total - 1.0) <= closure, f"populations sum to {total!r}")
    if hole is not None:
        require(spectrum.get(hole, 0.0) <= 1e-10, f"ring {hole} holds {spectrum.get(hole)!r}")


def check_one_photon_spectrum(spectrum: dict):
    require(set(spectrum) == {1, 2}, f"one-photon rings {sorted(spectrum)}")
    require(all(abs(p - 0.5) <= 1e-10 for p in spectrum.values()), f"one-photon spectrum {spectrum}")


def check_rotation(alpha, theta_m, concurrence):
    require(theta_m is not None and abs(theta_m - alpha) <= 0.01, f"theta_m {theta_m!r} vs alpha {alpha!r}")
    require(abs(concurrence - abs(math.sin(2 * alpha))) <= 0.02, f"C {concurrence!r} vs alpha {alpha!r}")


def check_detect(o, out: Path):
    report = json.loads((out / "detection.json").read_text())
    spectrum = {e["n"]: e["p"] for e in report["spectrum"]["entries"]}
    hole = hole_ring(o["builder"])
    check_distribution(spectrum, hole)
    flagged = [f["n"] for f in report["missing_rings"] if f["flagged"]]
    require(report["predicted_missing"] == hole, f"predicted_missing {report['predicted_missing']} vs {hole}")
    if hole is not None:
        require(hole in flagged, f"hole {hole} not among flagged rings {flagged}")
    if o["builder"][0] == "one_photon":
        check_one_photon_spectrum(spectrum)
        check_rotation(o["builder"][1][0], report["theta_m"], report["concurrence"])


def check_populations(o, out: Path):
    from crosscavity.distribution import populations

    lines = (out / "populations.csv").read_text().splitlines()
    estimator = flag_value(o, "--estimator", "exact")
    require(lines[0] == "n,p,estimator", "populations header")
    rows = [line.split(",") for line in lines[1:]]
    require(all(r[2] == estimator for r in rows), "estimator column")
    spectrum = {int(r[0]): float(r[1]) for r in rows}
    if estimator == "exact":
        check_distribution(spectrum, hole_ring(o["builder"]))
        if o["builder"][0] == "one_photon":
            check_one_photon_spectrum(spectrum)
    elif estimator == "eq8":
        check_distribution(spectrum, None, closure=1e-9)
        exact = populations(*build(o), estimator="exact").as_dict()
        worst = max(abs(spectrum[n] - exact[n]) for n in spectrum)
        require(worst <= 0.03, f"eq8 differs from exact by {worst:.4f} > 0.03")
    else:
        require(all(p >= 0.0 for p in spectrum.values()), f"negative window mass in {spectrum}")
        require(math.fsum(spectrum.values()) <= 1.0 + 1e-3, f"window masses sum to {math.fsum(spectrum.values())!r}")


def check_sweep(o, out: Path):
    start, stop, count = flag_value(o, "--sweep", None).split(":")
    alphas = np.linspace(float(start), float(stop), int(count))
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    require(header[:3] == ["alpha", "theta_m", "concurrence"], "sweep header")
    require(len(lines) == len(alphas) + 1, f"sweep has {len(lines) - 1} rows")
    for alpha, line in zip(alphas, lines[1:]):
        cells = [float(x) for x in line.split(",")]
        require(abs(cells[0] - alpha) <= 1e-11, f"alpha column {cells[0]!r} vs {alpha!r}")
        spectrum = {int(h[1:]): p for h, p in zip(header[3:], cells[3:]) if p != 0.0}
        check_distribution(spectrum, None)
        if o["builder"][0] == "one_photon":
            check_one_photon_spectrum(spectrum)
            check_rotation(float(alpha), cells[1], cells[2])
        else:
            require(math.isnan(cells[1]) and math.isnan(cells[2]), "two-photon rotation readout not NaN")


def check_validate(o, out: Path, stdout: str):
    require(", 0 failure(s)" in stdout, f"validate summary: {stdout.strip().splitlines()[-1:]}")
    require(json.loads((out / "validate_failures.json").read_text()) == [], "validate failures listed")


def check(o, out: Path, stdout: str):
    verb = o["verb"]
    if verb == "simulate":
        check_grid(o, out)
    elif verb == "detect":
        check_detect(o, out)
    elif verb == "populations":
        check_populations(o, out)
    elif verb == "sweep":
        check_sweep(o, out)
    elif verb == "validate":
        check_validate(o, out, stdout)
    else:
        raise CheckFailed(f"no check for verb {verb!r}")


def serve(lines, reply):
    for line in lines:
        request = json.loads(line)
        try:
            check(request["op"], Path(request["out"]), request["stdout"])
            answer = {"ok": True, "why": ""}
        except CheckFailed as exc:
            answer = {"ok": False, "why": str(exc)}
        except Exception as exc:  # a broken artifact must be reported, not crash the checker
            answer = {"ok": False, "why": f"{type(exc).__name__}: {exc}"}
        reply(json.dumps(answer))


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])

    def reply(text):
        sys.stdout.write(text + "\n")
        sys.stdout.flush()

    serve(sys.stdin, reply)
