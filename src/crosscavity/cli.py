"""Command-line interface.

Verbs: simulate, detect, populations, sweep, coeffs, validate.  All heavy
output goes to files under --out; stdout carries a short human summary.
Exit codes: 0 success, 2 parse error, 3 numerical-accuracy failure,
4 invalid physics arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import io as specio
from .detect import NoSignalError, detect, detect_stack
from .distribution import GridSpec, populations, total_probability, w_grid
from .kernel import UnsupportedProfileError
from .quadrature import AccuracyError, QuadratureSpec
from .rotation import d_matrix
from .states import SUPPORT_CAP, InvalidStateError
from .validation import kernel_battery

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ACCURACY = 3
EXIT_PHYSICS = 4

WORKERS_ENV = "CROSSCAVITY_WORKERS"

# mixing angles per readout pass of ``sweep``; bounds its working memory
SWEEP_BLOCK = 64


def _parse_grid(text: str) -> GridSpec:
    fields = {"r": None, "phi": None, "pmax": None}
    if text:
        for part in text.split(","):
            key, _, value = part.partition(":")
            if key not in fields or not value:
                raise specio.StateSpecError(f"bad --grid component {part!r}")
            fields[key] = value
    try:
        return GridSpec(
            radial_points=int(fields["r"]) if fields["r"] else 400,
            angular_points=int(fields["phi"]) if fields["phi"] else 720,
            p_max=float(fields["pmax"]) if fields["pmax"] else None,
        )
    except ValueError as exc:
        raise specio.StateSpecError(f"bad --grid value: {exc}") from None


def _check_workers(flag) -> None:
    """Validate ``--workers``, else ``CROSSCAVITY_WORKERS``.

    Both are kept for compatibility only: the assembly is single-threaded, so
    a valid count changes nothing.
    """
    source, text = "--workers", flag
    if flag is None:
        source, text = WORKERS_ENV, os.environ.get(WORKERS_ENV)
    if not text:
        return
    try:
        valid = int(text) >= 1
    except ValueError:
        valid = False
    if not valid:
        raise specio.StateSpecError(f"{source} must be a positive integer, got {text!r}")


def _load_spec(path: str) -> specio.ParsedSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise specio.StateSpecError(f"cannot read state spec {path!r}: {exc}") from None
    return specio.parse_state_spec(text)


def _check_out(path: str) -> None:
    """Before any work, refuse an ``--out`` whose path or nearest existing ancestor is not a directory."""
    out = Path(path)
    at = next(a for a in (out, *out.parents) if os.path.lexists(a))  # "." or "/" at the latest
    if not at.is_dir():
        reason = "File exists" if at == out else "Not a directory"
        raise specio.StateSpecError(f"cannot use --out {path!r}: {reason}")


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise specio.StateSpecError(f"cannot use --out {path!r}: {exc.strerror or exc}") from None
    return out


def _cmd_simulate(args) -> int:
    _check_workers(args.workers)
    spec = _load_spec(args.state)
    grid_spec = _parse_grid(args.grid)
    quad = QuadratureSpec() if args.kernel == "numeric" else None
    grid = w_grid(
        spec.state,
        spec.atom,
        spec.params,
        grid=grid_spec,
        kernel=args.kernel,
        quad=quad,
    )
    if not np.isfinite(grid.densities).all():
        raise AccuracyError("density grid holds NaN or Inf; nothing written")
    out = _out_dir(args.out)
    specio.grid_to_csv(grid, out / "momentum_grid.csv")
    specio.grid_meta_to_json(
        grid, out / "momentum_grid.json",
        extra={"state_spec": json.loads(specio.serialize_state_spec(spec))},
    )
    mass = total_probability(grid)
    print(f"grid {grid.densities.shape[0]}x{grid.densities.shape[1]} written to {out}")
    print(f"integrated probability on grid: {mass:.6f}")
    for w in grid.meta["warnings"]:
        print(f"warning: {w}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    thresholds = {"--abs-threshold": args.abs_threshold, "--rel-threshold": args.rel_threshold}
    for flag, value in thresholds.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise specio.StateSpecError(f"{flag} must be finite and non-negative, got {value!r}")
    spec = _load_spec(args.state)
    report = detect(
        spec.state,
        spec.atom,
        spec.params,
        abs_threshold=args.abs_threshold,
        rel_threshold=args.rel_threshold,
    )
    out = _out_dir(args.out)
    specio.report_to_json(report, out / "detection.json")
    if report.theta_m is not None:
        print(f"theta_m = {report.theta_m:.6f} rad   concurrence = {report.concurrence:.6f}")
    flagged = [f.n for f in report.missing_rings if f.flagged]
    print(f"missing rings: {flagged if flagged else 'none'}")
    if report.predicted_missing is not None:
        print(f"predicted missing ring: {report.predicted_missing}")
    for w in report.warnings:
        print(f"note: {w}")
    print(f"report written to {out / 'detection.json'}")
    return EXIT_OK


def _cmd_populations(args) -> int:
    spec = _load_spec(args.state)
    spectrum = populations(spec.state, spec.atom, spec.params, estimator=args.estimator)
    out = _out_dir(args.out)
    specio.spectrum_to_csv(spectrum, out / "populations.csv")
    for e in spectrum.entries:
        print(f"P_{e.n} = {e.p:.6f}")
    for w in spectrum.warnings:
        print(f"note: {w}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = _load_spec(args.state)
    if spec.builder is None or spec.builder.get("name") not in ("one_photon", "two_photon"):
        raise InvalidStateError("sweep requires a one_photon or two_photon builder spec")
    try:
        start_s, stop_s, count_s = args.sweep.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("endpoints must be finite")
        if count < 2:
            raise ValueError("need at least 2 sweep points")
    except ValueError as exc:
        raise specio.StateSpecError(f"bad --sweep range: {exc}") from None

    from .states import one_photon_state, two_photon_state

    builder = one_photon_state if spec.builder["name"] == "one_photon" else two_photon_state
    alphas = [float(alpha) for alpha in np.linspace(start, stop, count)]
    rows = []
    for first in range(0, count, SWEEP_BLOCK):
        block = alphas[first : first + SWEEP_BLOCK]
        reports = detect_stack([builder(alpha) for alpha in block], spec.atom, spec.params)
        for alpha, report in zip(block, reports):
            rows.append(
                {
                    "alpha": alpha,
                    "theta_m": report.theta_m if report.theta_m is not None else math.nan,
                    "concurrence": report.concurrence if report.concurrence is not None else math.nan,
                    "populations": report.spectrum.as_dict(),
                }
            )
    n_max = max(max(row["populations"]) for row in rows)
    out = _out_dir(args.out)
    specio.sweep_to_csv(rows, n_max, out / "sweep.csv")
    print(f"{len(rows)} sweep rows written to {out / 'sweep.csv'}")
    return EXIT_OK


def _cmd_coeffs(args) -> int:
    if not math.isfinite(args.theta):
        raise specio.StateSpecError(f"--theta must be finite, got {args.theta!r}")
    if args.total > SUPPORT_CAP:
        raise InvalidStateError(f"block size {args.total} exceeds support cap {SUPPORT_CAP}")
    mat = d_matrix(args.total, args.theta)
    out = _out_dir(args.out)
    specio.matrix_to_csv(mat, out / "coeffs.csv")
    print(f"{mat.shape[0]}x{mat.shape[1]} coefficient matrix written to {out / 'coeffs.csv'}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    if args.full:
        summary = kernel_battery(progress=lambda msg: print(f"  {msg}"))
    else:
        summary = kernel_battery(
            lams=(20.0,), kdrs=(0.1,), max_total=2, points=8,
            progress=lambda msg: print(f"  {msg}"),
        )
    print(
        f"{len(summary.records)} comparisons, worst err/tol = {summary.worst_ratio:.3e}, "
        f"{len(summary.failures)} failure(s)"
    )
    if args.out:
        out = _out_dir(args.out)
        payload = [
            {
                "lambda": r.lam,
                "k_delta_r": r.k_delta_r,
                "total": r.idx.total,
                "m": r.idx.m,
                "n": r.idx.n,
                "epsilon": r.idx.epsilon,
                "branch": r.idx.branch,
                "p_mag": r.point.p_mag,
                "p_ang": r.point.p_ang,
                "abs_err": r.abs_err,
                "tolerance": r.tolerance,
            }
            for r in summary.failures
        ]
        with open(out / "validate_failures.json", "w") as fh:
            json.dump(specio.round12(payload), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not summary.passed:
        raise AccuracyError(
            f"{len(summary.failures)} kernel comparisons out of tolerance",
            error_bound=summary.worst_ratio,
        )
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="crosscavity",
        description="2D optical Stern-Gerlach deflection simulator for crossed-cavity Fock states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, state=True):
        if state:
            p.add_argument("--state", required=True, help="path to a JSON state spec")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="render the momentum distribution to CSV")
    add_common(p)
    p.add_argument("--kernel", choices=("analytic", "numeric"), default="analytic")
    p.add_argument("--grid", default="", help="grid spec, e.g. r:400,phi:720,pmax:130")
    p.add_argument(
        "--workers",
        help=f"positive integer, overrides {WORKERS_ENV}; kept for compatibility, no effect",
    )
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("detect", help="run both entanglement criteria")
    add_common(p)
    p.add_argument("--abs-threshold", type=float, default=0.02)
    p.add_argument("--rel-threshold", type=float, default=0.1)
    p.set_defaults(run=_cmd_detect)

    p = sub.add_parser("populations", help="ring populations by one estimator")
    add_common(p)
    p.add_argument("--estimator", choices=("eq8", "window", "exact"), default="exact")
    p.set_defaults(run=_cmd_populations)

    p = sub.add_parser("sweep", help="sweep the builder angle, tabulate readouts")
    add_common(p)
    p.add_argument("--sweep", required=True, help="start:stop:count (radians)")
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("coeffs", help="dump a block-rotation coefficient matrix")
    add_common(p, state=False)
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.set_defaults(run=_cmd_coeffs)

    p = sub.add_parser("validate", help="cross-check closed-form kernels against quadrature")
    p.add_argument("--out", default=None)
    p.add_argument(
        "--full",
        action="store_true",
        help="run the full battery (33600 comparisons, about 1.5 s on a 2-vCPU machine)",
    )
    p.set_defaults(run=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        return args.run(args)
    except specio.StateSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except (InvalidStateError, UnsupportedProfileError, NoSignalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
