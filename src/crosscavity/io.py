"""State-specification documents and file exporters.

A state spec is a JSON object with either a named builder or explicit
amplitudes, an optional atom block (default: pure excited) and the coupling
parameters:

    {"builder": {"name": "noon", "args": [2]},
     "params": {"lambda": 100, "k_delta_r": 0.1}}

    {"amplitudes": [{"m": 1, "n": 0, "re": 1, "im": 0}],
     "atom": {"c_g": {"re": 0, "im": 0}, "c_e": {"re": 1, "im": 0}},
     "params": {"lambda": 20, "k_delta_r": 0.1}}

Unknown fields are rejected.  Parsed amplitudes are normalized; the applied
correction factor is recorded on the parse result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .detect import DetectionReport
from .distribution import MomentumGrid, PopulationSpectrum
from .states import (
    AtomState,
    CouplingParams,
    InvalidStateError,
    TwoModeState,
    family_state,
    noon_state,
    normalize,
    one_photon_state,
    two_photon_state,
)


class StateSpecError(ValueError):
    """Malformed state-specification document."""


_BUILDERS = {
    "one_photon": (one_photon_state, 1),
    "two_photon": (two_photon_state, 1),
    "noon": (noon_state, 1),
    "family": (family_state, 2),
}


@dataclass(frozen=True)
class ParsedSpec:
    state: TwoModeState
    atom: AtomState
    params: CouplingParams
    norm_correction: float
    builder: Optional[dict] = None

    def __iter__(self):
        return iter((self.state, self.atom, self.params))


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise StateSpecError(f"unknown field(s) {sorted(unknown)} in {where}")


def _complex_field(obj, where: str) -> complex:
    if not isinstance(obj, dict):
        raise StateSpecError(f"{where} must be an object with re/im")
    _require_keys(obj, {"re", "im"}, where)
    try:
        return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
    except (TypeError, ValueError) as exc:
        raise StateSpecError(f"non-numeric value in {where}: {exc}") from None


def parse_state_spec(text) -> ParsedSpec:
    """Parse a JSON state spec (text or pre-decoded dict)."""
    if isinstance(text, dict):
        doc = text
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StateSpecError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise StateSpecError("top-level document must be an object")
    _require_keys(doc, {"builder", "amplitudes", "atom", "params"}, "state spec")

    if ("builder" in doc) == ("amplitudes" in doc):
        raise StateSpecError("exactly one of 'builder' or 'amplitudes' is required")

    builder_doc = None
    if "builder" in doc:
        builder_doc = doc["builder"]
        if not isinstance(builder_doc, dict):
            raise StateSpecError("'builder' must be an object")
        _require_keys(builder_doc, {"name", "args"}, "builder")
        name = builder_doc.get("name")
        if name not in _BUILDERS:
            raise StateSpecError(f"unknown builder {name!r}; expected one of {sorted(_BUILDERS)}")
        fn, n_args = _BUILDERS[name]
        args = builder_doc.get("args", [])
        if not isinstance(args, list) or len(args) != n_args:
            raise StateSpecError(f"builder {name!r} takes {n_args} argument(s)")
        coerced = []
        for a in args:
            if name in ("noon", "family"):
                if isinstance(a, bool) or not isinstance(a, int):
                    raise StateSpecError(f"builder {name!r} takes integer arguments, got {a!r}")
                coerced.append(a)
            else:
                try:
                    coerced.append(float(a))
                except (TypeError, ValueError):
                    raise StateSpecError(
                        f"builder {name!r} takes numeric arguments, got {a!r}"
                    ) from None
        try:
            raw_state = fn(*coerced)
        except (ValueError, InvalidStateError) as exc:
            raise StateSpecError(f"builder {name!r}: {exc}") from None
    else:
        entries = doc["amplitudes"]
        if not isinstance(entries, list) or not entries:
            raise StateSpecError("'amplitudes' must be a non-empty list")
        amps: Dict[tuple, complex] = {}
        for k, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise StateSpecError(f"amplitudes[{k}] must be an object")
            _require_keys(entry, {"m", "n", "re", "im"}, f"amplitudes[{k}]")
            m, n = entry.get("m"), entry.get("n")
            if any(isinstance(i, bool) or not isinstance(i, int) for i in (m, n)) or m < 0 or n < 0:
                raise StateSpecError(f"amplitudes[{k}]: m, n must be non-negative integers")
            if (m, n) in amps:
                raise StateSpecError(f"amplitudes[{k}]: duplicate entry for ({m}, {n})")
            parts = {part: entry[part] for part in ("re", "im") if part in entry}
            amps[(m, n)] = _complex_field(parts, f"amplitudes[{k}]")
        try:
            raw_state = TwoModeState(amps)
        except InvalidStateError as exc:
            raise StateSpecError(str(exc)) from None

    norm2 = raw_state.norm_squared()
    if norm2 == math.inf:
        raise StateSpecError("squared norm overflows a float")
    if norm2 == 0.0:
        raise StateSpecError("state spec has zero norm")
    try:
        state = normalize(raw_state)
    except InvalidStateError as exc:
        raise StateSpecError(str(exc)) from None

    if "atom" in doc:
        atom_doc = doc["atom"]
        if not isinstance(atom_doc, dict):
            raise StateSpecError("'atom' must be an object")
        _require_keys(atom_doc, {"c_g", "c_e"}, "atom")
        c_g = _complex_field(atom_doc.get("c_g", {"re": 0.0, "im": 0.0}), "atom.c_g")
        c_e = _complex_field(atom_doc.get("c_e", {"re": 0.0, "im": 0.0}), "atom.c_e")
        try:
            atom = AtomState.normalized(c_g, c_e)
        except InvalidStateError as exc:
            raise StateSpecError(f"atom: {exc}") from None
    else:
        atom = AtomState.excited()

    if "params" not in doc:
        raise StateSpecError("missing 'params'")
    params_doc = doc["params"]
    if not isinstance(params_doc, dict):
        raise StateSpecError("'params' must be an object")
    _require_keys(params_doc, {"lambda", "k_delta_r"}, "params")
    if "lambda" not in params_doc or "k_delta_r" not in params_doc:
        raise StateSpecError("params requires 'lambda' and 'k_delta_r'")
    try:
        params = CouplingParams(float(params_doc["lambda"]), float(params_doc["k_delta_r"]))
    except (TypeError, ValueError) as exc:
        raise StateSpecError(f"params: {exc}") from None

    return ParsedSpec(
        state=state,
        atom=atom,
        params=params,
        norm_correction=1.0 / math.sqrt(norm2),
        builder=dict(builder_doc) if builder_doc else None,
    )


def serialize_state_spec(parsed: ParsedSpec) -> str:
    """Canonical JSON for a parsed spec; reparsing reproduces amplitudes bit-for-bit."""
    doc = {
        "amplitudes": [
            {"m": m, "n": n, "re": c.real, "im": c.imag}
            for (m, n), c in parsed.state.amplitudes.items()
        ],
        "atom": {
            "c_g": {"re": parsed.atom.c_g.real, "im": parsed.atom.c_g.imag},
            "c_e": {"re": parsed.atom.c_e.real, "im": parsed.atom.c_e.imag},
        },
        "params": {"lambda": parsed.params.lam, "k_delta_r": parsed.params.k_delta_r},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# exporters: CSV for bulk data, JSON for reports, 12 significant digits
# ----------------------------------------------------------------------

def fmt12(x: float) -> str:
    return f"{x:.12g}"


def round12(value):
    """Recursively round floats to 12 significant digits for JSON output."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round12(v) for v in value]
    return value


def grid_to_csv(grid: MomentumGrid, path) -> None:
    """Row-major (radial outer, angular inner) dump: p_mag,p_ang,density.

    The angle labels are formatted once into a per-grid template of one
    radius row; each row fills in its radius label and its densities (``%.12g``
    formats exactly as :func:`fmt12`) and is written on its own, so the whole
    text is never held in memory.
    """
    template = "".join(f"\0,{fmt12(ang)},%.12g\n" for ang in grid.angular_values)
    with open(path, "w", newline="") as fh:
        fh.write("p_mag,p_ang,density\n")
        for p, row in zip(grid.radial_values, grid.densities):
            fh.write(template.replace("\0", fmt12(p)) % tuple(row.tolist()))


def grid_meta_to_json(grid: MomentumGrid, path, extra: Optional[dict] = None) -> None:
    meta = dict(grid.meta)
    meta["artifact_version"] = "0.1.0"
    if extra:
        meta.update(extra)
    with open(path, "w") as fh:
        json.dump(round12(meta), fh, indent=2, sort_keys=True)
        fh.write("\n")


def spectrum_to_rows(spectrum: PopulationSpectrum) -> List[str]:
    rows = ["n,p,estimator"]
    rows += [f"{e.n},{fmt12(e.p)},{e.estimator}" for e in spectrum.entries]
    return rows


def spectrum_to_csv(spectrum: PopulationSpectrum, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(spectrum_to_rows(spectrum)) + "\n")


def report_to_dict(report: DetectionReport) -> dict:
    return {
        "theta_m": report.theta_m,
        "theta_m_raw": report.theta_m_raw,
        "concurrence": report.concurrence,
        "spectrum": {
            "estimator": report.spectrum.estimator,
            "entries": [
                {"n": e.n, "p": e.p} for e in report.spectrum.entries
            ],
            "warnings": list(report.spectrum.warnings),
        },
        "missing_rings": [
            {"n": f.n, "p": f.p, "flagged": f.flagged} for f in report.missing_rings
        ],
        "predicted_missing": report.predicted_missing,
        "warnings": list(report.warnings),
    }


def report_to_json(report: DetectionReport, path=None) -> str:
    text = json.dumps(round12(report_to_dict(report)), indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def sweep_to_csv(rows: Sequence[dict], n_max: int, path) -> None:
    header = ["alpha", "theta_m", "concurrence"] + [f"P{n}" for n in range(1, n_max + 1)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [fmt12(row["alpha"]), fmt12(row["theta_m"]), fmt12(row["concurrence"])]
            cells += [fmt12(row["populations"].get(n, 0.0)) for n in range(1, n_max + 1)]
            fh.write(",".join(cells) + "\n")


def matrix_to_csv(matrix, path) -> None:
    with open(path, "w", newline="") as fh:
        for row in matrix:
            fh.write(",".join(fmt12(v) for v in row) + "\n")
