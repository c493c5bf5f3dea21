"""State-specification documents and file exporters.

A state spec is a JSON object with either a named builder or explicit
amplitudes, an optional atom block (default: pure excited) and the coupling
parameters:

    {"builder": {"name": "noon", "args": [2]},
     "params": {"lambda": 100, "k_delta_r": 0.1}}

    {"amplitudes": [{"m": 1, "n": 0, "re": 1, "im": 0}],
     "atom": {"c_g": {"re": 0, "im": 0}, "c_e": {"re": 1, "im": 0}},
     "params": {"lambda": 20, "k_delta_r": 0.1}}

Unknown fields are rejected.  Every numeric field (``lambda``,
``k_delta_r``, ``re``, ``im`` and the angle of the ``one_photon`` and
``two_photon`` builders) must be a JSON number: ``true``, ``"20"`` or
``"nan"`` are refused as non-numeric, while JSON's bare ``NaN`` and
``Infinity`` tokens parse as numbers and are refused where the value must be
finite.  Photon indices and ``noon``/``family`` arguments must be integers.
Parsed amplitudes are normalized; the applied correction factor is recorded
on the parse result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

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


def _number(value, where: str) -> float:
    """``value`` as a float if it is a JSON number; bools, strings and the rest are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StateSpecError(f"non-numeric value in {where}: {value!r} is not a JSON number")
    try:
        return float(value)
    except OverflowError:
        raise StateSpecError(f"{where}: {value} overflows a float") from None


def _complex_field(obj, where: str) -> complex:
    if not isinstance(obj, dict):
        raise StateSpecError(f"{where} must be an object with re/im")
    _require_keys(obj, {"re", "im"}, where)
    return complex(_number(obj.get("re", 0.0), f"{where}.re"), _number(obj.get("im", 0.0), f"{where}.im"))


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
                coerced.append(_number(a, f"builder {name!r} argument"))
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

    try:  # refuses a zero norm and one beyond the float range
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
    lam = _number(params_doc["lambda"], "params.lambda")
    k_delta_r = _number(params_doc["k_delta_r"], "params.k_delta_r")
    try:
        params = CouplingParams(lam, k_delta_r)
    except ValueError as exc:
        raise StateSpecError(f"params: {exc}") from None

    return ParsedSpec(
        state=state,
        atom=atom,
        params=params,
        norm_correction=1.0 / raw_state.norm(),
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


# The grid writer lays every CSV line out in fixed-width 8-byte words padded
# with _PAD, which no CSV text contains and which is deleted before writing.
_PAD = b"\0"
# Densities per written buffer; a buffer always holds whole grid rows.
_CHUNK_VALUES = 8192
# Decimal exponents X of the tables below run over -_X_SPAN.._X_SPAN.
_X_SPAN = 290
# Fast-route range: there 10**(11 - X) and the scaled density are normal.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# The fast route rounds s = |v| * 10**(11 - X), in [1e11, 1e12), to the
# 12-digit mantissa.  The factor is the correctly rounded double (exact for
# 0 <= 11 - X <= 22) and the product rounds once more; each rounding errs by
# at most 2**-53 relative, so s is within 2**-52 * 1e12 < 2.3e-4 of the exact
# scaled value.  A fraction of s at least _MARGIN away from .5 therefore
# rounds as the exact value does; every other density is formatted by
# '%.12g' on its own.
_MARGIN = 1e-3


def _word_table(texts) -> np.ndarray:
    """Byte strings padded with _PAD to one width of whole words, one row each."""
    width = -(-max(map(len, texts), default=0) // 8) * 8
    buf = b"".join(t.ljust(width, _PAD) for t in texts)
    return np.frombuffer(buf, np.uint64).reshape(len(texts), width // 8)


def _digit_tables():
    """Lookup tables of the fast route; see :func:`_format_densities`."""
    xs = range(-_X_SPAN, _X_SPAN + 1)
    scale = np.array([float(f"1e{11 - x}") for x in xs])
    # sign and the "0.000" of -4 <= X <= -1, at 2*(X + _X_SPAN) + negative
    lead = _word_table([
        sign + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")
        for x in xs for sign in (b"", b"-")
    ])[:, 0]
    # exponent, shown outside -4 <= X < 12, and the line end
    tail = _word_table([
        (b"" if -4 <= x < 12 else b"e%+03d" % x) + b"\n" for x in xs
    ])[:, 0]
    # 1 + the digit the point follows: X for fixed notation with X >= 0,
    # the first digit for exponent notation, none when "0." leads
    point1 = np.array([0 if -4 <= x < 0 else x + 1 if 0 <= x < 12 else 1 for x in xs])
    triples = [b"%03d" % g for g in range(1000)]
    trailing_zeros = np.array([3 - len(t.rstrip(b"0")) for t in triples])
    # a 3-digit group cut to its first `keep` digits, a point after digit
    # `point - 1` when point > 0, at g + 1000*(keep + 4*point)
    source = np.frombuffer(b"".join(t + b"." + _PAD for t in triples), np.uint8).reshape(1000, 5)
    group = np.empty((4, 4, 1000, 4), np.uint8)
    for point in range(4):
        for keep in range(4):
            columns = list(range(keep))
            if point:
                columns.insert(point, 3)
            group[point, keep] = source[:, (columns + [4] * 4)[:4]]
    group = group.reshape(-1, 4).view(np.uint32).ravel()
    # offset into `group` of group q, at 13*tz + point1, for a mantissa with
    # tz trailing zeros: nd = max(12 - tz, point1) digits are shown, and the
    # point when a digit follows it
    offsets = np.zeros((4, 13 * 13), np.int64)
    for tz in range(13):
        for p1 in range(13):
            nd = max(12 - tz, p1)
            for q in range(4):
                keep = min(max(nd - 3 * q, 0), 3)
                o = p1 - 3 * q
                point = o if 0 < p1 < nd and 1 <= o <= 3 else 0
                offsets[q, 13 * tz + p1] = 1000 * (keep + 4 * point)
    return scale, lead, tail, point1, trailing_zeros, group, offsets


_SCALE, _LEAD, _TAIL, _POINT1, _TRAILING_ZEROS, _GROUP, _GROUP_OFFSETS = _digit_tables()


def _format_densities(values: np.ndarray, words: np.ndarray) -> int:
    """Write ``'%.12g\\n' % v`` for each value into a row of 4 padded words.

    ``words`` is an ``(n, 4)`` uint64 view whose last axis is contiguous.  The
    fast route finds the decimal exponent X and the 12-digit mantissa of each
    finite value with ``1e-280 <= |v| <= 1e280`` or ``v == 0`` by scaling with
    a power of ten, and lays the text out by the ``%g`` rules: fixed notation
    for -4 <= X < 12, else ``d.ddde±XX``, trailing zeros and a bare point
    stripped, a sign also on ``-0``.  A mantissa whose rounding the float error
    could change (see _MARGIN), a non-finite value and a value outside the
    range are formatted by ``'%.12g' %`` one by one.  Returns their count.
    """
    mag = np.abs(values)
    fast = (mag >= _FAST_MIN) & (mag <= _FAST_MAX)
    mag[~fast] = 1.0  # any finite stand-in; these lines are overwritten below
    x = np.floor(np.log10(mag)).astype(np.int64)
    scaled = mag * _SCALE[x + _X_SPAN]
    x += scaled >= 1e12
    x -= scaled < 1e11
    scaled = mag * _SCALE[x + _X_SPAN]
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) >= _MARGIN
    mantissa = np.rint(scaled).astype(np.int64)
    carry = mantissa == 10**12
    mantissa[carry] = 10**11
    x += carry
    zero = values == 0.0
    mantissa[zero] = 0
    x[zero] = 0
    xi = x + _X_SPAN

    high = mantissa // 10**6
    low = mantissa - high * 10**6
    g0 = high // 1000
    g2 = low // 1000
    groups = (g0, high - g0 * 1000, g2, low - g2 * 1000)
    tz = _TRAILING_ZEROS[groups[3]]
    run = groups[3] == 0
    for g in groups[2::-1]:
        tz += run * _TRAILING_ZEROS[g]
        run &= g == 0
    layout = 13 * tz + _POINT1[xi]

    words[:, 0] = _LEAD[2 * xi + np.signbit(values)]
    body = words[:, 1:3].view(np.uint32)
    for q, g in enumerate(groups):
        body[:, q] = _GROUP[g + _GROUP_OFFSETS[q][layout]]
    words[:, 3] = _TAIL[xi]

    slow = np.flatnonzero(~(fast | zero))
    text = words.view(np.uint8)
    width = text.shape[1]
    lines = b"".join((b"%.12g\n" % v).ljust(width, _PAD) for v in values[slow].tolist())
    text[slow] = np.frombuffer(lines, np.uint8).reshape(slow.size, width)
    return slow.size


def grid_to_csv(grid: MomentumGrid, path) -> None:
    """Row-major (radial outer, angular inner) dump: p_mag,p_ang,density.

    Every number is exactly ``'%.12g' %`` of its value, as :func:`fmt12`.  The
    labels are formatted once; the densities go through
    :func:`_format_densities` in buffers of whole rows, about _CHUNK_VALUES
    values each, so the whole text is never held in memory.  Its certified
    fast route formats nearly all densities with numpy; the few whose
    rounding it cannot prove fall back to ``'%.12g' %``.
    """
    radial = _word_table([(fmt12(p) + ",").encode() for p in grid.radial_values.tolist()])
    angular = _word_table([(fmt12(a) + ",").encode() for a in grid.angular_values.tolist()])
    densities = np.asarray(grid.densities, dtype=float)
    kp, ka = radial.shape[1], angular.shape[1]
    width = kp + ka + 4
    rows = max(1, _CHUNK_VALUES // max(densities.shape[1], 1))
    with open(path, "wb") as fh:
        fh.write(b"p_mag,p_ang,density\n")
        for r0 in range(0, densities.shape[0], rows):
            block = densities[r0:r0 + rows]
            lines = np.empty(block.shape + (width,), np.uint64)
            lines[:, :, :kp] = radial[r0:r0 + rows, None]
            lines[:, :, kp:kp + ka] = angular
            _format_densities(block.ravel(), lines.reshape(block.size, width)[:, kp + ka:])
            fh.write(lines.tobytes().translate(None, _PAD))


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
