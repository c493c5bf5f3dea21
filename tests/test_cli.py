import json
import math

import numpy as np
import pytest

from crosscavity import MomentumGrid, cli, distribution, parse_state_spec, serialize_state_spec, w_grid
from crosscavity.cli import main
from crosscavity.io import _CHUNK_VALUES, StateSpecError, _format_densities, fmt12, grid_to_csv

NOON2 = {
    "builder": {"name": "noon", "args": [2]},
    "params": {"lambda": 100, "k_delta_r": 0.1},
}


def write_spec(tmp_path, doc, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_parse_builder_spec():
    parsed = parse_state_spec(json.dumps(NOON2))
    assert parsed.params.lam == 100.0
    assert parsed.params.k_delta_r == 0.1
    assert set(parsed.state.amplitudes) == {(2, 0), (0, 2)}
    assert parsed.atom.c_e == 1.0 + 0j
    assert parsed.norm_correction == pytest.approx(1.0)


def test_parse_explicit_amplitudes():
    doc = {
        "amplitudes": [{"m": 1, "n": 0, "re": 1, "im": 0}],
        "params": {"lambda": 20, "k_delta_r": 0.1},
    }
    parsed = parse_state_spec(json.dumps(doc))
    assert dict(parsed.state.amplitudes) == {(1, 0): 1.0 + 0j}


def test_parse_family_builder():
    doc = {"builder": {"name": "family", "args": [1, 1]}, "params": {"lambda": 20, "k_delta_r": 0.1}}
    parsed = parse_state_spec(json.dumps(doc))
    assert set(parsed.state.amplitudes) == {(1, 3), (3, 1)}


def test_parse_applies_normalization_with_factor():
    doc = {
        "amplitudes": [{"m": 0, "n": 2, "re": 3, "im": 0}, {"m": 2, "n": 0, "re": 4, "im": 0}],
        "params": {"lambda": 20, "k_delta_r": 0.1},
    }
    parsed = parse_state_spec(json.dumps(doc))
    assert parsed.norm_correction == pytest.approx(0.2)
    assert parsed.state.amplitudes[(0, 2)] == pytest.approx(0.6)


def test_parse_rejections():
    bad = [
        ("not json", "invalid JSON"),
        (json.dumps({"params": {"lambda": 1, "k_delta_r": 1}}), "builder"),
        (json.dumps({**NOON2, "extra": 1}), "unknown field"),
        (json.dumps({"builder": {"name": "bogus", "args": [1]}, "params": NOON2["params"]}), "unknown builder"),
        (
            json.dumps(
                {"amplitudes": [{"m": -1, "n": 0, "re": 1, "im": 0}], "params": NOON2["params"]}
            ),
            "non-negative",
        ),
        (
            json.dumps(
                {"amplitudes": [{"m": 0, "n": 0, "re": 0, "im": 0}], "params": NOON2["params"]}
            ),
            "norm",
        ),
        (json.dumps({"builder": NOON2["builder"]}), "params"),
    ]
    for entry, fragment in (
        ({"m": 1, "n": 0, "re": [1]}, "non-numeric"),
        ({"m": 1, "n": 0, "re": None}, "non-numeric"),
        ({"m": 1, "n": 0, "re": "abc"}, "non-numeric"),
        ({"m": True, "n": 0, "re": 1}, "non-negative integers"),
        ({"m": 1, "n": 0, "re": 1.7e308, "im": 1.7e308}, "overflows"),
    ):
        bad.append((json.dumps({"amplitudes": [entry], "params": NOON2["params"]}), fragment))
    for text, fragment in bad:
        with pytest.raises(StateSpecError) as err:
            parse_state_spec(text)
        assert fragment.lower() in str(err.value).lower()


def test_parse_scales_moduli_whose_squares_overflow():
    # |1e300 (1 + i)|^2 overflows a float, its norm does not: the spec is the (1, 1) state
    doc = {"amplitudes": [{"m": 1, "n": 1, "re": 1e300, "im": 1e300}], "params": NOON2["params"]}
    parsed = parse_state_spec(json.dumps(doc))
    assert list(parsed.state.amplitudes) == [(1, 1)]
    assert abs(parsed.state.amplitudes[(1, 1)] - (1.0 + 1.0j) / math.sqrt(2.0)) <= 1e-15
    assert parsed.norm_correction == pytest.approx(1.0 / (math.sqrt(2.0) * 1e300), rel=1e-15)


def test_parse_rejects_bad_builder_args():
    params = {"lambda": 20, "k_delta_r": 0.1}
    for builder in (
        {"name": "noon", "args": [True]},
        {"name": "noon", "args": [1.0]},
        {"name": "one_photon", "args": ["x"]},
        {"name": "family", "args": [1]},
    ):
        with pytest.raises(StateSpecError):
            parse_state_spec(json.dumps({"builder": builder, "params": params}))


def test_round_trip_bit_for_bit():
    doc = {
        "amplitudes": [
            {"m": 0, "n": 1, "re": 0.123456789012345, "im": -0.5},
            {"m": 3, "n": 2, "re": -1.1, "im": 0.7071067811865476},
        ],
        "atom": {"c_g": {"re": 0.6, "im": 0.0}, "c_e": {"re": 0.0, "im": 0.8}},
        "params": {"lambda": 37.5, "k_delta_r": 0.17},
    }
    first = parse_state_spec(json.dumps(doc))
    text = serialize_state_spec(first)
    second = parse_state_spec(text)
    assert dict(first.state.amplitudes) == dict(second.state.amplitudes)
    assert first.atom == second.atom
    assert first.params == second.params


def run_cli(args):
    return main([str(a) for a in args])


def test_cli_simulate_and_outputs(tmp_path):
    spec = write_spec(tmp_path, NOON2)
    out = tmp_path / "sim"
    code = run_cli(["simulate", "--state", spec, "--out", out, "--grid", "r:60,phi:48"])
    assert code == 0
    csv_lines = (out / "momentum_grid.csv").read_text().splitlines()
    assert csv_lines[0] == "p_mag,p_ang,density"
    assert len(csv_lines) == 1 + 60 * 48
    meta = json.loads((out / "momentum_grid.json").read_text())
    assert meta["kernel"] == "analytic"
    assert meta["lambda"] == 100
    assert meta["grid"]["radial_points"] == 60
    assert meta["artifact_version"]
    spec_doc = meta["state_spec"]
    assert {(e["m"], e["n"]) for e in spec_doc["amplitudes"]} == {(2, 0), (0, 2)}
    assert spec_doc["params"]["lambda"] == 100


def test_cli_simulate_ring_argmax(tmp_path):
    # the exported grid carries the rotated lobe: angular argmax on the
    # outer ring of a balanced one-photon state sits at pi/4
    spec = write_spec(
        tmp_path,
        {
            "builder": {"name": "one_photon", "args": [math.pi / 4]},
            "params": {"lambda": 20, "k_delta_r": 0.1},
        },
    )
    out = tmp_path / "sim"
    assert run_cli(["simulate", "--state", spec, "--out", out, "--grid", "r:200,phi:720,pmax:40"]) == 0
    ring = math.sqrt(2) * 20.0
    best_row = {}
    with open(out / "momentum_grid.csv") as fh:
        next(fh)
        for line in fh:
            p, ang, dens = (float(x) for x in line.split(","))
            if abs(p - ring) < 0.11:
                best_row[ang] = dens
    assert best_row, "no grid row near the outer ring"
    argmax = max(best_row, key=best_row.get) % math.pi
    assert abs(argmax - math.pi / 4) <= 0.01


def test_cli_detect_noon6(tmp_path):
    spec = write_spec(
        tmp_path,
        {"builder": {"name": "noon", "args": [6]}, "params": {"lambda": 20, "k_delta_r": 0.1}},
    )
    out = tmp_path / "det"
    assert run_cli(["detect", "--state", spec, "--out", out]) == 0
    report = json.loads((out / "detection.json").read_text())
    assert report["predicted_missing"] == 4
    flagged = [f["n"] for f in report["missing_rings"] if f["flagged"]]
    assert flagged == [4]


def test_cli_detect_one_photon(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "builder": {"name": "one_photon", "args": [math.pi / 8]},
            "params": {"lambda": 20, "k_delta_r": 0.1},
        },
    )
    out = tmp_path / "det"
    assert run_cli(["detect", "--state", spec, "--out", out]) == 0
    report = json.loads((out / "detection.json").read_text())
    assert abs(report["concurrence"] - math.sqrt(2) / 2) <= 0.02


def test_cli_populations(tmp_path):
    spec = write_spec(tmp_path, NOON2)
    out = tmp_path / "pop"
    assert run_cli(["populations", "--state", spec, "--out", out, "--estimator", "exact"]) == 0
    rows = (out / "populations.csv").read_text().splitlines()
    assert rows[0] == "n,p,estimator"
    values = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
    assert values[2] == pytest.approx(0.0, abs=1e-10)


def test_cli_coeffs(tmp_path):
    out = tmp_path / "c"
    assert run_cli(["coeffs", "--total", 1, "--theta", 0.0, "--out", out]) == 0
    rows = (out / "coeffs.csv").read_text().splitlines()
    assert rows == ["1,0", "0,1"]
    assert run_cli(["coeffs", "--total", 99, "--theta", 0.0, "--out", out]) == 4


def test_cli_coeffs_rejects_non_finite_theta(tmp_path):
    for theta in ("nan", "inf", "-inf"):
        out = tmp_path / f"c{theta}"
        # "--theta=" because argparse reads a bare "-inf" as an option
        assert run_cli(["coeffs", "--total", 2, f"--theta={theta}", "--out", out]) == 2
        assert not out.exists()


def test_cli_detect_rejects_bad_thresholds(tmp_path):
    spec = write_spec(tmp_path, NOON2)
    cases = [("abs", "nan"), ("abs", "inf"), ("abs", "-1"), ("rel", "nan"), ("rel", "inf"), ("rel", "-0.5")]
    for which, value in cases:
        out = tmp_path / f"det-{which}{value}"
        # "--flag=value" because argparse reads a bare "-inf" as an option
        assert run_cli(["detect", "--state", spec, f"--{which}-threshold={value}", "--out", out]) == 2
        assert not out.exists()
    out = tmp_path / "det-zero"
    assert run_cli(["detect", "--state", spec, "--abs-threshold=0", "--out", out]) == 0
    assert (out / "detection.json").exists()


def test_cli_sweep_rejects_non_finite_endpoints(tmp_path):
    spec = write_spec(
        tmp_path,
        {"builder": {"name": "one_photon", "args": [0.0]}, "params": {"lambda": 20, "k_delta_r": 0.1}},
    )
    for sweep in ("0:nan:3", "0:inf:3", "nan:1:3", "-inf:0:3"):
        out = tmp_path / f"sweep{sweep.replace(':', '_')}"
        assert run_cli(["sweep", "--state", spec, f"--sweep={sweep}", "--out", out]) == 2
        assert not out.exists()


def test_cli_separable_two_photon_detect(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "amplitudes": [{"m": 1, "n": 1, "re": 1, "im": 0}],
            "params": {"lambda": 20, "k_delta_r": 0.1},
        },
    )
    out = tmp_path / "det11"
    assert run_cli(["detect", "--state", spec, "--out", out]) == 0
    report = json.loads((out / "detection.json").read_text())
    assert report["theta_m"] is None
    assert not [f for f in report["missing_rings"] if f["flagged"]]


def test_cli_sweep_two_photon(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "builder": {"name": "two_photon", "args": [0.0]},
            "params": {"lambda": 20, "k_delta_r": 0.1},
        },
    )
    out = tmp_path / "sweep"
    assert run_cli(["sweep", "--state", spec, "--sweep", f"0:{math.pi/4}:9", "--out", out]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("alpha,theta_m,concurrence,P1")
    p2 = [float(r.split(",")[4]) for r in rows[1:]]
    assert p2[0] == pytest.approx(0.25, abs=1e-9)
    assert p2[-1] == pytest.approx(0.0, abs=1e-9)
    assert all(b < a for a, b in zip(p2, p2[1:]))


def test_cli_sweep_one_photon_readout_columns(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "builder": {"name": "one_photon", "args": [0.0]},
            "params": {"lambda": 20, "k_delta_r": 0.1},
        },
    )
    out = tmp_path / "sweep1"
    assert run_cli(["sweep", "--state", spec, "--sweep", f"0:{math.pi/2}:17", "--out", out]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    thetas = []
    for row in rows:
        alpha, theta, conc, p1, p2 = (float(x) for x in row.split(","))
        thetas.append(theta)
        assert abs(theta - alpha) <= 0.01
        assert abs(conc - abs(math.sin(2 * alpha))) <= 0.02
        assert abs(p1 - 0.5) <= 1e-9 and abs(p2 - 0.5) <= 1e-9
    assert all(b >= a for a, b in zip(thetas, thetas[1:]))  # monotone readout


def test_cli_sweep_builds_each_ring_table_once(tmp_path, monkeypatch):
    # an excited atom on one photon has four dressed channels (rings 1 and 2,
    # two branches each); the per-angle loop built their tables once per angle
    calls = []
    original = distribution.mode_radial_table

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(distribution, "mode_radial_table", counting)
    spec = write_spec(
        tmp_path,
        {"builder": {"name": "one_photon", "args": [0.0]}, "params": {"lambda": 20, "k_delta_r": 0.1}},
    )
    assert run_cli(["sweep", "--state", spec, "--sweep", f"0:{math.pi / 2}:33", "--out", tmp_path / "sw"]) == 0
    assert len(calls) == 4
    assert len(set(calls)) == 4


def test_cli_sweep_requires_swept_builder(tmp_path):
    spec = write_spec(tmp_path, NOON2)
    assert run_cli(["sweep", "--state", spec, "--sweep", "0:1:5", "--out", tmp_path / "x"]) == 4


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli(["detect", "--state", bad, "--out", tmp_path / "o"]) == 2
    missing = tmp_path / "missing.json"
    assert run_cli(["detect", "--state", missing, "--out", tmp_path / "o"]) == 2
    # JSON true is a Python int, but not a photon number
    doc = {"amplitudes": [{"m": True, "n": 0, "re": 1}], "params": NOON2["params"]}
    assert run_cli(["detect", "--state", write_spec(tmp_path, doc), "--out", tmp_path / "b"]) == 2
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("verb", ["simulate", "detect", "validate"])
def test_cli_unusable_out_is_a_parse_error(tmp_path, capsys, monkeypatch, verb):
    spec = write_spec(tmp_path, NOON2)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    # --out is refused before the grid, the detection or the battery runs
    for name in ("w_grid", "detect", "kernel_battery"):
        monkeypatch.setattr(cli, name, no_work)

    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    args = {
        "simulate": ["simulate", "--state", spec, "--grid", "r:8,phi:8"],
        "detect": ["detect", "--state", spec],
        "validate": ["validate"],
    }[verb]
    before = sorted(tmp_path.iterdir())
    # an existing file, and a path under one
    for out, reason in ((blocker, "File exists"), (blocker / "sub", "Not a directory")):
        capsys.readouterr()
        assert run_cli([*args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot use --out {str(out)!r}: {reason}\n"
    assert sorted(tmp_path.iterdir()) == before
    assert blocker.read_text() == "keep"


def test_cli_validate_small():
    assert run_cli(["validate"]) == 0


def test_cli_worker_count_validation(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, NOON2)
    grid = ["--grid", "r:20,phi:8"]
    for count in ("0", "-3", "two"):
        out = tmp_path / f"w{count}"
        assert run_cli(["simulate", "--state", spec, "--out", out, "--workers", count, *grid]) == 2
        assert not out.exists()
    monkeypatch.setenv("CROSSCAVITY_WORKERS", "1.5")
    assert run_cli(["simulate", "--state", spec, "--out", tmp_path / "env", *grid]) == 2
    assert run_cli(["simulate", "--state", spec, "--out", tmp_path / "flag", "--workers", 2, *grid]) == 0
    # the variable only concerns simulate
    assert run_cli(["detect", "--state", spec, "--out", tmp_path / "det"]) == 0


def test_cli_grid_rejects_bad_p_max(tmp_path):
    spec = write_spec(tmp_path, NOON2)
    for p_max in ("nan", "inf", "-5", "0"):
        out = tmp_path / f"g{p_max}"
        assert run_cli(["simulate", "--state", spec, "--out", out, "--grid", f"r:20,phi:8,pmax:{p_max}"]) == 2
        assert not out.exists()


def test_cli_simulate_refuses_non_finite_density(tmp_path):
    # lambda = 1e300 overflows the radial factors
    spec = write_spec(tmp_path, {**NOON2, "params": {"lambda": 1e300, "k_delta_r": 0.1}})
    out = tmp_path / "sim"
    with np.errstate(all="ignore"):
        code = run_cli(["simulate", "--state", spec, "--out", out, "--grid", "r:10,phi:8"])
    assert code == 3
    assert not out.exists()


HUGE_LAMBDA = {"lambda": 1e300, "k_delta_r": 0.1}  # overflows the radial factors


@pytest.mark.parametrize("estimator", ["eq8", "window"])
def test_cli_populations_refuse_non_finite_values(tmp_path, estimator):
    spec = write_spec(tmp_path, {**NOON2, "params": HUGE_LAMBDA})
    out = tmp_path / "pop"
    with np.errstate(all="ignore"):
        code = run_cli(["populations", "--state", spec, "--out", out, "--estimator", estimator])
    assert code == 3
    assert not out.exists()


def test_cli_one_photon_readouts_refuse_non_finite_density(tmp_path):
    spec = write_spec(
        tmp_path, {"builder": {"name": "one_photon", "args": [0.3]}, "params": HUGE_LAMBDA}
    )
    with np.errstate(all="ignore"):
        det = tmp_path / "det"
        assert run_cli(["detect", "--state", spec, "--out", det]) == 3
        sweep = tmp_path / "sweep"
        assert run_cli(["sweep", "--state", spec, "--sweep", "0:1:3", "--out", sweep]) == 3
    assert not det.exists()
    assert not sweep.exists()


def test_cli_two_photon_readouts_at_huge_lambda(tmp_path):
    # exact populations do not depend on lambda and two-photon states skip the
    # rotation readout, so the guard lets these through with NaN readout columns
    spec = write_spec(
        tmp_path, {"builder": {"name": "two_photon", "args": [0.4]}, "params": HUGE_LAMBDA}
    )
    assert run_cli(["detect", "--state", spec, "--out", tmp_path / "det"]) == 0
    out = tmp_path / "sweep"
    assert run_cli(["sweep", "--state", spec, "--sweep", "0:1:3", "--out", out]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 4
    assert all(",nan,nan," in row for row in rows[1:])


def grid_to_csv_reference(grid, path):
    """Reference exporter: every number of every line formatted on its own."""
    with open(path, "w", newline="") as fh:
        fh.write("p_mag,p_ang,density\n")
        for i, p in enumerate(grid.radial_values):
            row = grid.densities[i]
            p_txt = fmt12(p)
            for j, ang in enumerate(grid.angular_values):
                fh.write(f"{p_txt},{fmt12(ang)},{fmt12(row[j])}\n")


def test_grid_to_csv_matches_per_value_formatter(tmp_path):
    special = [-0.0, 5e-324, 1e-300, 1e17, 0.1 + 0.2]
    radial = np.array([0.0, 0.1 + 0.2, 1e17, 5e-324])
    angular = np.arange(5) * (2 * math.pi / 5)
    densities = np.array([np.roll(special, k) for k in range(radial.size)])
    densities[3] *= np.random.default_rng(4).uniform(0.5, 2.0, angular.size)
    grid = MomentumGrid(radial, angular, densities, {})
    grid_to_csv(grid, tmp_path / "fast.csv")
    grid_to_csv_reference(grid, tmp_path / "ref.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    assert b",-0\n" in fast and b",4.94065645841e-324\n" in fast


def fast_route_lines(values):
    """Each value's text as the grid writer formats it, and the fallback count."""
    words = np.empty((values.size, 4), np.uint64)
    fallbacks = _format_densities(values, words)
    return words.tobytes().translate(None, b"\0").decode().splitlines(), fallbacks


def test_density_formatter_matches_percent_g():
    rng = np.random.default_rng(12)
    # random bit patterns: every binade, subnormals, nan and inf
    bits = rng.integers(0, 2**64, size=150_000, dtype=np.uint64).view(np.float64)
    # short mantissas, so trailing zeros to strip, in every exponent class
    short = rng.integers(1, 10**6, 30_000) * 10.0 ** rng.integers(-40, 40, 30_000)
    # mantissas within float error of a rounding tie, and exact ties
    near_ties = (rng.integers(10**11, 10**12, 20_000) + 0.5) * 10.0 ** rng.integers(-25, 5, 20_000)
    ties = (rng.integers(10**11, 10**12, 10_000) * 10 + 5) * 10.0 ** rng.integers(0, 4, 10_000)
    curated = [
        0.0, 5e-324, 1e-300, 9.99999999999e-5, 1e-4, 1e-5,
        999999999999.4, 999999999999.5, 1e12, 1234567890123.0, 9999999999999.0,
        1000000000005.0, math.nan, math.inf,
    ]
    for x in [1e-280, 1e280] + [float(f"1e{k}") for k in range(-30, 31)]:
        curated += [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]
    values = np.concatenate([bits, short, near_ties, ties, curated, np.negative(curated)])
    assert values.size >= 200_000
    lines, _ = fast_route_lines(values)
    expected = ["%.12g" % v for v in values.tolist()]
    wrong = [(v, got, want) for v, got, want in zip(values.tolist(), lines, expected) if got != want]
    assert len(lines) == len(expected) and not wrong[:5]


def noon6_grid():
    spec = parse_state_spec(
        {"builder": {"name": "noon", "args": [6]}, "params": {"lambda": 20, "k_delta_r": 0.1}}
    )
    return w_grid(spec.state, spec.atom, spec.params)


def one_photon_superposed_grid():
    spec = parse_state_spec({
        "builder": {"name": "one_photon", "args": [0.3]},
        "atom": {"c_g": {"re": 0.6, "im": 0.0}, "c_e": {"re": 0.0, "im": 0.8}},
        "params": {"lambda": 100, "k_delta_r": 0.1},
    })
    return w_grid(spec.state, spec.atom, spec.params)


def ragged_grid():
    """Rows past a whole number of buffers, 4 angles, labels of mixed widths."""
    rng = np.random.default_rng(5)
    rows = 2 * (_CHUNK_VALUES // 4) + 3
    radial = np.resize([0.0, 1e17, 5e-324, 0.1 + 0.2, 12.5], rows)
    angular = np.arange(4) * (math.pi / 2)
    specials = [0.0, -0.0, 5e-324, 1e-300, 1e17, math.nan, math.inf, 999999999999.5]
    densities = rng.uniform(0.0, 1.0, (rows, 4)) * 10.0 ** rng.integers(-12, 3, (rows, 4))
    densities.flat[:: 97] = np.resize(specials, densities.flat[:: 97].size)
    return MomentumGrid(radial, angular, densities, {})


@pytest.mark.parametrize(
    "make", [noon6_grid, one_photon_superposed_grid, ragged_grid], ids=lambda make: make.__name__
)
def test_grid_to_csv_matches_reference_on_real_and_ragged_grids(tmp_path, make):
    grid = make()
    grid_to_csv(grid, tmp_path / "fast.csv")
    grid_to_csv_reference(grid, tmp_path / "ref.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    assert fast.count(b"\n") == grid.densities.size + 1


def test_grid_writer_keeps_noon6_densities_on_the_fast_route():
    # the fallback is exact but slow: a change that routes most values there
    # keeps the bytes and loses the speed
    values = noon6_grid().densities.ravel()
    _, fallbacks = fast_route_lines(values)
    assert fallbacks <= 0.01 * values.size


def test_cli_numeric_kernel_refuses_oversized_radial_rule(tmp_path):
    # at lambda 1e6 the first rule (p = 0) would need 524288 panels of 12
    # nodes, each with 5 Bessel rows and 10 work rows, past 2**24 entries
    spec = write_spec(tmp_path, {**NOON2, "params": {"lambda": 1e6, "k_delta_r": 0.1}})
    out = tmp_path / "sim"
    code = run_cli(
        ["simulate", "--state", spec, "--out", out, "--kernel", "numeric", "--grid", "r:2,phi:4"]
    )
    assert code == 3
    assert not out.exists()
