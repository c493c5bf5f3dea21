"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/test_bench.py
(The repository's own suite collects only ``tests/``.)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from run import tail  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, argv, rounds, spec_document  # noqa: E402


BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _counts(result):
    return {
        k: v["value"] for k, v in result["metrics"].items()
        if v["unit"] in ("count", "B") or k == "quadrature.fourier_per_radial_table"
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly_for_one_seed(workload):
    first, second = _run(workload, 7, 1), _run(workload, 7, 1)
    assert first["correct"] and second["correct"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(first["metrics"])
    assert all(first["metrics"][m["name"]]["unit"] == m["unit"] for m in BENCHMARK["per_layer"])
    assert first["failed"] == second["failed"] == 0
    assert _counts(first) == _counts(second)
    assert any(_counts(first).values())


def test_timed_run_reports_every_end_to_end_metric():
    result = _run("readout", 5, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(result["metrics"])
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def _kinds(ops):
    """Verb and flags of each operation, ignoring the seeded worker count."""
    return sorted((o["verb"], [f for f in o["flags"] if f not in ("--workers", "2")]) for o in ops)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rounds_are_seeded_with_fixed_composition(workload):
    a, b, c = rounds(workload, 3), rounds(workload, 3), rounds(workload, 4)
    first, again, other = next(a), next(b), next(c)
    assert first == again
    assert first != other
    assert _kinds(first) == _kinds(other)


def test_self_time_subtracts_union_of_overlapping_children():
    tracer = Tracer()
    tracer.spans = [
        ("parent", 0.0, 10.0, -1, 0),
        ("child", 1.0, 5.0, 0, 0),
        ("child", 3.0, 6.0, 0, 0),  # overlaps the first child, as worker threads do
        ("grandchild", 1.5, 2.0, 1, 0),
    ]
    assert tracer.self_times() == pytest.approx([5.0, 3.5, 3.0, 0.5])
    totals = tracer.totals()
    assert totals["child"][0] == 2
    assert totals["child"][1] == pytest.approx(7.0)


def test_tail_leaves_ten_samples_beyond():
    value, percentile, count = tail(list(range(100)))
    assert value == 89 and count == 100
    assert sum(1 for x in range(100) if x > value) == 10
    assert percentile == pytest.approx(90.0)


def _run_cli(op, tmp_path):
    from crosscavity import cli

    spec = tmp_path / "state.json"
    doc = spec_document(op)
    if doc is not None:
        spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(argv(op, str(spec), str(out))) == 0
    return out


def test_checks_accept_a_good_grid_and_reject_a_perturbed_one(tmp_path):
    op = WORKLOADS["oracle"].opening
    out = _run_cli(op, tmp_path)
    checks.check(op, out, "")
    csv = out / "momentum_grid.csv"
    lines = csv.read_text().splitlines()
    p, a, w = lines[57].split(",")
    lines[57] = f"{p},{a},{float(w) + 1e-3!r}"
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check(op, out, "")
    shutil.rmtree(out)


def test_checks_reject_a_filled_hole(tmp_path):
    op = WORKLOADS["readout"].opening
    op = dict(op, builder=["noon", [6]])
    out = _run_cli(op, tmp_path)
    checks.check(op, out, "")
    report = json.loads((out / "detection.json").read_text())
    for entry in report["spectrum"]["entries"]:  # move weight into ring 4, keeping the sum
        if entry["n"] in (3, 4):
            entry["p"] += 1e-6 if entry["n"] == 4 else -1e-6
    (out / "detection.json").write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed):
        checks.check(op, out, "")
