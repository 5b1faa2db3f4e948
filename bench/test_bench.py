"""The benchmark's own tests: every workload end to end at its smallest
size (``--tiny``), with no timing assertions, plus the references the
harness checks outputs against.

Run from the repository root:

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench_run  # noqa: E402
from workloads import (  # noqa: E402
    REF_LOOP_S,
    CorrectnessError,
    Ops,
    _divides_exactly,
    _expected_torsion,
    make_workloads,
)


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in benchmark()["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    p = run(workload, trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in benchmark()["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_same_seed_writes_same_bytes():
    runs = [json.loads(run("walk-d9", 0).stdout.splitlines()[0]) for _ in range(2)]
    assert runs[0]["digests"] == runs[1]["digests"]
    assert runs[0]["params"]["d"] == 5


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "walk-d7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout == ""


def test_wrong_oracle_verdict_aborts():
    cw = bench_run.import_package()
    oracle = make_workloads(tiny=True)["oracle-mixed"]
    (plan,) = oracle.setup(cw, 1, None)
    original = cw.factorizer.probably_irreducible
    cw.factorizer.probably_irreducible = lambda *a, **k: cw.factorizer.IrreducibilityVerdict("Irreducible")
    ops = Ops()
    ops.new_repetition(0)
    try:
        with pytest.raises(CorrectnessError, match="called Irreducible"):
            oracle.run(cw, plan, ops)
    finally:
        cw.factorizer.probably_irreducible = original


def test_divides_exactly():
    p = 101
    x2_minus_y2 = {(2, 0): 1, (0, 2): p - 1}
    assert _divides_exactly(x2_minus_y2, {(1, 0): 1, (0, 1): 1}, p)
    assert not _divides_exactly(x2_minus_y2, {(1, 0): 1, (0, 1): 2}, p)
    assert not _divides_exactly({(2, 0): 1, (0, 2): 1}, {(1, 0): 1, (0, 1): 1}, p)


def test_expected_torsion():
    # coker of [2] over Z/4 is Z/2; over Z/6 it is Z/2 as well
    assert _expected_torsion([[2]], 1, 4) is False
    assert _expected_torsion([[2]], 4, 4) is True
    assert _expected_torsion([[1, 2]], 1, 4) is True
    assert _expected_torsion([[2]], 2, 6) is True
    assert _expected_torsion([[2]], 3, 6) is False
    assert _expected_torsion([[3]], 3, 6) is True
    with pytest.raises(ValueError):
        _expected_torsion([[2]], 2, 4)


def test_steps_are_scaled_by_the_reference_runs_around_them():
    ops = Ops()
    ops.reference = [(2 * REF_LOOP_S, REF_LOOP_S)] * 2 + [(4 * REF_LOOP_S, REF_LOOP_S)] * 3
    ops.steps = [[(1.0, 0.5, 1), (3.0, 1.5, 4)]]
    # the first step sees reference runs 0..3: median wall 3 * REF_LOOP_S
    assert ops.scaled(0, 0) == pytest.approx((1 / 3, 0.5))
    # the last sees runs 3 and 4 only
    assert ops.scaled(0, 1) == pytest.approx((0.75, 1.5))
