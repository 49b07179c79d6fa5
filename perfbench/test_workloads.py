"""The seeded generator is deterministic per seed and fixed in composition.

Run with ``python -m pytest perfbench/test_workloads.py`` from the
repository root.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, generate, vertices_quadrupled  # noqa: E402

HERE = Path(__file__).resolve().parent


def _composition(rounds):
    return Counter(
        (op["argv"][0], op["band"], op["kind"], op.get("constrained"), op.get("inside"))
        for ops in rounds
        for op in ops
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops_and_files(workload):
    assert generate(workload, 7) == generate(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_same_composition_other_inputs(workload):
    first, first_files = generate(workload, 7)
    second, second_files = generate(workload, 8)
    assert [len(ops) for ops in first] == [len(ops) for ops in second]
    assert _composition(first) == _composition(second)
    assert first != second
    assert len(first_files) == len(second_files)


def test_feasibility_spins_distinct_and_cover_bands():
    rounds, _ = generate("feasibility-sweep", 3)
    spins = [op["spin_doubled"] for ops in rounds for op in ops]
    assert len(spins) == len(set(spins))
    assert set(range(1, 201)) <= set(spins)
    assert max(spins) <= 2000


def test_bounds_sweep_runs_each_kind_and_spin_once_per_pass():
    rounds, _ = generate("bounds-mix", 3)
    ops = [op for ops in rounds for op in ops]
    sweep = Counter((op["kind"], op["spin_doubled"]) for op in ops if op["band"].startswith("class"))
    assert set(sweep.values()) == {1}
    assert len(sweep) == 4 * 20
    assert Counter(op["band"] for op in ops if op["kind"] == "table1") == {f"table1-{i}": 1 for i in range(4)}


def test_passes_differ():
    for workload in WORKLOADS:
        assert generate(workload, 7, 0) != generate(workload, 7, 1)


def test_membership_points_match_their_labels():
    rounds, files = generate("membership-mix", 3)
    for op in (op for ops in rounds for op in ops):
        point = [float(v) for v in files[op["argv"][2][1:]].split()]
        d = op["spin_doubled"]
        assert max(abs(v) for v in point) <= d * d / 4.0 + 1e-9  # the CLI's box tolerance
        if op["kind"] == "vertex":
            quadrupled = vertices_quadrupled(d, op["constrained"])
            assert [round(4 * v) for v in point] in quadrupled.tolist()
        assert op["inside"] == (op["kind"] != "outside")


def test_every_per_layer_metric_has_a_prediction():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    predicted = {name for entry in predictions["layers"] for name in entry["metrics"]}
    assert {m["name"] for m in spec["per_layer"]} == predicted | set(predictions["trace_health"])
