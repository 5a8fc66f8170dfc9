"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sio_lab import good_radii, metric, operator  # noqa: E402

TINY = {
    "converge_l5": dict(level=3, eps_count=3, pool=2),
    "converge_l6": dict(level=3, eps_count=2, pool=2),
    "good_set_bulk": dict(lams=(5,), per_pass=1, pool=2),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_tiny(name, tmp_path):
    rec = run.run_workload(tiny(name), seed=3, seconds=0.0, trace=False,
                           reference=None, workdir=str(tmp_path))
    assert rec["failed"] == 0, rec["problems"]
    assert rec["attempted"] >= 1
    names = {n for n, _ in run.END_TO_END} - {"setup_s"}
    assert set(rec["metrics"]) == names
    assert all(m["value"] > 0 for m in rec["metrics"].values())


def test_setup_probes_are_spread_over_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "PROBE_EVERY", 1e-3)
    asked = []

    def probe(n):
        asked.append(n)
        return [float(len(asked))] * n

    rec = run.run_workload(tiny("good_set_bulk"), seed=3, seconds=0.0,
                           trace=False, reference=None, workdir=str(tmp_path),
                           probe_setup=probe)
    # before the run, the probes owed by its one item, after the run
    assert len(asked) == 3 and asked[1] > 0
    assert asked[0] == asked[-1] == run.SETUP_PROBES
    assert rec["setup_s"] == [t for k, n in enumerate(asked, 1)
                              for t in [float(k)] * n]
    assert rec["metrics"]["setup_s"]["value"] \
        == statistics.median(rec["setup_s"])


def _quantities(workload, tracer, workdir):
    out = {}
    for item in workload.pool_items():
        if tracer is None:
            result = workload.run(item, workdir)
        else:
            result = tracer.run_item(item.key,
                                     lambda: workload.run(item, workdir))
        quantities, problems = workload.check(item, result, workdir)
        assert problems == []
        out[item.key] = quantities
    return out


@pytest.mark.parametrize("name", ["converge_l6", "good_set_bulk"])
def test_traced_run_leaves_quantities_bit_identical(name, tmp_path):
    workload = tiny(name)
    plain = _quantities(workload, None, str(tmp_path))
    originals = (operator.pairing, metric.PointCloud.distances_from,
                 good_radii.materialize_good_set)
    tracer = tracing.Tracer()
    assert tracer.run_item("probe", lambda: operator.pairing) \
        is not originals[0]
    traced = _quantities(workload, tracer, str(tmp_path))
    assert (operator.pairing, metric.PointCloud.distances_from,
            good_radii.materialize_good_set) == originals
    assert json.dumps(traced, sort_keys=True) \
        == json.dumps(plain, sort_keys=True)
    names = {s[1] for s in tracer.spans}
    if name.startswith("converge"):
        assert {"cli.main", "operator.pairing", "kernels.kernel_rows",
                "metric.distances_from", "suite.emit_report"} <= names
    else:
        assert {"good_radii.materialize_good_set", "measure.interval_mass",
                "good_radii.is_good_radius"} <= names
        assert "operator.pairing" not in names


def test_traced_run_reports_every_layer_metric(tmp_path):
    rec = run.run_workload(tiny("converge_l5"), seed=1, seconds=0.0,
                           trace=True, reference=None, workdir=str(tmp_path))
    assert rec["failed"] == 0
    m = rec["metrics"]
    assert list(m) == [name for name, _, _ in tracing.PER_LAYER]
    # eps grid of 3: 3 trace pairings, then 2 bounds that recompute both ends
    assert m["operator.pairing.calls"]["value"] == 7
    assert m["operator.pairing.distinct_ratio"]["value"] == 3 / 7
    assert m["operator.kernel_passes"]["value"] > 1
    assert 0 < m["good_radii.is_good_radius.ok_ratio"]["value"] <= 1


def test_distinct_ratio_counts_each_run_of_an_item(tmp_path):
    workload = tiny("converge_l5")
    item = workload.pool_items()[0]
    tracer = tracing.Tracer()
    for _ in range(2):
        tracer.run_item(item.key, lambda: workload.run(item, str(tmp_path)))
    m = tracing.layer_metrics(tracer.spans, 2, workload.n_atoms, 0.0)
    assert m["operator.pairing.distinct_ratio"]["value"] == 3 / 7


def test_self_time_arithmetic():
    # root 0..100; a 10..40 with child c 15..20; b 30..60 overlaps a (another
    # thread), so the root's children cover the union 10..60
    spans = [
        (0, "root", 0, 100, None, "i", 1),
        (1, "a", 10, 40, 0, "i", 1),
        (2, "b", 30, 60, 0, "i", 1),
        (3, "c", 15, 20, 1, "i", 1),
    ]
    assert tracing.self_times(spans) == {0: 50, 1: 25, 2: 30, 3: 5}


def test_layer_metrics_arithmetic():
    s = 10 ** 9
    spans = [
        (0, "item", 0, 4 * s, None, "x", 1),
        (1, "operator.pairing", 0, s, 0, "x", 0.5),
        (2, "operator.pairing", s, 2 * s, 0, "x", 0.5),
        (3, "kernels.kernel_rows", 0, s // 2, 1, "x", 8),
        (4, "item", 4 * s, 6 * s, None, "y", 1),
        (5, "operator.pairing", 4 * s, 5 * s, 4, "y", 0.5),
        (6, "good_radii.is_good_radius", 5 * s, 6 * s, 4, "y", 0),
    ]
    m = tracing.layer_metrics(spans, n_items=2, n_atoms=2, overhead_frac=0.25)
    value = {k: v["value"] for k, v in m.items()}
    assert value["operator.pairing.self_s"] == 1.25
    assert value["operator.pairing.calls"] == 1.5
    assert value["operator.pairing.distinct_ratio"] == 2 / 3
    assert value["kernels.kernel_rows.pairs"] == 4
    assert value["operator.kernel_passes"] == 1
    assert value["good_radii.is_good_radius.ok_ratio"] == 0
    assert value["trace.overhead_frac"] == 0.25
    assert value["cli.main.self_s"] == 0


def test_held_out_seed_matches_the_reference():
    # good_set_bulk is the listed workload whose items the seed picks; one
    # pass of its real items is checked against reference.json
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "good_set_bulk", "--seed", "90417", "--seconds", "1",
         "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True, timeout=170)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == [(name, unit) for name, unit, _ in tracing.PER_LAYER]


def test_reference_covers_every_pool_item():
    reference = run.load_reference()
    for name, workload in workloads.WORKLOADS.items():
        keys = [item.key for item in workload.pool_items()]
        assert set(keys) == set(reference[name]), name
