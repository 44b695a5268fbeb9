"""Checks of the benchmark itself, including its negative controls.

    python3 -m pytest -q perfbench/test_perfbench.py

Each test spawns small fracrel children (a few seconds in all).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SMALL_EQUIVALENCE = {"suite": "equivalence", "grid.n": 512}


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER


def test_unmeetable_tolerance_gives_failed_checks():
    w = bench.Workload("run", dict(SMALL_EQUIVALENCE,
                                   **{"tolerance.equivalence": 1e-300}))
    result, _, children = bench.measure(w, 1, 0, False, min_children=2)
    assert all(c.returncode == 1 for c in children)
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def test_rejected_config_counts_as_failed_run():
    w = bench.Workload("run", {"suite": "equivalence", "grid.n": 8})
    result, lines, children = bench.measure(w, 1, 0, False, min_children=2)
    assert all(c.returncode == 2 and c.digest is None for c in children)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def _child(digest, checks=5, passed=5, returncode=0):
    return bench.Child(traced=False, returncode=returncode, wall_s=1.0,
                       cpu_s=1.0, rss_mb=1.0, checks=checks, passed=passed,
                       digest=digest)


def test_wall_ref_divides_each_child_by_the_reference_around_it():
    slow, fast = _child("a"), _child("a")
    slow.wall_s, slow.ref_s = 8.0, 0.4
    fast.wall_s, fast.ref_s = 4.0, 0.2
    assert bench.end_to_end([slow, fast])["wall_ref"] == [20.0, 20.0]


def test_reference_helper_answers_and_stops():
    probe = bench.ReferenceProbe()
    try:
        assert all(0.0 < probe() < 30.0 for _ in range(2))
    finally:
        probe.close()
    assert probe.proc.returncode == 0


def test_digest_disagreement_fails_every_check_of_that_child():
    children = [_child("a"), _child("a"), _child("b")]
    assert bench.tally(children) == (15, 5)


def test_failed_flags_count_one_by_one():
    assert bench.tally([_child("a"), _child("a", passed=3)]) == (10, 2)


def test_traced_equivalence_covers_rebound_layers_and_keeps_the_body():
    w = bench.Workload("run", SMALL_EQUIVALENCE,
                       bench.WORKLOADS["equivalence_cold"].layers)
    result, _, children = bench.measure(w, 3, 0, True, min_children=1)
    assert result["correct"], result
    plain, traced = children
    assert traced.traced and plain.digest == traced.digest
    # operator binds macdonald_k at import time; its calls must be seen
    assert traced.trace["special.macdonald_k.calls"] > 0
    assert traced.trace["special.macdonald_k.points"] > 0
    assert traced.trace["fft.calls"] > 0
    for name in bench.PER_LAYER:
        assert name in result["metrics"]


def test_traced_linear_suite_sees_methods_and_imported_names():
    w = bench.Workload("run", {"suite": "linear-carleman", "sweep.count": 1,
                               "linear.n": 2048},
                       bench.WORKLOADS["linear_ledger"].layers)
    result, _, children = bench.measure(w, 3, 0, True, min_children=1)
    assert result["correct"], result
    trace = children[1].trace
    assert trace["heat.PotentialField.sample.calls"] > 0
    assert trace["grid.require_seam_decay.calls"] > 0
    assert trace.get("special.macdonald_k.calls", 0) == 0


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linear_ledger",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_out_of_range_seed_is_refused(seed):
    assert bench.main(["--workload", "linear_ledger", "--seed", str(seed),
                       "--seconds", "1"]) == 2
