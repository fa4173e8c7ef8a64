"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

from the repository root.  The repository's own test run (testpaths =
tests) does not collect this file.  `test_counters_repeat` runs every
workload twice, traced, and takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

DETERMINISTIC = (
    "permq.basis_pivots",
    "permq.strong_gens",
    "permq.sift.calls",
    "elements.memo_entries",
    "boundary.zeta_cache_len",
    "permq.level_perm.calls",
    "recsys.rec_level_perm.calls",
)


def test_benchmark_json_names_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)


def test_closed_forms():
    assert [oracles.log_order("ge", n) for n in range(1, 11)] == [1, 3, 7, 12, 22, 42, 82, 162, 322, 642]
    assert [oracles.log_order("fg", n) for n in range(1, 7)] == [1, 4, 10, 28, 82, 244]


def test_closure_size():
    # Z/4 by a 4-cycle; S_3 by a transposition and a 3-cycle.
    assert oracles.closure_size([(1, 2, 3, 0)]) == 4
    assert oracles.closure_size([(1, 0, 2), (1, 2, 0)]) == 6


def test_codec_and_affine_action():
    letters = (-1, 3, -2, 1, 2)
    assert gen.decode(gen.encode(letters)) == letters
    assert gen.affine_action((-1, 3), 0) == 1  # ab moves 0 to 1
    assert gen.affine_action((3,), 7) == -7


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile([5.0], 95) == 5.0


def test_tracer_self_time():
    import time
    import types

    tracer = Tracer()
    mod = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()

    mod.inner = tracer._wrap(inner, "m.inner")
    mod.outer = tracer._wrap(outer, "m.outer")
    mod.outer()
    mod.inner()
    stats = tracer.fold()
    assert stats["m.inner"]["calls"] == 2
    assert stats["m.outer"]["calls"] == 1
    assert 0.009 <= stats["m.outer"]["self_s"] < 0.019
    assert stats["m.outer"]["incl_s"] >= 0.03


def test_inputs_depend_only_on_seed():
    a = gen.generate(ROOT, 7)
    b = gen.generate(ROOT, 7)
    c = gen.generate(ROOT, 8)
    assert a == b
    assert a["decide"] != c["decide"]
    assert len(a["decide"]) >= 1000 and len(a["line"]) >= 200
    assert sum(q["trivial"] for q in a["decide"]) == gen.N_TRIVIAL


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "levels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counters_repeat(workload):
    """Two traced passes on one seed give identical deterministic counters,
    every answer passes its oracle, and the self times (the benchmark's own
    included) add up to the traced wall time."""
    inputs_text = None
    inputs = None
    if workload == "symbolic":
        inputs = gen.generate(ROOT, 3)
        inputs_text = json.dumps(inputs)
    layers = []
    for _ in range(2):
        traced = run._pass(ROOT, workload, inputs_text, trace=True)
        assert oracles.check(workload, traced, inputs).failures == []
        missing, absent = run.coverage(workload, traced)
        assert missing == [] and absent == []
        total_self = sum(s["self_s"] for s in traced["spans"].values())
        assert total_self == pytest.approx(traced["wall_s"], rel=0.01)
        layers.append(run.per_layer(traced, traced["wall_s"]))
    for key in DETERMINISTIC:
        assert layers[0][key] == layers[1][key], key
