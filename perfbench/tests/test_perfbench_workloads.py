"""Seeded inputs, digest stability, the correctness gate and the command."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench.quantiles import digest
from perfbench.spans import Tracer
from perfbench.workloads import WORKLOADS, Outcome, check, run_op, strategy_text

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"

STRATEGY_DIGEST = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1]]
from perfbench.quantiles import digest
from perfbench.spans import Tracer
from perfbench.workloads import WORKLOADS, run_op, strategy_text
wl = WORKLOADS["stream-small"]
inputs, _ = wl.inputs(int(sys.argv[2]), 0)
print(digest(strategy_text(run_op(wl, Tracer().call, inp)) for inp in inputs[:40]))
"""


def _strategy_digest(seed, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, "-c", STRATEGY_DIGEST, str(ROOT), str(seed)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.strip()


def test_same_seed_same_inputs_every_workload():
    for wl in WORKLOADS.values():
        assert wl.specs(3, 0) == wl.specs(3, 0)
        assert wl.specs(3, 0) != wl.specs(4, 0)
        assert wl.specs(3, 0) != wl.specs(3, 1)
    small = WORKLOADS["stream-small"]
    first, _ = small.inputs(3, 0)
    again, _ = small.inputs(3, 0)
    assert digest(i.text for i in first) == digest(i.text for i in again)


def test_a_run_of_pool_passes_covers_the_pool_from_any_seed():
    for wl in WORKLOADS.values():
        pool = [wl.specs(0, i) for i in range(wl.pool)]
        for seed in (0, 1, 7):
            run = [wl.specs(seed, p) for p in range(wl.pool)]
            assert sorted(map(repr, run)) == sorted(map(repr, pool))
            assert len(set(map(repr, run))) == wl.pool  # no entry twice
            assert wl.specs(seed, wl.pool) == run[0]


def test_strategy_digest_stable_across_processes():
    one = _strategy_digest(5, 0)
    assert one == _strategy_digest(5, 1)
    assert one != _strategy_digest(6, 0)


def test_gate_accepts_real_outputs_and_flags_wrong_ones():
    wl = WORKLOADS["stream-small"]
    inputs, _ = wl.inputs(1, 0)
    inp = next(i for i in inputs if i.inst.n >= 6)
    out = run_op(wl, Tracer().call, inp)
    assert out.error is None and check(wl, inp, out) == []
    assert strategy_text(out).startswith("{")

    wrong_cost = Outcome(**{**out.__dict__, "cost": out.cost + 1})
    assert check(wl, inp, wrong_cost)
    too_good = Outcome(**{**out.__dict__, "opt": out.cost * 2, "witness": out.tree})
    assert check(wl, inp, too_good)
    failed = Outcome(error="StateLimitExceeded")
    assert check(wl, inp, failed) == [] and strategy_text(failed) == "failed:StateLimitExceeded"


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_command_prints_declared_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", "stream-small", "--seed", "2",
             "--seconds", "0.1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        result = _last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in bench[key]]
        for m in bench[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_command_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
