"""The benchmark's own tests: every workload at a tiny size.

    python3 -m pytest perfbench -q

Each run spawns the compile server and takes about ten seconds.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT,
          **popen):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, **popen)


def result(workload: str, seed: int, trace: int) -> dict:
    done = bench(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"),
                                        (1, "per_layer")])
def test_prints_every_declared_metric(workload, trace, kind):
    out = result(workload, 7, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    for value in out["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_seed_changes_inputs_not_metric_set():
    sys.path.insert(0, str(HERE))
    import inputs

    sources = inputs.kernel_sources()
    kernels = inputs.light_kernels(sources, "avx2")
    irs = inputs.ir_texts(kernels, sources)

    def stream(seed):
        return [r.body for r in inputs.request_stream(
            random.Random(seed), kernels, sources, irs, "avx2", 200, "t")]

    assert stream(1) == stream(1)
    assert stream(1) != stream(2)
    one, two = result(WORKLOADS[0], 1, 0), result(WORKLOADS[0], 2, 0)
    assert set(one["metrics"]) == set(two["metrics"])


def test_unknown_names_fail_loudly():
    sys.path.insert(0, str(HERE))
    import inputs

    sources = inputs.kernel_sources()
    with pytest.raises(KeyError):
        inputs.require_known(["isel_dot4_i16"], ["avx2"], sources)
    with pytest.raises(KeyError):
        inputs.require_known(["complex_mul"], ["avx3"], sources)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


#: Runs argv[1:] as a child subreaper, so that every process the child
#: leaves behind is handed to it; prints the child's exit code and how
#: many such orphans it then waited for.
_REAPER = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
orphans = 0
while True:
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
    orphans += 1
print(code, orphans)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs PR_SET_CHILD_SUBREAPER")
def test_no_process_outlives_a_run():
    done = subprocess.run(
        [sys.executable, "-c", _REAPER, sys.executable, "perfbench/run.py",
         "--workload", WORKLOADS[0], "--seed", "3", "--seconds", "2",
         "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.stdout.split() == ["0", "0"], done.stderr
