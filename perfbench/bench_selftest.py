"""The benchmark's own test.

    python3 -m pytest perfbench/bench_selftest.py

(The file name keeps it out of the repository's default test run: it
starts about a dozen benchmark processes and takes several minutes.)

- Two traced runs with the same seed give identical counters, an
  identical margin_digits and identical correctness figures.
- Every per-layer metric BENCHMARK.json names is reported, and no other.
- A second seed passes every check on measure and reduce.
- simulate fails exactly the fixed rotation words that leave the domain
  inside one segment, whatever the seed.
- Without the program's source next to it, run.py exits non-zero and
  prints no result.
- The steady clock keeps pace with wall time on a steady host, leaves
  the probes' time out, and disarms its timer when stopped.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostclock  # noqa: E402
import refs  # noqa: E402


def _run(workload, seed, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _trace(workload, seed):
    with open(os.path.join(HERE, "traces", f"{workload}-seed{seed}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


@pytest.mark.parametrize("workload", ["simulate", "measure", "reduce"])
def test_traced_counters_repeat(workload):
    runs = []
    for _ in range(2):
        res = _result(_run(workload, 1, trace=1))
        runs.append((res, _trace(workload, 1)))
    (res1, tr1), (res2, tr2) = runs
    assert sorted(res1["metrics"]) == sorted(_per_layer_names())
    counts = {k: v["value"] for k, v in res1["metrics"].items()
              if not k.endswith(".self_s")}
    assert counts == {k: v["value"] for k, v in res2["metrics"].items()
                      if not k.endswith(".self_s")}
    assert tr1["margin_digits"] == tr2["margin_digits"]
    for key in ("correct", "attempted", "failed"):
        assert res1[key] == res2[key]
    assert res1["correct"]


@pytest.mark.parametrize("workload", ["measure", "reduce"])
def test_second_seed_passes(workload):
    res = _result(_run(workload, 2))
    assert res["correct"]
    assert res["failed"] == 0


def test_simulate_fails_only_the_excursions():
    per_seed = [_result(_run("simulate", seed)) for seed in (1, 2)]
    for res in per_seed:
        assert res["correct"]
        assert res["failed"] == 2 * len(refs.ROT_EXCURSIONS)
    assert per_seed[0]["attempted"] == per_seed[1]["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = _run("simulate", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_steady_clock():
    clock = hostclock.SteadyClock()
    clock.start()
    try:
        s, w = clock.now(), time.perf_counter()
        while time.perf_counter() - w < 1.0:
            sum(i * i for i in range(1000))
        steady, wall = clock.now() - s, time.perf_counter() - w
    finally:
        clock.stop()
    assert len(clock.probe_times) >= 5
    # the probes ran inside the loop; their time is not counted
    probes = hostclock.PROBE_REPEATS * sum(clock.probe_times)
    rate = hostclock.PROBE_REF_S / min(clock.probe_times)
    assert 0.0 < steady <= (wall - probes) * rate * 1.01
    assert 0.3 * wall < steady < 3.0 * wall
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
