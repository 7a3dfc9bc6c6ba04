import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import nash_realize
from nash_realize.cli import main

CATALOG_DATA = resources.files("nash_realize") / "catalog_data"
POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_simulate_closed_form(capsys):
    code, rep = run_cli(capsys, "simulate", "SYS-LIN1",
                        "--input", json.dumps([["a0", math.log(2.0)]]))
    assert code == 0
    assert rep["verdict"] == "success"
    assert rep["terminal"][0] == pytest.approx(2.0, abs=1e-8)
    assert rep["outputs"][0] == pytest.approx(2.0, abs=1e-8)
    assert rep["breakpoints"][0] == 0.0
    assert rep["breakpoints"][-1] == pytest.approx(math.log(2.0))
    assert rep["command"] == "simulate"
    assert "config" in rep and "version" in rep


def test_simulate_empty_word(capsys):
    code, rep = run_cli(capsys, "simulate", "SYS-LIN1", "--input", "[]")
    assert code == 0
    assert rep["terminal"] == [1.0]
    assert rep["states"] == [[1.0]]


def test_simulate_domain_exit(capsys):
    code, rep = run_cli(capsys, "simulate", "SYS-PL",
                        "--input", json.dumps([["a1", 9.0]]))
    assert code == 1
    assert rep["verdict"] == "FAIL"
    assert rep["error"]["type"] == "DomainExit"


def test_simulate_csv(capsys, tmp_path):
    csv = tmp_path / "traj.csv"
    code, rep = run_cli(capsys, "simulate", "SYS-DIAG",
                        "--input", json.dumps([["a0", 0.3], ["a1", 0.0]]),
                        "--csv", str(csv))
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2"
    # the start, 16 points on the first segment, one for the empty one
    assert len(lines) == 1 + 1 + 16 + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 1.0, 1.0]
    for row in (lines[17], lines[18]):
        t, *x = (float(v) for v in row.split(","))
        assert t == pytest.approx(0.3)
        assert x == pytest.approx(rep["terminal"], abs=1e-9)


def test_analyze_redundant_pair(capsys):
    code, rep = run_cli(capsys, "analyze", "SYS-DIAG")
    assert code == 0
    assert rep["dimension"] == 2
    assert rep["reachable"] is False
    assert rep["observable"] is False
    assert rep["response_trdeg"]["estimated_trdeg"] == 1


def test_analyze_scalar_system(capsys):
    code, rep = run_cli(capsys, "analyze", "SYS-LIN1")
    assert code == 0
    assert rep["reachable"] is True
    assert rep["observable"] is True


def test_analyze_depth_zero(capsys):
    # depth 0 keeps only the readout itself, enough for a scalar chart
    code, rep = run_cli(capsys, "analyze", "SYS-LIN1", "--depth", "0")
    assert code == 0
    assert rep["observable"] is True
    assert rep["obs_algebra_size"] == 1


def test_analyze_raises_obs_depth_to_n_minus_1(capsys):
    # SYS-LIN3 needs Lie depth 2 to see all three coordinates; like every
    # other command, analyze observes at depth max(depth, n - 1)
    code, rep = run_cli(capsys, "analyze", "SYS-LIN3", "--depth", "1",
                        "--seed", "7")
    assert code == 0
    assert rep["response_trdeg"]["estimated_trdeg"] == 3
    assert rep["obs_trdeg"]["estimated_trdeg"] == 3
    assert rep["observable"] is True


def test_reports_are_deterministic(capsys):
    def snapshot():
        code, rep = run_cli(capsys, "analyze", "SYS-BILIN", "--seed", "7")
        assert code == 0
        del rep["elapsed_seconds"]
        return json.dumps(rep, sort_keys=True)

    assert snapshot() == snapshot()


def test_minimize_command(capsys):
    code, rep = run_cli(capsys, "minimize", "SYS-DIAG", "--epsilon", "0.01")
    assert code == 0
    assert rep["verdict"] == "MINIMAL"
    assert rep["realization"]["dimension"] == 1
    assert rep["verification"]["passed"] is True
    shift = rep["realization"]["shift_input"]
    assert 0.0 < sum(t for _, t in shift) < 0.01
    assert rep["minimality"]["verdict"] == "MINIMAL"


def test_reduce_reach_command(capsys):
    code, rep = run_cli(capsys, "reduce-reach", "SYS-RED3")
    assert code == 0
    assert rep["verdict"] == "PASS"
    assert rep["realization"]["provenance"] == "REACH_REDUCED"
    assert rep["realization"]["dimension"] == 1
    assert rep["verification"]["passed"] is True
    assert "resymbolized" in rep


def test_reduce_obs_command(capsys):
    code, rep = run_cli(capsys, "reduce-obs", "SYS-UNOBS")
    assert code == 0
    assert rep["verdict"] == "PASS"
    assert rep["realization"]["provenance"] == "OBS_REDUCED"
    assert rep["realization"]["dimension"] == 1


def test_compare_chart_pair(capsys):
    code, rep = run_cli(capsys, "compare", "SYS-LIN1", "SYS-CUBE")
    assert code == 0
    assert rep["verdict"] == "PASS"
    assert rep["verification"]["passed"] is True
    assert rep["isomorphism"]["jacobian_product_residual"] <= 1e-8


def test_compare_system_with_itself(capsys):
    code, rep = run_cli(capsys, "compare", "SYS-LIN1", "SYS-LIN1")
    assert code == 0
    assert rep["verdict"] == "PASS"


def test_compare_dimension_mismatch(capsys):
    code, rep = run_cli(capsys, "compare", "SYS-LIN1", "SYS-LIN2")
    assert code == 1
    assert rep["verdict"] == "FAIL"
    assert rep["error"]["type"] == "DimensionMismatch"


def test_acceptance_single_criterion(capsys):
    code, rep = run_cli(capsys, "acceptance", "--only", "A8")
    assert code == 0
    assert rep["verdict"] == "PASS"
    assert len(rep["criteria"]) == 1
    row = rep["criteria"][0]
    assert row["criterion"] == "A8"
    assert row["passed"] is True
    assert row["elapsed_seconds"] <= row["limit_seconds"]


def test_acceptance_flags_corrupted_catalog(capsys, tmp_path):
    with resources.as_file(CATALOG_DATA) as src:
        for fn in Path(src).glob("*.json"):
            shutil.copy(fn, tmp_path / fn.name)
    (tmp_path / "broken.json").write_text("{ not json")
    code, rep = run_cli(capsys, "acceptance", str(tmp_path), "--only", "A7")
    assert code == 1
    assert rep["verdict"] == "FAIL"
    rows = {r["criterion"]: r for r in rep["criteria"]}
    assert rows["catalog:broken.json"]["passed"] is False
    assert "error" in rows["catalog:broken.json"]["details"]
    assert rows["A7"]["passed"] is True


def test_out_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, rep = run_cli(capsys, "analyze", "SYS-LIN1", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == rep


def test_file_path_input(capsys, tmp_path):
    target = tmp_path / "system.json"
    with resources.as_file(CATALOG_DATA / "SYS-LIN1.json") as src:
        shutil.copy(src, target)
    code, rep = run_cli(capsys, "simulate", str(target), "--input", "[]")
    assert code == 0
    assert rep["terminal"] == [1.0]


def test_unknown_system_fails_cleanly(capsys):
    code, rep = run_cli(capsys, "analyze", "SYS-NOPE")
    assert code == 1
    assert rep["verdict"] == "FAIL"


def pool_sizes_after_import(threads):
    """The five pool variables a fresh interpreter sees after importing
    the package, started with none of them set."""
    env = {k: v for k, v in os.environ.items()
           if k not in POOL_VARS + ("NASH_REALIZE_THREADS",)}
    if threads is not None:
        env["NASH_REALIZE_THREADS"] = threads
    src = str(Path(nash_realize.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import os, nash_realize; "
            f"print(' '.join(os.environ[v] for v in {POOL_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return out.stdout.split()


def test_thread_pools_pinned_to_one_by_default():
    assert pool_sizes_after_import(None) == ["1"] * len(POOL_VARS)


def test_thread_pools_follow_nash_realize_threads():
    assert pool_sizes_after_import("3") == ["3"] * len(POOL_VARS)


def test_cli_reports_against_sums_up_moved_leaves(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "cli_reports", Path(__file__).resolve().parents[1] / "tools"
        / "cli_reports.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    old, new = tmp_path / "old", tmp_path / "new"
    # floats are numeric; an index, a label and an int/float swap are not
    for d, rep in ((old, {"a": 1.0, "b": [2.0, 0], "c": 1e-3,
                          "basis_indices": [0], "labels": ["x1"]}),
                   (new, {"a": 1.5, "b": [2.0, 0.0], "c": 1.001e-3,
                          "basis_indices": [1], "labels": ["x2"]})):
        d.mkdir()
        (d / "analyze-S.json").write_text(json.dumps(rep), encoding="utf-8")
    assert tool.compare_dirs(old, new) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[-1] == ("5 leaves moved: 2 numeric (largest relative "
                         "change 0.33, analyze-S.json: a), 3 not numeric")
