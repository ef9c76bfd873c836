"""Tests of the benchmark itself: its metric lists, a smoke run of every
workload, and checks that reject wrong outputs.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402,F401  (sets the BLAS thread count before numpy loads)
import spans  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        ("setup_s", "s"), ("op_s_p50", "s"), ("ops_per_s", "1/s"),
        ("peak_rss_mb", "MB")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER


def test_smoke_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    names = [name for name, _ in spans.PER_LAYER]
    for name in workloads.WORKLOADS:
        res = results[name]
        assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
        assert list(res["metrics"]) == names


def test_sinmix_check_rejects_perturbed_values(tmp_path):
    wl = workloads.SinmixEval(0, str(tmp_path))
    good = (wl.truth.copy(), wl.truth.copy(), wl.lattice_truth.copy())
    assert wl.check(good) == []
    for which, delta in ((0, 1e-6), (1, 1e-6), (2, 0.01)):
        bad = [a.copy() for a in good]
        if which == 2:
            bad[2] += delta  # the whole lattice, past the RMSE band top
        else:
            bad[which][-1] += delta  # a query at a grid node
        assert wl.check(tuple(bad))


def test_plane_check_rejects_broken_order(tmp_path):
    wl = workloads.PlaneSpline(0, str(tmp_path))
    err = {(3, 2): 1.0, (5, 2): 0.5, (3, 3): 0.1, (5, 3): 0.01}
    noise = np.sin(np.arange(len(wl.pts)))
    noise[wl.samples:] = 0
    out = {cell: wl.truth + e * noise for cell, e in err.items()}
    assert wl.check(out) == []
    out[(5, 3)] = wl.truth + 0.2 * noise  # window 5 worse than window 3
    assert wl.check(out)
    out[(5, 3)] = wl.truth.copy()
    out[(5, 3)][-1] += 1e-6  # a node value off
    assert wl.check(out)


def test_exact_check_rejects_wrong_derivative_and_remainder(tmp_path):
    wl = workloads.ExactSuite(0, str(tmp_path))
    wl.setup()
    results = wl.op(0)
    assert wl.check(results) == []
    lam, spitz, vand, derivs, rems, quots = results[3]
    wrong = list(derivs)
    wrong[0] += Fraction(1, 7)
    results[3] = (lam, spitz, vand, wrong, rems, quots)
    assert wl.check(results)
    r = dict(rems[0])
    e = next(iter(r))
    r[e] += 1
    results[3] = (lam, spitz, vand, derivs, [r] * len(rems), quots)
    assert wl.check(results)


def test_cli_check_rejects_edited_output(tmp_path):
    wl = workloads.CliFiles(0, str(tmp_path))
    wl.setup()
    codes = wl.op(0)
    assert wl.check(codes) == []
    path = tmp_path / "eval_window.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert wl.check(codes)


def test_refuses_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sinmix_eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
