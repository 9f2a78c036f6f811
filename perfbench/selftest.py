"""Self-tests of the benchmark on tiny problems.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py``, so the package's own test run does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run as bench

BENCHMARK = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "sweep-2d20": replace(bench.WORKLOADS["sweep-2d20"], problem={"dim": 2, "nx": 4, "ny": 4}),
    "eigen-1d399": replace(bench.WORKLOADS["eigen-1d399"],
                           problem={"dim": 1, "n": 39, "coeff": {"p": "1+0.5*sin(pi*x)"}}),
    "verify-2d15": replace(bench.WORKLOADS["verify-2d15"], problem={"dim": 2, "nx": 4, "ny": 4}),
}


def _expected(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    result, lines = bench.run_workload(TINY[name], seed=3, seconds=0.2, trace=trace,
                                       out_dir=tmp_path)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    expected = _expected("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.startswith("failed_frac 0 ") for line in lines)
    if trace:
        assert result["metrics"]["trace.overhead_ms"]["value"] > 0


def test_workload_names_match_benchmark_file():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(bench.WORKLOADS)


def test_bad_lambda_is_counted_not_raised(tmp_path):
    run = bench.Run(TINY["sweep-2d20"], seed=3, workdir=tmp_path)
    assert run.do_setup() is not None
    et, tau, _ = run.state
    g = np.ones(et.de.n_interior, dtype=complex)
    assert run.sweep_op(complex(et.de.dirichlet_eigs[0]), g) is None   # Dirichlet eigenvalue
    assert run.sweep_op(complex(tau.poles()[0]), g) is None            # pole of tau
    assert run.sweep_op(1.0 + 1.0j, g) is not None
    assert (run.attempted, run.failed) == (4, 2)
    assert len(run.errors) == 2


def test_failed_action_marks_the_run_incorrect(tmp_path):
    wrong = replace(TINY["eigen-1d399"], expect_eigs=TINY["eigen-1d399"].expect_eigs + 1)
    result, lines = bench.run_workload(wrong, seed=3, seconds=0.2, trace=False,
                                       out_dir=tmp_path)
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("failed_frac") for line in lines)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_kernel_counts_repeat(name, tmp_path):
    def calls():
        result, _ = bench.run_workload(TINY[name], seed=5, seconds=0.2, trace=True,
                                       out_dir=tmp_path)
        return {k: v["value"] for k, v in result["metrics"].items()
                if k.startswith("lapack.") and k.endswith(".calls")}

    first, second = calls(), calls()
    assert first == second and sum(first.values()) > 0


def test_tracer_leaves_results_unchanged(tmp_path):
    from layertrace import Tracer

    run = bench.Run(TINY["sweep-2d20"], seed=3, workdir=tmp_path)
    run.do_setup()
    lam, g = next(bench.sweep_requests(3, run.state[0].de.n_interior))
    plain = bench.solve_three_routes(run.state, lam, g)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = ("setup", 0)
        run.do_setup()
        traced = bench.solve_three_routes(run.state, lam, g)
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced):
        np.testing.assert_array_equal(a, b)
    assert tracer.spans and all(end is not None for _, _, end, _, _ in tracer.spans)
    assert bench.wb("solver").krein_resolve.__name__ == "krein_resolve"
    assert not hasattr(bench.wb("solver").krein_resolve, "__wrapped__")


def test_unreadable_blas_thread_count_is_labelled_not_raised(monkeypatch):
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())   # exports no symbols
    assert bench._blas_threads() == f"{bench.BLAS_THREADS} (pinned)"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(bench.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / bench.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{bench.HERE.name}/run.py", "--workload", "sweep-2d20",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
