"""Smoke test of the benchmark itself, on tiny markets.

    python -m pytest benchmarks/test_smoke.py -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run._use_checkout_source()

import prdyn  # noqa: E402
import workloads  # noqa: E402
from workloads import Kind  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = {
    "fisher-verify": dict(
        kinds=(Kind("fisher", "ces", 3, 3), Kind("fisher", "separable_power", 3, 3),
               Kind("fisher", "mixed", 3, 4)),
        pool=3,
    ),
    "exchange-long": dict(kinds=(Kind("exchange", "mixed", 3, 4),), pool=2, steps=2000),
    "cli-e2e": dict(
        kinds=(Kind("fisher", "ces", 3, 3), Kind("fisher", "separable_power", 3, 3),
               Kind("exchange", "mixed", 3, 4)),
        pool=3,
    ),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, traced):
    result, detail = run.run_benchmark(tiny(name), seed=3, seconds=0.5, traced=traced)
    assert result["failed"] == 0, detail["failures"]
    assert result["correct"] is True
    assert result["attempted"] >= (2 if traced else 1)
    assert emitted(result) == units("per_layer" if traced else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    json.dumps(result)


def test_planted_wrong_equilibrium_price_counts_as_failed(monkeypatch):
    real = prdyn.solve_fisher_eq

    def planted(market, **kwargs):
        eq = real(market, **kwargs)
        return dataclasses.replace(eq, p_star=eq.p_star * 1.01)

    monkeypatch.setattr(prdyn, "solve_fisher_eq", planted)
    result, detail = run.run_benchmark(tiny("fisher-verify"), seed=3, seconds=0.5, traced=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert result["metrics"]["verified_ratio"]["value"] == 0.0
    assert all("price error" in " ".join(f["problems"]) for f in detail["failures"])


def test_tail_percentile_leaves_ten_samples_above():
    q, value, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (q, value, beyond) == (90, 90.0, 10)
    q, value, beyond = run.tail([float(i) for i in range(1, 13)])
    assert (q, value, beyond) == (50, 6.0, 6)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "fisher-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
