"""Smoke tests of the benchmark harness, on the tiny size of every workload.

    python3 -m pytest -q perfbench
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
sys.path.insert(0, str(HERE))

from checks import check_outputs, load_pins  # noqa: E402
from run import END_TO_END_UNITS, LAYER_UNITS, RUNS_DIR  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, long_fn1_traces  # noqa: E402

HELD_OUT_SEED = 7


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section: str) -> set:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return set(END_TO_END_UNITS if section == "end_to_end" else LAYER_UNITS)
    return {m["name"] for m in json.loads(path.read_text(encoding="utf-8"))[section]}


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct(workload, seed):
    res = result_of(bench("--workload", workload, "--size", "smoke", "--seed", str(seed),
                          "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers(workload):
    proc = bench("--workload", workload, "--size", "smoke", "--seed", str(HELD_OUT_SEED),
                 "--seconds", "1", "--trace", "1")
    res = result_of(proc)
    assert res["correct"], proc.stdout
    assert set(res["metrics"]) == declared("per_layer")
    layers = res["metrics"]
    assert layers["alignment.calls"]["value"] >= layers["alignment.variants"]["value"] > 0
    assert layers["diagnoses.self_s"]["value"] < layers["diagnoses.s"]["value"]
    assert "trace.overhead_s" in proc.stdout


def test_default_seed_digests_are_compared_when_pinned():
    proc = bench("--workload", "long_fn1", "--size", "smoke", "--seconds", "1")
    assert result_of(proc)["correct"]
    pins = load_pins()
    if "long_fn1/smoke" in pins.get("digests", {}):
        assert ("files compared against pins" in proc.stdout
                or "pinned on another numeric platform" in proc.stdout)


def test_a_broken_output_fails_the_check():
    run_dir = RUNS_DIR / f"long_fn1-smoke-s{HELD_OUT_SEED}-t0"
    assert result_of(bench("--workload", "long_fn1", "--size", "smoke", "--seed",
                           str(HELD_OUT_SEED), "--seconds", "1"))["correct"]
    outdir = run_dir / "plain0" / "out"
    diag = outdir / "diagnoses_1.csv"
    lines = diag.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",1.500000"
    diag.write_text("\n".join(lines) + "\n", encoding="utf-8")
    checks, _ = check_outputs("long_fn1", "smoke", HELD_OUT_SEED, outdir,
                              {"batches": [2, len(lines) - 2]}, {}, {})
    assert [name for name, ok, _ in checks.results if not ok] == [
        "diagnoses_1.csv fitness in [0, 1]"]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "long_fn1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_long_traces_are_distinct_and_seeded():
    a = long_fn1_traces(20, 50, 500, seed=3)
    assert a == long_fn1_traces(20, 50, 500, seed=3)
    assert a != long_fn1_traces(20, 50, 500, seed=4)
    assert len(set(a)) == 20
    assert min(map(len, a)) >= 40 and max(map(len, a)) <= 560
