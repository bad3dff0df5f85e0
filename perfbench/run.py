"""Offline benchmark for confmon: one workload per invocation.

    python3 perfbench/run.py --workload experiment --seed 0 --seconds 40 --trace 0

Each rep runs in a fresh process (``rep.py``): it generates the inputs from
the seed (set-up), then times the body's steps. Reps repeat while the next
one is expected to end within ``--seconds`` (at least three with
``--trace 0``), and the medians are reported. Times are scaled to a
reference machine speed by a calibration loop timed around every step
(``calibration.py``); the unscaled times are in the report. With
``--trace 0`` nothing is wrapped and the end-to-end metrics are printed;
with ``--trace 1`` untraced and traced reps alternate and the per-layer
metrics and the tracing overhead are printed. Every rep's outputs are
checked (``checks.py``); failed CLI calls, raised ``ConfmonError`` and
failed checks count as failed operations. The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when anything failed.

Everything the runs write goes under ``.perfbench_runs/`` at the repository
root, including ``report.json`` with every rep, the platform and the checks.
``--size smoke`` runs a tiny size of the workload; ``--record-pins`` stores
the output digests of a default-seed run in ``pins.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import scaled  # noqa: E402
from checks import (PINS_PATH, Checks, check_outputs, digests, load_pins,  # noqa: E402
                    numeric_platform)
from workloads import DEFAULT_SEED, SIZES, WORKLOADS  # noqa: E402

RUNS_DIR = ROOT / ".perfbench_runs"
MIN_REPS = 3
RUN_LIMIT_S = 170  # a run must end within 180 s; a rep gets what is left

END_TO_END_UNITS = {"wall_s": "s", "traces_per_s": "traces/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
# Per-layer metrics printed in the final JSON line: every counter, and the
# times that are measured on all three workloads (a layer a workload does
# not run would read exactly 0 every time). report.json and the printed
# table hold every per-layer metric.
LAYER_UNITS = {
    "petri.s": "s", "petri.playout_traces": "count", "petri.load_calls": "count",
    "eventlog.s": "s", "eventlog.events": "count",
    "inject.traces": "count",
    "alignment.s": "s", "alignment.self_s": "s", "alignment.calls": "count",
    "alignment.first_call_s": "s", "alignment.trace_ms_p50": "ms",
    "alignment.trace_ms_p90": "ms", "alignment.events": "count",
    "alignment.moves": "count", "alignment.cost_sum": "count",
    "alignment.variants": "count", "alignment.variant_ratio": "ratio",
    "diagnoses.s": "s", "diagnoses.self_s": "s", "diagnoses.rows": "count",
    "detect.train_rows": "count", "detect.score_calls": "count",
    "detect.score_rows": "count", "detect.dbscan_cores": "count",
    "metrics.calls": "count",
    "cli.s": "s",
    "trace.overhead_s": "s",
}


class RepFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CONFMON_THREADS", None)  # the experiment runs its seeds sequentially
    # one BLAS thread: steadier timings on a small shared machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(args, mode: str, rep_dir: Path, deadline: float) -> dict:
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    spec_path = rep_dir.with_suffix(".spec.json")
    result_path = rep_dir.with_suffix(".result.json")
    result_path.unlink(missing_ok=True)
    spec = {"workload": args.workload, "size": args.size, "seed": args.seed,
            "workdir": str(rep_dir), "result": str(result_path), "mode": mode}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "rep.py"), str(spec_path)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{mode} rep did not end within the run's {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise RepFailed(f"{mode} rep exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["setup_end"] - spawned
    result["digests"] = digests(rep_dir / "out")
    return result


def verify(args, result: dict, rep_dir: Path, pins: dict) -> tuple[Checks, str]:
    try:
        return check_outputs(args.workload, args.size, args.seed, rep_dir / "out",
                             result["expect"], result["platform"], pins)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        checks = Checks()
        checks.add("outputs parse", False, f"{type(exc).__name__}: {exc}")
        return checks, "outputs could not be parsed"


def median_quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record-pins", action="store_true",
                        help="store this default-seed run's output digests in pins.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "confmon" / "__init__.py").is_file():
        print(f"error: no confmon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.record_pins and args.seed != DEFAULT_SEED:
        parser.error(f"--record-pins needs the default seed {DEFAULT_SEED}")

    run_dir = RUNS_DIR / f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    pins = load_pins()
    modes = ("count", "trace") if args.trace else ("plain",)
    min_rounds = 1 if args.trace else MIN_REPS

    reps = {mode: [] for mode in modes}
    checks = Checks()
    notes = set()
    started = time.monotonic()
    round_s = 0.0
    try:
        # stop before a round that would end after --seconds, going by the last one
        while (len(reps[modes[0]]) < min_rounds
               or time.monotonic() - started + round_s <= args.seconds):
            round_start = time.monotonic()
            for mode in modes:
                rep_dir = run_dir / f"{mode}{len(reps[mode])}"
                result = run_rep(args, mode, rep_dir, started + RUN_LIMIT_S)
                rep_checks, note = verify(args, result, rep_dir, pins)
                checks.results += rep_checks.results
                notes.add(note)
                for name, ok in result["ops"]:
                    checks.add(f"{mode} rep: {name}", ok, "nonzero exit or ConfmonError")
                reps[mode].append(result)
            if args.trace:
                plain, traced = reps["count"][-1], reps["trace"][-1]
                checks.add("alignment.cost_sum traced == untraced",
                           plain["cost_sum"] == traced["cost_sum"],
                           f"{traced['cost_sum']} vs {plain['cost_sum']}")
                checks.add("traced outputs == untraced outputs",
                           plain["digests"] == traced["digests"])
            round_s = time.monotonic() - round_start
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = reps[modes[0]][0]
    if args.record_pins:
        PINS_PATH.write_text(json.dumps(_pinned(pins, args, first), indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
        notes.add(f"pins recorded in {PINS_PATH.name}")

    if args.trace:
        metrics, table = _layer_metrics(reps)
    else:
        metrics, table = _end_to_end(reps["plain"])
    failed = checks.failed
    attempted = len(checks.results)
    report = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "trace": args.trace, "platform": first["platform"],
              "reps": {m: [{k: r[k] for k in ("wall_s", "wall_ref_s", "setup_s",
                                               "calibration_rounds_s", "peak_rss_mb",
                                               "traces", "layers") if k in r}
                           for r in rs] for m, rs in reps.items()},
              "metrics": table, "notes": sorted(notes),
              "checks": {"attempted": attempted, "failed": failed}}
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    _print_report(args, report, reps, table)
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 1 if failed else 0


def _end_to_end(reps: list) -> tuple[dict, dict]:
    wall = median_quartiles([r["wall_ref_s"] for r in reps])
    values = {
        "wall_s": wall,
        # the fastest quartile of wall time is the highest of throughput
        "traces_per_s": tuple(reps[0]["traces"] / w for w in (wall[0], wall[2], wall[1])),
        "peak_rss_mb": median_quartiles([r["peak_rss_mb"] for r in reps]),
        # set-up is scaled by the calibration right after it
        "setup_s": median_quartiles([scaled(r["setup_s"], r["calibration_rounds_s"][0])
                                     for r in reps]),
        "wall_s.unscaled": median_quartiles([r["wall_s"] for r in reps]),
        "setup_s.unscaled": median_quartiles([r["setup_s"] for r in reps]),
        "calibration_round_ms": median_quartiles(
            [1000 * x for r in reps for x in r["calibration_rounds_s"]]),
    }
    units = {**END_TO_END_UNITS, "wall_s.unscaled": "s", "setup_s.unscaled": "s",
             "calibration_round_ms": "ms"}
    metrics = {k: {"value": values[k][0], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    table = {k: {"median": v[0], "q1": v[1], "q3": v[2], "unit": units[k],
                 "n": len(reps)} for k, v in values.items()}
    return metrics, table


def _layer_metrics(reps: dict) -> tuple[dict, dict]:
    traced = [r["layers"] for r in reps["trace"]]
    table = {k: {"median": _median_exact([t[k] for t in traced]), "n": len(traced)}
             for k in traced[0]}
    untraced = statistics.median(r["wall_ref_s"] for r in reps["count"])
    traced_wall = statistics.median(r["wall_ref_s"] for r in reps["trace"])
    # wall times at the reference speed, as the end-to-end wall_s
    table["trace.overhead_s"] = {"median": traced_wall - untraced, "n": len(traced)}
    table["wall_s.untraced"] = {"median": untraced, "n": len(traced)}
    table["wall_s.traced"] = {"median": traced_wall, "n": len(traced)}
    metrics = {k: {"value": table[k]["median"], "unit": unit} for k, unit in LAYER_UNITS.items()}
    return metrics, table


def _median_exact(values: list):
    """Median that keeps a count that repeats exactly as it is (an int stays an int)."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def _pinned(pins: dict, args, rep: dict) -> dict:
    platform = numeric_platform(rep["platform"])
    if pins.get("platform") not in (None, platform):
        pins = {}  # pins from another numeric platform would never be compared
    out = {"platform": platform, "default_seed": DEFAULT_SEED,
           "digests": dict(pins.get("digests", {}))}
    out["digests"][f"{args.workload}/{args.size}"] = rep["digests"]
    return out


def _print_report(args, report: dict, reps: dict, table: dict) -> None:
    p = report["platform"]
    print(f"workload={args.workload} size={args.size} seed={args.seed} trace={args.trace} "
          f"params={SIZES[args.workload][args.size]}")
    print(f"platform: nproc={p['nproc']} python={p['python']} numpy={p['numpy']} "
          f"blas_core={p['blas_core']} blas_threads={p['blas_threads']}")
    for note in report["notes"]:
        print(note)
    for name, row in table.items():
        if "q1" in row:
            print(f"{name:28s} {row['median']:14.6f} {row['unit']:9s} "
                  f"(median of {row['n']}, q1 {row['q1']:.6f}, q3 {row['q3']:.6f})")
        else:
            print(f"{name:28s} {row['median']:14.6f}")
    checks = report["checks"]
    n_failed = len(checks["failed"])
    rate = n_failed / checks["attempted"] if checks["attempted"] else 0.0
    print(f"{'error_rate':28s} {rate:14.6f} ratio     "
          f"({n_failed} failed of {checks['attempted']} operations and checks)")


if __name__ == "__main__":
    sys.exit(main())
