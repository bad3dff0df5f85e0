"""Workload definitions: sizes, input generation (set-up) and timed bodies.

Every workload is a function of (size, seed). Set-up generates the inputs
from the seed and writes them as files; the body then drives confmon through
its public entry points (``run_experiment`` or the CLI's ``main``), as a user
would. The body is a list of named steps, one per call; a step returns
whether its call succeeded. Steps look the entry points up on
``confmon.cli`` at call time, so a tracer installed after set-up sees the
calls.

This module imports confmon only inside the set-up functions, so the parent
harness (``run.py``) can read sizes and output layouts without importing the
package under test.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("experiment", "monitor_som", "long_fn1")
DEFAULT_SEED = 0

# "full" is what the benchmark measures; "smoke" is a tiny size that the
# benchmark's own tests run in a few seconds so the harness cannot rot.
SIZES = {
    "experiment": {
        "full": {"n_traces": 200},
        "smoke": {"n_traces": 20},
    },
    # 2000 normal traces give 1200 DBSCAN training rows (about 0.4 GB peak
    # for the (n, n, d) distance tensor); larger logs grow that quadratically.
    "monitor_som": {
        "full": {"n_normal": 2000, "n_source": 1500},
        "smoke": {"n_normal": 60, "n_source": 15},
    },
    "long_fn1": {
        "full": {"n_traces": 100, "min_len": 50, "max_len": 500, "batches": 4},
        "smoke": {"n_traces": 4, "min_len": 50, "max_len": 80, "batches": 2},
    },
}

EXPERIMENT_SEEDS_PER_RUN = 5
EXPERIMENT_DETECTORS = ("ft", "dbscan", "ae")
MONITOR_DETECTORS = ("dbscan", "ae")
NOISE = 0.03          # per-event drop and duplicate probability of som logs
LONG_NOISE = 0.05     # per-event drop and duplicate probability of fn1 logs
INJECT_LAMBDA = 3.0


@dataclass
class Prepared:
    """Inputs of one rep: the body to time and what it should produce."""

    steps: list[tuple[str, Callable[[], bool]]]  # (operation, call returning ok)
    traces: int               # input traces the body diagnoses (traces_per_s base)
    expect: dict              # facts the output check compares against


def experiment_seeds(seed: int) -> tuple:
    """Benchmark seed s runs experiment seeds 5s .. 5s+4; s = 0 is the study's 0-4."""
    first = EXPERIMENT_SEEDS_PER_RUN * seed
    return tuple(range(first, first + EXPERIMENT_SEEDS_PER_RUN))


def setup(workload: str, size: str, seed: int, workdir: Path) -> Prepared:
    params = SIZES[workload][size]
    return _SETUP[workload](params, seed, Path(workdir))


# -- experiment ---------------------------------------------------------------


def _setup_experiment(params: dict, seed: int, workdir: Path) -> Prepared:
    from confmon import ConfmonError, ExperimentConfig, cli

    n = params["n_traces"]
    seeds = experiment_seeds(seed)
    cfg = ExperimentConfig(model="som", seeds=seeds, n_traces=n,
                           detectors=EXPERIMENT_DETECTORS, outdir=str(workdir / "out"))

    def experiment():
        try:
            cli.run_experiment(cfg)
        except ConfmonError:
            return False
        return True

    # each seed diagnoses its n normal traces and three injected copies of n
    return Prepared([("experiment", experiment)], traces=4 * n * len(seeds),
                    expect={"seeds": list(seeds), "detectors": list(EXPERIMENT_DETECTORS)})


# -- monitor_som --------------------------------------------------------------


def _setup_monitor(params: dict, seed: int, workdir: Path) -> Prepared:
    from confmon import (EventLog, NoiseParams, Trace, build_eval_sets,
                         bundled_model, playout, write_log)

    net = bundled_model("som")
    noise = NoiseParams(NOISE, NOISE)
    normal = playout(net, params["n_normal"], seed=seed, noise=noise)
    held_out = playout(net, params["n_source"], seed=seed + 2000, noise=noise)
    source = playout(net, params["n_source"], seed=seed + 1000)
    injected = build_eval_sets(source, INJECT_LAMBDA, seed=seed)["all"]
    labeled = EventLog([Trace(f"n{tr.case_id}", tr.events, "normal") for tr in held_out]
                       + list(injected))
    inp = workdir / "in"
    out = workdir / "out"
    inp.mkdir(parents=True)
    out.mkdir(parents=True)
    normal_path = inp / "normal.log"
    eval_path = inp / "eval.log"
    normal_path.write_text(write_log(normal), encoding="utf-8")
    eval_path.write_text(write_log(labeled), encoding="utf-8")

    calls = [("check", ["check", "--model", "som", "--log", str(normal_path),
                        "-o", str(out / "diagnoses.csv")])]
    for kind in MONITOR_DETECTORS:
        calls.append((f"train {kind}", [
            "train", "--detector", kind, "--model", "som", "--log", str(normal_path),
            "--seed", str(seed), "-o", str(out / f"{kind}.det")]))
    for kind in MONITOR_DETECTORS:
        calls.append((f"detect {kind}", [
            "detect", "--detector", str(out / f"{kind}.det"), "--model", "som",
            "--log", str(eval_path), "-o", str(out / f"pred_{kind}.csv")]))
    for kind in MONITOR_DETECTORS:
        calls.append((f"evaluate {kind}", [
            "evaluate", "--preds", str(out / f"pred_{kind}.csv"), "--log", str(eval_path),
            "-o", str(out / f"metrics_{kind}.csv")]))

    n_normal, n_eval = len(normal), len(labeled)
    n_train_val = _train_val_rows(n_normal)
    return Prepared([(name, _cli_step(argv)) for name, argv in calls],
                    traces=n_normal + len(MONITOR_DETECTORS) * (n_train_val + n_eval),
                    expect={"normal": n_normal, "eval": n_eval,
                            "anomalous": len(injected), "detectors": list(MONITOR_DETECTORS)})


def _cli_step(argv: list) -> Callable[[], bool]:
    from confmon import cli

    return lambda: cli.main(argv) == 0


def _train_val_rows(n: int) -> int:
    """Rows `confmon train` diagnoses with its default 0.6/0.2/0.2 split."""
    return n - int(0.2 * n + 1e-9)


# -- long_fn1 -----------------------------------------------------------------


def long_fn1_traces(n: int, min_len: int, max_len: int, seed: int) -> list:
    """Long loop traces of the fn1 net, each its own variant.

    ``playout`` leaves fn1's loop with probability 1/2 per round and so
    almost never yields more than about 40 events; these traces are built
    directly. Target lengths are spread evenly over [min_len, max_len] so
    the total search work barely depends on the seed; the seed picks the
    XOR branch and interleaving of every round and the drop/duplicate noise.
    """
    rng = random.Random(seed)
    seen = set()
    traces = []
    for i in range(n):
        target = min_len + (max_len - min_len) * i // max(1, n - 1)
        while True:
            events = _noisy(_fn1_run(rng, target), rng)
            if events not in seen:
                break
        seen.add(events)
        traces.append(events)
    rng.shuffle(traces)
    return traces


def _fn1_run(rng: random.Random, target: int) -> list:
    # t1, then rounds of {t2|t3} interleaved with t4 followed by t5, then t6
    rounds = max(1, (target - 2) // 3)
    events = ["t1"]
    for _ in range(rounds):
        pair = [rng.choice(("t2", "t3")), "t4"]
        rng.shuffle(pair)
        events += pair + ["t5"]
    events.append("t6")
    return events


def _noisy(events: list, rng: random.Random) -> tuple:
    out = []
    for ev in events:
        if rng.random() < LONG_NOISE:
            continue
        out.append(ev)
        if rng.random() < LONG_NOISE:
            out.append(ev)
    return tuple(out)


def _setup_long(params: dict, seed: int, workdir: Path) -> Prepared:
    from confmon import EventLog, Trace, write_log

    traces = long_fn1_traces(params["n_traces"], params["min_len"], params["max_len"], seed)
    traces = [Trace(f"L{i + 1}", events) for i, events in enumerate(traces)]
    inp = workdir / "in"
    out = workdir / "out"
    inp.mkdir(parents=True)
    out.mkdir(parents=True)
    # The log arrives in equal batches, one `check` call each: shorter timed
    # steps let the calibration around each step track the machine's speed.
    n_batches = params["batches"]
    size = -(-len(traces) // n_batches)
    steps, rows = [], []
    for k in range(n_batches):
        batch = EventLog(traces[k * size:(k + 1) * size])
        log_path = inp / f"long_{k}.log"
        log_path.write_text(write_log(batch), encoding="utf-8")
        steps.append((f"check {k}", _cli_step([
            "check", "--model", "fn1", "--log", str(log_path),
            "-o", str(out / f"diagnoses_{k}.csv")])))
        rows.append(len(batch))
    return Prepared(steps, traces=len(traces), expect={"batches": rows})


_SETUP = {
    "experiment": _setup_experiment,
    "monitor_som": _setup_monitor,
    "long_fn1": _setup_long,
}
