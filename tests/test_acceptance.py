"""End-to-end acceptance checks.

One test per criterion; each records an `ACCEPTANCE <n>: PASS/FAIL` verdict
that the conftest summary hook echoes after the run. Numeric expectations are
asserted exactly where the quantity is exact (costs, counter totals, clean-log
fitness) and with pinned tolerances or bands where it is statistical.
Detector orderings are statistical in a different way: they are decided over
20 paired seeds. For each seed d = metric(first) - metric(second), and the
ordering holds when mean(d) > 0 and mean(d) >= 2 * stdev(d) / sqrt(20), so a
verdict rests on the seed-to-seed spread rather than on a few lucky splits.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import replace
from pathlib import Path

import pytest

from confmon.alignment import misalignments, optimal_alignment, trace_fitness
from confmon.experiment import ExperimentConfig, run_experiment
from confmon.detect import ae_gradient_check, train
from confmon.diagnoses import build_diagnoses, coverage, log_fitness
from confmon.eventlog import split_log
from confmon.inject import ANOMALY_TYPES, InjectionSpec, inject_trace, _trace_rng
from confmon.metrics import Confusion, prf, roc_auc
from confmon.petri import NoiseParams, PetriNet, check_soundness, playout
from conftest import random_workflow_net, record_acceptance
from oracle import oracle_alignment_cost, oracle_auc, oracle_reachability

EVAL_SETS = ("ma", "woa", "ua", "all")
PAIRED_SEEDS = tuple(range(20))


def check(number: int, ok: bool, detail: str = "") -> None:
    record_acceptance(number, ok, detail)
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"acceptance criterion {number}: {detail}"


def run_into(tmp_path_factory, label: str, cfg: ExperimentConfig):
    outdir = tmp_path_factory.mktemp(label)
    started = time.time()
    result = run_experiment(replace(cfg, outdir=str(outdir)))
    elapsed = time.time() - started
    files = {Path(p).name: Path(p).read_bytes() for p in result["files"]}
    return result, files, elapsed


@pytest.fixture(scope="module")
def exp_default(tmp_path_factory):
    """First full default experiment run (som model, 5 seeds, noise 0.03)."""
    return run_into(tmp_path_factory, "exp-run1", ExperimentConfig())


@pytest.fixture(scope="module")
def exp_default_repeat(tmp_path_factory):
    return run_into(tmp_path_factory, "exp-run2", ExperimentConfig())


@pytest.fixture(scope="module")
def exp_paired_seeds(tmp_path_factory, exp_default):
    """Per-seed rows of the default experiment over PAIRED_SEEDS.

    A seed's rows depend only on the config and that seed, so the seeds of
    the default run are reused and only the rest are run here.
    """
    rows = [r for r in exp_default[0]["per_seed"] if r["seed"] in PAIRED_SEEDS]
    done = {r["seed"] for r in rows}
    rest = tuple(s for s in PAIRED_SEEDS if s not in done)
    cfg = replace(ExperimentConfig(), seeds=rest)
    rows += run_into(tmp_path_factory, "exp-paired", cfg)[0]["per_seed"]
    return rows


@pytest.fixture(scope="module")
def exp_noise0(tmp_path_factory):
    cfg = ExperimentConfig(p_drop=0.0, p_dup=0.0)
    return run_into(tmp_path_factory, "exp-noise0", cfg)


def test_criterion_1_fixture_alignments(fn1):
    started = time.time()
    loop_trace = ("t1", "t2", "t4", "t5", "t3", "t4", "t5", "t6")
    a_loop = optimal_alignment(fn1, loop_trace)
    fit_loop = trace_fitness(fn1, loop_trace)
    fit_empty = trace_fitness(fn1, ())
    swapped = ("t1", "t5", "t2", "t4", "t6")
    a_swap = optimal_alignment(fn1, swapped)
    fit_swap = trace_fitness(fn1, swapped)
    t5_counter = misalignments(a_swap, fn1.visible_labels)["t5"]
    elapsed = time.time() - started
    ok = (a_loop.cost == 0.0 and fit_loop == 1.0 and fit_empty == 0.0
          and a_swap.cost == 2.0 and abs(fit_swap - 0.8) < 1e-12
          and t5_counter == 2 and elapsed < 1.0)
    check(1, ok, f"loop-trace cost={a_loop.cost} fitness={fit_loop}, empty fitness="
                 f"{fit_empty}, swapped cost={a_swap.cost} fitness={fit_swap:.3f} "
                 f"t5-counter={t5_counter}, {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence(fn1):
    started = time.time()
    rng = random.Random(20260815)

    def matches(net, n_traces):
        alphabet = sorted(net.visible_labels) + ["x1", "x2"]
        hits = 0
        for _ in range(n_traces):
            trace = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 9)))
            if optimal_alignment(net, trace).cost == oracle_alignment_cost(net, trace):
                hits += 1
        return hits

    total = checked = matches(fn1, 200)
    n_traces = 200
    extra_nets = []
    for seed in range(1, 200):
        net = random_workflow_net(seed, budget=6)
        reach = oracle_reachability(net)
        if reach is not None and 5 <= len(reach[0]) <= 12:
            extra_nets.append(net)
        if len(extra_nets) == 2:
            break
    for net in extra_nets:
        total += matches(net, 100)
        n_traces += 100
    elapsed = time.time() - started
    ok = len(extra_nets) == 2 and total == n_traces and elapsed < 60.0
    check(2, ok, f"{total}/{n_traces} costs equal the exhaustive oracle on fn1 + "
                 f"{[n.name for n in extra_nets]}, {elapsed:.1f}s")


def test_criterion_3_coverage_identity_and_monotonicity(fn1):
    clean = playout(fn1, 200, seed=7)
    cov_clean = coverage(fn1, clean)
    fit_clean = log_fitness(fn1, clean)
    sweep = []
    for p_drop in (0.05, 0.15, 0.30):
        noisy = playout(fn1, 1000, seed=11, noise=NoiseParams(p_drop=p_drop))
        sweep.append(coverage(fn1, noisy))
    ok = (cov_clean == 1.0 and fit_clean == 1.0
          and sweep[0] > sweep[1] > sweep[2])
    check(3, ok, f"clean coverage={cov_clean} fitness={fit_clean}, drop sweep="
                 + "/".join(f"{c:.4f}" for c in sweep))


def test_criterion_4_injection_statistics(fn1):
    log = playout(fn1, 1000, seed=5)
    means = {}
    exact = True
    for atype in ANOMALY_TYPES:
        spec = InjectionSpec(atype, lam=3.0)
        ks = []
        for idx, tr in enumerate(log):
            mutated, k = inject_trace(tr, spec, _trace_rng(0, atype, idx))
            ks.append(k)
            if atype == "ma":
                exact &= len(mutated.events) == len(tr.events) - k
            elif atype == "ua":
                exact &= len(mutated.events) == len(tr.events) + k
            else:
                exact &= sorted(mutated.events) == sorted(tr.events)
        means[atype] = sum(ks) / len(ks)
    in_band = all(2.95 <= m <= 3.35 for m in means.values())
    check(4, exact and in_band,
          "mean K " + " ".join(f"{a}={m:.3f}" for a, m in means.items())
          + f", deltas exact={exact}")


def test_criterion_5_autoencoder_numerics(fn1):
    worst = 0.0
    for shape in ((4, 2, 4), (14, 7, 4, 7, 14)):
        for seed in range(5):
            worst = max(worst, ae_gradient_check(shape, seed=seed))
    log = playout(fn1, 50, seed=3, noise=NoiseParams(0.05, 0.05))
    train_log, val_log, _ = split_log(log, seed=3)
    det = train("ae", build_diagnoses(fn1, train_log), build_diagnoses(fn1, val_log), seed=0)
    history = det.state["loss_history"]
    monotone = (len(history) == 500
                and all(b <= a for a, b in zip(history, history[1:])))
    check(5, worst < 1e-4 and monotone,
          f"max gradient error={worst:.2e}, loss non-increasing over "
          f"{len(history)} epochs={monotone}")


def test_criterion_6_metrics_unit_suite():
    res = prf(Confusion(tp=47, tn=47, fp=3, fn=3))
    prf_ok = (res.accuracy, res.precision, res.recall, res.f1) == (0.94,) * 4
    sep = roc_auc(["normal"] * 4 + ["anomalous"] * 4,
                  [0.1, 0.2, 0.3, 0.2, 0.8, 0.9, 0.7, 0.9]).auc
    const = roc_auc(["normal", "anomalous"] * 3, [0.5] * 6).auc
    four = roc_auc(["anomalous", "normal", "anomalous", "normal"],
                   [0.9, 0.8, 0.7, 0.1]).auc
    rng = random.Random(402)
    max_gap = 0.0
    for _ in range(100):
        n = rng.randrange(4, 40)
        labels = ["anomalous" if rng.random() < 0.4 else "normal" for _ in range(n)]
        labels[0], labels[1] = "anomalous", "normal"
        scores = [rng.choice((0.0, 0.1, 0.25, 0.5, 0.5, 0.75, rng.random()))
                  for _ in range(n)]
        max_gap = max(max_gap, abs(roc_auc(labels, scores).auc
                                   - oracle_auc(labels, scores)))
    ok = prf_ok and sep == 1.0 and const == 0.5 and four == 0.75 and max_gap <= 1e-12
    check(6, ok, f"prf quad=0.94 ok={prf_ok}, AUC sep/const/4pt={sep}/{const}/{four}, "
                 f"max sweep-vs-pair gap={max_gap:.1e}")


def paired_ordering(rows, metric: str, first: str, second: str, anomaly: str):
    """Paired-seed verdict on metric(first) > metric(second) for one eval set.

    Returns (holds, mean difference, standard error, seeds won by first).
    """
    by_key = {(r["seed"], r["anomaly"], r["technique"]): r[metric] for r in rows}
    diffs = [by_key[(s, anomaly, first)] - by_key[(s, anomaly, second)]
             for s in PAIRED_SEEDS]
    mean = statistics.fmean(diffs)
    se = statistics.stdev(diffs) / math.sqrt(len(diffs))
    wins = sum(d > 0 for d in diffs)
    return mean > 0 and mean >= 2 * se, mean, se, wins


def test_criterion_7_detector_orderings(exp_default, exp_paired_seeds, exp_noise0):
    result, _, elapsed = exp_default
    agg = result["aggregate"]

    # Under uniform drop noise a deletion leaves the same counters as noise,
    # so on ma the alignment cost that ft reads is the best separator. The
    # dbscan/ft F1 gap on ma is within the seed noise; AUC ranks that pair.
    orderings = [("f1", "ae", "ft", "ua"), ("f1", "dbscan", "ft", "ua"),
                 ("f1", "ft", "ae", "ma"), ("auc", "ft", "dbscan", "ma")]
    clauses = {}
    details = []
    for metric, first, second, anomaly in orderings:
        name = f"{metric.upper()}({first})>{metric.upper()}({second}) on {anomaly}"
        holds, mean, se, wins = paired_ordering(exp_paired_seeds, metric, first,
                                                second, anomaly)
        clauses[name] = holds
        details.append(f"{name}: d={mean:+.4f} SE={se:.4f} "
                       f"wins {wins}/{len(PAIRED_SEEDS)}")
    auc_ae_all = agg[("all", "ae")]["auc"][0]
    clauses["AUC(ae)>=0.85 on all"] = auc_ae_all >= 0.85

    noise0_agg = exp_noise0[0]["aggregate"]
    ft_f1 = [noise0_agg[(at, "ft")]["f1"][0] for at in EVAL_SETS]
    clauses["noise-0 FT F1=1.0 on all sets"] = all(v == 1.0 for v in ft_f1)
    clauses["runtime<300s"] = elapsed < 300.0

    failed = [name for name, ok in clauses.items() if not ok]
    detail = ("; ".join(details)
              + f"; AUC(ae,all)={auc_ae_all:.4f}, "
              f"noise-0 FT F1={['%.3f' % v for v in ft_f1]}, {elapsed:.0f}s"
              + (f"; failed: {failed}" if failed else ""))
    check(7, not failed, detail)


def test_criterion_8_experiment_determinism(exp_default, exp_default_repeat):
    files1 = exp_default[1]
    files2 = exp_default_repeat[1]
    same_names = set(files1) == set(files2)
    identical = same_names and all(files1[name] == files2[name] for name in files1)
    check(8, identical, f"{len(files1)} output files byte-identical={identical}")


def test_criterion_9_soundness_check(fn1):
    good = check_soundness(fn1)
    arcs = [a for a in fn1.arcs if a != ("p5", "t6")]
    crippled = PetriNet(fn1.places, fn1.transitions, arcs, fn1.initial_marking,
                        fn1.final_marking, fn1.labels, name="fn1-crippled")
    bad = check_soundness(crippled)
    ok = (good.sound and good.dead_transitions == ()
          and not bad.sound and "t6" in bad.dead_transitions)
    check(9, ok, f"fn1 sound={good.sound}; without p5->t6: sound={bad.sound} "
                 f"dead={list(bad.dead_transitions)}")
