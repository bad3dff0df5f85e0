"""One-class detectors and detection metrics.

Builds the full detection pipeline by hand for one seed: simulate a normal
log with noise, split it, train the three detectors on normal diagnoses, then
score injected anomalies against held-out normals and compare the detectors
with precision/recall/F1 and ROC AUC. Run from the repository root:

    python3 demos/04_detectors_and_metrics.py
"""

from confmon import (NoiseParams, build_diagnoses, build_eval_sets,
                     bundled_model, classify, confusion, playout, prf, roc_auc,
                     score_matrix, split_log, train)

SEED = 0
net = bundled_model("som")

normal = playout(net, 50, seed=SEED, noise=NoiseParams(0.03, 0.03))
train_log, val_log, test_log = split_log(normal, (0.6, 0.2, 0.2), seed=SEED)
d_train = build_diagnoses(net, train_log)
d_val = build_diagnoses(net, val_log)
d_test = build_diagnoses(net, test_log)
print(f"normal log: {len(train_log)} train / {len(val_log)} val / {len(test_log)} test")

# anomalies come from a fresh playout so they cannot echo the training traces
source = playout(net, 50, seed=SEED + 1000)
eval_sets = build_eval_sets(source, lam=3.0, seed=SEED)
d_eval = {atype: build_diagnoses(net, eval_sets[atype]) for atype in ("ma", "woa", "ua")}

print(f"{'detector':8s} {'set':4s} {'prec':>6s} {'rec':>6s} {'f1':>6s} {'auc':>6s}")
for kind in ("ft", "dbscan", "ae"):
    det = train(kind, d_train, d_val, quantile=95.0, seed=SEED)
    normal = score_matrix(det, d_test).tolist()
    for atype in ("ma", "woa", "ua"):
        anomalous = score_matrix(det, d_eval[atype]).tolist()
        scores = normal + anomalous
        labels = ["normal"] * len(normal) + ["anomalous"] * len(anomalous)
        res = prf(confusion(labels, classify(det, scores)))
        auc = roc_auc(labels, scores).auc
        print(f"{kind:8s} {atype:4s} {res.precision:6.3f} {res.recall:6.3f} "
              f"{res.f1:6.3f} {auc:6.3f}")
    print()

print("ft thresholds on 1 - fitness alone; dbscan and ae see the full")
print("counter vector, which is what separates unknown-activity anomalies.")
