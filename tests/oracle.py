"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from the raw net structure (places, arcs,
labels) or a detector's saved state on purpose, without calling the package's
firing, search, metric, scoring or training code paths, so a bug in the production
code cannot hide in its own oracle.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from confmon.errors import DetectError


def _structure(net):
    """Pre/post place lists per transition, derived straight from the arcs."""
    pre = {t: [] for t in net.transitions}
    post = {t: [] for t in net.transitions}
    for a, b in net.arcs:
        if b in net.transitions:
            pre[b].append(a)
        else:
            post[a].append(b)
    return pre, post


def _fire_key(key, places, pre, post):
    counts = dict(zip(places, key))
    for p in pre:
        counts[p] -= 1
    for p in post:
        counts[p] = counts.get(p, 0) + 1
    return tuple(counts[p] for p in places)


def _enabled_key(key, places, pre):
    counts = dict(zip(places, key))
    return bool(pre) and all(counts[p] >= 1 for p in pre)


def oracle_alignment_cost(net, events, c_log=1.0, c_model=1.0, c_silent=0.0,
                          c_sync=0.0, max_states=2_000_000, initial=None):
    """Minimum alignment cost by exhaustive uniform-cost search.

    Plain Dijkstra over (marking, trace position) with no heuristic and no
    pruning beyond visited-state dedup, from the initial marking or from the
    marking key initial (token counts in sorted place order). Returns None when
    no alignment exists within the state budget.
    """
    events = tuple(events)
    places = tuple(sorted(net.places))
    pre, post = _structure(net)
    m0 = initial
    if m0 is None:
        m0 = tuple(net.initial_marking.get(p, 0) for p in places)
    mf = tuple(net.final_marking.get(p, 0) for p in places)
    start = (m0, 0)
    dist = {start: 0.0}
    heap = [(0.0, 0, m0, 0)]
    tick = itertools.count(1)
    while heap:
        d, _, key, pos = heapq.heappop(heap)
        if d > dist.get((key, pos), float("inf")):
            continue
        if key == mf and pos == len(events):
            return d
        if len(dist) > max_states:
            return None
        moves = []
        if pos < len(events):
            moves.append((c_log, key, pos + 1))
            for t in net.transitions:
                if net.labels[t] == events[pos] and _enabled_key(key, places, pre[t]):
                    moves.append((c_sync, _fire_key(key, places, pre[t], post[t]), pos + 1))
        for t in net.transitions:
            if _enabled_key(key, places, pre[t]):
                cost = c_silent if net.labels[t] is None else c_model
                moves.append((cost, _fire_key(key, places, pre[t], post[t]), pos))
        for cost, nkey, npos in moves:
            nd = d + cost
            if nd < dist.get((nkey, npos), float("inf")):
                dist[(nkey, npos)] = nd
                heapq.heappush(heap, (nd, next(tick), nkey, npos))
    return None


def oracle_exact_alignment(net, events, c_log=1.0, c_model=1.0, c_silent=0.0,
                           max_states=2_000_000):
    """(moves, cost) of the canonical optimal alignment, by uniform-cost
    search in exact arithmetic with the documented tie-break.

    Each cost is the Fraction of its decimal form (0.7 is 7/10). Plain
    Dijkstra over (marking, trace position) without pruning: entries pop in
    (cost, path) order, where a path is the tuple of its moves' ranks in
    (kind, transition id) order, kinds ranked sync, silent, model, log; each
    state settles on the first entry popped for it, and the result is the
    goal's. moves lists (kind, activity, transition) per move; cost is a
    Fraction. Returns None when no alignment exists within the state budget.
    """
    events = tuple(events)
    c_log, c_model, c_silent = (Fraction(repr(float(c))) for c in (c_log, c_model, c_silent))
    places = tuple(sorted(net.places))
    pre, post = _structure(net)
    m0 = tuple(net.initial_marking.get(p, 0) for p in places)
    mf = tuple(net.final_marking.get(p, 0) for p in places)
    ranked = sorted([(0, t) for t in net.transitions if net.labels[t] is not None]
                    + [(1 if net.labels[t] is None else 2, t) for t in net.transitions]
                    + [(3, "")])
    rank = {move: i for i, move in enumerate(ranked)}
    heap = [(Fraction(0), (), m0, 0)]
    settled = set()
    while heap:
        cost, path, key, pos = heapq.heappop(heap)
        if (key, pos) in settled:
            continue
        settled.add((key, pos))
        if key == mf and pos == len(events):
            moves, at = [], 0
            for r in path:
                kind, t = ranked[r]
                if kind == 3:
                    moves.append(("log", events[at], None))
                    at += 1
                elif kind == 0:
                    moves.append(("sync", net.labels[t], t))
                    at += 1
                else:
                    moves.append(("silent" if kind == 1 else "model", net.labels[t], t))
            return moves, cost
        if len(settled) > max_states:
            return None
        steps = []
        if pos < len(events):
            steps.append((c_log, rank[3, ""], key, pos + 1))
        for t in net.transitions:
            if _enabled_key(key, places, pre[t]):
                nkey = _fire_key(key, places, pre[t], post[t])
                if net.labels[t] is None:
                    steps.append((c_silent, rank[1, t], nkey, pos))
                else:
                    steps.append((c_model, rank[2, t], nkey, pos))
                    if pos < len(events) and net.labels[t] == events[pos]:
                        steps.append((Fraction(0), rank[0, t], nkey, pos + 1))
        for step, r, nkey, npos in steps:
            if (nkey, npos) not in settled:
                heapq.heappush(heap, (cost + step, path + (r,), nkey, npos))
    return None


def oracle_cost_to_go(net, events, c_log=1.0, c_model=1.0, c_silent=0.0):
    """{(marking key, pos): h*} over every reachable marking and position:
    the cheapest cost of aligning events[pos:] from that marking to the
    final marking, inf when there is none, each by oracle_alignment_cost."""
    events = tuple(events)
    markings = oracle_reachability(net)[0]
    out = {}
    for key in markings:
        for pos in range(len(events) + 1):
            cost = oracle_alignment_cost(net, events[pos:], c_log, c_model, c_silent,
                                         initial=key)
            out[key, pos] = float("inf") if cost is None else cost
    return out


def oracle_chunk_cost_to_go(net, keys, chunk, c_log, c_model, c_silent):
    """The tables of a chunk of event sequences, as lists, by the dense
    reference backward pass that the package's pass must match value for
    value.

    keys lists the net's reachable marking keys in the order that indexes
    the tables (petri.reachability_graph's nodes); the moves between them,
    dist (the cheapest model-only run between two markings, by
    Floyd-Warshall), the completion costs dist[:, final] and the sync
    successors come from the net's arcs here, not from the package's pass
    arrays. Costs are in the scheme's units, and the pass runs in float64,
    like the package's. The sequences are right-aligned on a
    (positions, N + 1, B) array whose row N is inf; each position takes the
    cheaper of a log and a sync move on the event, step[k, b], then its
    model-move closure, the min over k of dist[m, k] + step[k, b] along
    axis 1 of a fresh (N, N, B) sum. A sequence's list is indexed by
    pos * (N + 1) + m.
    """
    places = tuple(sorted(net.places))
    pre, post = _structure(net)
    index = {key: i for i, key in enumerate(keys)}
    n_nodes = len(keys)
    columns = {act: i for i, act in enumerate(sorted(net.visible_labels))}
    unknown = len(columns)
    dist = np.full((n_nodes, n_nodes), float("inf"))
    np.fill_diagonal(dist, 0.0)
    sync_next = np.full((n_nodes, unknown + 1), n_nodes)
    for src, key in enumerate(keys):
        for t in sorted(net.transitions):
            if _enabled_key(key, places, pre[t]):
                dst = index[_fire_key(key, places, pre[t], post[t])]
                label = net.labels[t]
                cost = c_silent if label is None else c_model
                dist[src, dst] = min(dist[src, dst], cost)
                if label is not None:
                    sync_next[src, columns[label]] = dst
    for k in range(n_nodes):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    final = index[tuple(net.final_marking.get(p, 0) for p in places)]
    width = max(map(len, chunk)) + 1
    events = np.full((width - 1, len(chunk)), unknown)
    for b, sigma in enumerate(chunk):
        events[width - 1 - len(sigma):, b] = [columns.get(a, unknown) for a in sigma]
    h = np.empty((width, n_nodes + 1, len(chunk)))
    h[:, n_nodes] = float("inf")
    h[-1, :n_nodes] = dist[:, final, None]
    synced = sync_next[:, events]
    synced *= len(chunk)
    synced += np.arange(len(chunk))
    dist = dist[:, :, None]
    for pos in range(width - 2, -1, -1):
        after = h[pos + 1]
        step = np.minimum(after[:n_nodes] + c_log, after.take(synced[:, pos]))
        np.minimum.reduce(dist + step, axis=1, out=h[pos, :n_nodes])
    return [h[width - 1 - len(sigma):, :, b].ravel().tolist()
            for b, sigma in enumerate(chunk)]


def oracle_reachability(net, cap=100_000):
    """(all reachable markings, set of transitions enabled somewhere,
    markings from which the final marking is reachable), or None on cap."""
    places = tuple(sorted(net.places))
    pre, post = _structure(net)
    m0 = tuple(net.initial_marking.get(p, 0) for p in places)
    mf = tuple(net.final_marking.get(p, 0) for p in places)
    seen = {m0}
    edges = []
    frontier = [m0]
    fired = set()
    while frontier:
        nxt = []
        for key in frontier:
            for t in net.transitions:
                if _enabled_key(key, places, pre[t]):
                    fired.add(t)
                    child = _fire_key(key, places, pre[t], post[t])
                    edges.append((key, child))
                    if child not in seen:
                        if len(seen) >= cap:
                            return None
                        seen.add(child)
                        nxt.append(child)
        frontier = nxt
    can_finish = {mf} if mf in seen else set()
    changed = True
    while changed:
        changed = False
        for src, dst in edges:
            if dst in can_finish and src not in can_finish:
                can_finish.add(src)
                changed = True
    return seen, fired, can_finish


def oracle_playout(net, n_traces, max_steps=200, seed=0, p_drop=0.0, p_dup=0.0):
    """(case id, events) pairs of seeded uniform random walks over markings.

    Each step tests every transition against the current marking, picks one
    of the enabled ones (in transition id order) with rng.choice and fires
    it; walks that miss the final marking within max_steps are retried. Then
    each event is dropped with probability p_drop, and a kept one duplicated
    with probability p_dup. The draws are the same as the package's playout,
    so equal seeds must give equal logs."""
    rng = random.Random(seed)
    places = tuple(sorted(net.places))
    pre, post = _structure(net)
    m0 = tuple(net.initial_marking.get(p, 0) for p in places)
    mf = tuple(net.final_marking.get(p, 0) for p in places)
    order = sorted(net.transitions)
    traces = []
    while len(traces) < n_traces:
        key, events = m0, []
        for _ in range(max_steps):
            if key == mf:
                break
            t = rng.choice([t for t in order if _enabled_key(key, places, pre[t])])
            key = _fire_key(key, places, pre[t], post[t])
            if net.labels[t] is not None:
                events.append(net.labels[t])
        if key != mf:
            continue
        noisy = []
        for ev in events:
            if rng.random() < p_drop:
                continue
            noisy.append(ev)
            if rng.random() < p_dup:
                noisy.append(ev)
        traces.append((f"c{len(traces) + 1}", tuple(noisy)))
    return traces


def oracle_auc(labels, scores):
    """AUC as the Mann-Whitney pair statistic: wins plus half ties over all
    anomalous/normal pairs."""
    pos = [s for l, s in zip(labels, scores) if l == "anomalous"]
    neg = [s for l, s in zip(labels, scores) if l == "normal"]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def _min_max(x, mins, maxs):
    ranges = np.where(maxs > mins, maxs - mins, 1.0)
    return np.clip((x - mins) / ranges, -0.5, 1.5)


def oracle_score(det, values):
    """Anomaly score of one diagnoses row, given as floats in det.columns
    order, computed from that row alone: 1 - fitness for ft, the distance to
    the nearest core for dbscan, the mean squared reconstruction error of a
    one-row forward pass for ae. Features are min-max normalized with the
    detector's statistics and clamped to [-0.5, 1.5]."""
    vec = np.asarray(values, dtype=float)
    if det.kind == "ft":
        return 1.0 - float(vec[det.columns.index("fitness")])
    vec = _min_max(vec, det.mins, det.maxs)
    if det.kind == "dbscan":
        diffs = det.state["cores"] - vec
        return float(np.sqrt((diffs * diffs).sum(axis=1)).min())
    out = vec[None, :]
    last = len(det.state["weights"]) - 1
    for i, (w, b) in enumerate(zip(det.state["weights"], det.state["biases"])):
        out = out @ w + b
        if i < last:
            out = np.tanh(out)
    return float(np.mean((out - vec[None, :]) ** 2, axis=1)[0])


def oracle_train_ae(rows, layers, lr=1e-3, epochs=500, seed=0):
    """(weights, biases, loss history) of the autoencoder trained on rows.

    The rows are min-max normalized with their own statistics and clamped to
    [-0.5, 1.5]. Glorot-uniform weights and zero biases are drawn layer by
    layer from np.random.default_rng(seed); hidden layers apply tanh and the
    output layer is linear. Each epoch is one full-batch step of Adam on the
    mean squared reconstruction error, updating every weight and bias array
    on its own. A non-finite loss raises DetectError naming its epoch.
    """
    x = np.asarray(rows, dtype=float)
    x = _min_max(x, x.min(axis=0), x.max(axis=0))
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layers[:-1], layers[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    mw = [np.zeros_like(w) for w in weights]
    vw = [np.zeros_like(w) for w in weights]
    mb = [np.zeros_like(b) for b in biases]
    vb = [np.zeros_like(b) for b in biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    last = len(weights) - 1
    history = []
    for step in range(1, epochs + 1):
        acts = [x]
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = acts[-1] @ w + b
            acts.append(z if i == last else np.tanh(z))
        diff = acts[-1] - x
        loss = float(np.mean(diff * diff))
        if not math.isfinite(loss):
            raise DetectError(f"autoencoder training diverged at epoch {step} "
                              "(non-finite loss); lower the learning rate")
        history.append(loss)
        delta = 2.0 * diff / diff.size
        gw = [None] * len(weights)
        gb = [None] * len(biases)
        for i in range(last, -1, -1):
            gw[i] = acts[i].T @ delta
            gb[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ weights[i].T) * (1.0 - acts[i] * acts[i])
        c1 = 1.0 - beta1 ** step
        c2 = 1.0 - beta2 ** step
        for i in range(len(weights)):
            mw[i] = beta1 * mw[i] + (1 - beta1) * gw[i]
            vw[i] = beta2 * vw[i] + (1 - beta2) * gw[i] * gw[i]
            weights[i] = weights[i] - lr * (mw[i] / c1) / (np.sqrt(vw[i] / c2) + eps)
            mb[i] = beta1 * mb[i] + (1 - beta1) * gb[i]
            vb[i] = beta2 * vb[i] + (1 - beta2) * gb[i] * gb[i]
            biases[i] = biases[i] - lr * (mb[i] / c1) / (np.sqrt(vb[i] / c2) + eps)
    return weights, biases, tuple(history)


def oracle_fit_dbscan(rows, min_pts=4, eps=None):
    """(eps, core rows, cluster count) of DBSCAN over every training row.

    The rows are min-max normalized with their own statistics and clamped to
    [-0.5, 1.5]. The full (n, n) distance matrix is built in one broadcast;
    eps, when not given, is the 90th percentile of each row's distance to
    its min_pts-th nearest other row; core rows keep their training order;
    clusters are the connected components of the core-to-core eps graph.
    """
    x = np.asarray(rows, dtype=float)
    x = _min_max(x, x.min(axis=0), x.max(axis=0))
    n = x.shape[0]
    d = x[:, None, :] - x[None, :, :]
    dist = np.sqrt((d * d).sum(axis=2))
    if eps is None:
        if n <= min_pts:
            raise ValueError(f"need more than {min_pts} rows")
        kdist = np.sort(dist + np.diag([np.inf] * n), axis=1)[:, min_pts - 1]
        eps = float(np.percentile(kdist, 90.0))
    neighbor_counts = (dist <= eps).sum(axis=1)  # self included
    core_mask = neighbor_counts >= min_pts
    if not core_mask.any():
        raise ValueError("no core points")
    cores = x[core_mask]
    core_dist = dist[np.ix_(core_mask, core_mask)]
    m = cores.shape[0]
    labels = [-1] * m
    n_clusters = 0
    for i in range(m):
        if labels[i] != -1:
            continue
        stack = [i]
        labels[i] = n_clusters
        while stack:
            cur = stack.pop()
            for j in np.nonzero(core_dist[cur] <= eps)[0]:
                if labels[j] == -1:
                    labels[j] = n_clusters
                    stack.append(j)
        n_clusters += 1
    return float(eps), cores, n_clusters
