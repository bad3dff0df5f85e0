"""One-class detectors over diagnoses rows.

All detectors train on normal traces only and share the same protocol: learn
on the training rows, score the validation rows, and set the decision
threshold at a configurable percentile (default 95) of those validation
scores. A row is classified anomalous when its score is strictly above the
threshold. Higher scores mean more anomalous.

  ft      score = 1 - fitness; no learned state beyond the threshold
  dbscan  density model: core points of the training rows; score = Euclidean
          distance to the nearest core point. It fits on the distinct
          training rows weighted by their multiplicity and scores against the
          distinct cores, so its memory is O(distinct rows²), not O(rows²).
  ae      autoencoder: small tanh multilayer perceptron trained to reconstruct
          training rows; score = mean squared reconstruction error. It trains
          by full-batch Adam on buffers allocated once per training call, so
          an epoch writes its activations, gradients and moments in place.
          The trainer runs a stack of S autoencoders at once, one seed and
          one training matrix per slice, with stacked matmuls and one Adam
          update for all of them; train_group trains a group of seeds so,
          and train is a group of one. Each slice's bits equal those of a
          stack of that slice alone. ae_gradient_check runs the same
          loss-and-gradient pass on a stack of one, and scoring the same
          forward routine.

Feature rows are min-max normalized per column with statistics learned on the
training rows (a constant column maps its training values to 0, and deviating
values keep their offset), then clamped to [-0.5, 1.5]. ft ignores the
normalization and reads the fitness column directly.

score_matrix is the one scorer and classify the one decision rule. A score
depends on its row alone, the same bits in any batch, so each distinct row
is scored once. The ae scores of a block of rows come from one stacked
matmul in which each row is its own (1, k) product, the same product a
one-row call runs, so no row's bits depend on the rows beside it.

Distinct rows are found by hashing each row's bytes (_distinct_rows), which
lists them in order of first occurrence rather than sorted as np.unique
does. No output depends on that order: a score depends on its row alone,
and DBSCAN's k-distances, eps percentile, core mask and cluster count are
the same for any order of its distinct rows.

The initial ae weights are the stream np.random.default_rng(seed) gives, and
every threshold and DBSCAN eps is np.percentile's default linear
interpolation, both reproduced bit for bit in this module (_Stream,
_percentile), so training imports neither numpy.random nor numpy.ma.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .diagnoses import DiagnosesMatrix
from .errors import DetectError, _fields, _lines

# The training parameters each detector kind accepts.
_PARAMS = {"ft": (), "dbscan": ("min_pts", "eps"), "ae": ("layers", "lr", "epochs")}
DETECTOR_KINDS = tuple(_PARAMS)
# The percentile of the validation scores a threshold sits at.
DEFAULT_QUANTILE = 95.0

_MAGIC = "confmon-detector v1"

DBSCAN_MIN_PTS = 4
DBSCAN_EPS_QUANTILE = 90.0
AE_LEARNING_RATE = 1e-3
AE_EPOCHS = 500
MIN_TRAIN_ROWS = 5


class Detector:
    """Trained detector: kind, feature schema, normalization, model state,
    and the decision threshold."""

    def __init__(self, kind, columns, mins, maxs, threshold, quantile, seed, model_id,
                 state=None):
        self.kind = kind
        self.columns = tuple(columns)
        self.mins = np.asarray(mins, dtype=float)
        self.maxs = np.asarray(maxs, dtype=float)
        self.threshold = float(threshold)
        self.quantile = float(quantile)
        self.seed = int(seed)
        self.model_id = model_id
        self.state = state or {}


def _normalize(mins: np.ndarray, maxs: np.ndarray, x: np.ndarray) -> np.ndarray:
    ranges = np.where(maxs > mins, maxs - mins, 1.0)
    return np.clip((x - mins) / ranges, -0.5, 1.5)


def default_ae_layers(d: int) -> tuple[int, ...]:
    """Symmetric bottleneck: d, d/2, d/4 (min 2), d/2, d, halves rounded up."""
    half = math.ceil(d / 2)
    quarter = max(2, math.ceil(d / 4))
    return (d, half, quarter, half, d)


# -- autoencoder ------------------------------------------------------------


def _count(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise DetectError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _positive(name: str, value) -> float:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value > 0)):
        raise DetectError(f"{name} must be a finite number > 0, got {value!r}")
    return float(value)


def _ae_layers(sizes, width: int | None = None) -> tuple[int, ...]:
    """The layer sizes as a tuple of ints; DetectError unless there are at
    least two, each is an integer >= 1 and, for a given width, the first
    and last are width."""
    try:
        layers = tuple(sizes)
    except TypeError:
        raise DetectError(
            f"autoencoder layers must be a sequence of sizes, got {sizes!r}") from None
    if len(layers) < 2:
        raise DetectError(f"autoencoder layers need at least input and output sizes, got {layers}")
    layers = tuple(_count("autoencoder layer size", s) for s in layers)
    if width is not None and (layers[0] != width or layers[-1] != width):
        raise DetectError(f"autoencoder layers {layers} do not match {width} feature columns")
    return layers


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


class _Stream:
    """The doubles np.random.default_rng(seed) draws, bit for bit, without
    importing numpy.random: the seed's 32-bit words, low first, mixed into a
    pool of four as SeedSequence mixes them; four 64-bit words of its
    generate_state seeding PCG64 XSL-RR 128/64 as numpy seeds it; each double
    (next64 >> 11) * 2**-53."""

    def __init__(self, seed):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"expected a non-negative seed, got {seed}")
        words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        mult = 0x43B0D7E5

        def hashmix(value, scale=0x931E8875):
            nonlocal mult
            value ^= mult
            mult = mult * scale & _M32
            value = value * mult & _M32
            return value ^ value >> 16

        def mix(x, y):
            x = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return x ^ x >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        mult = 0x8B51F9DD  # generate_state(4, uint64) hashes the pool afresh
        gen = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
        gen = [gen[i] | gen[i + 1] << 32 for i in range(0, 8, 2)]
        # the state from words 0-1, the increment from 2-3, high word first
        self.inc = (gen[2] << 65 | gen[3] << 1 | 1) & _M128
        self.state = 0
        self._step()
        self.state = (self.state + (gen[0] << 64 | gen[1])) & _M128
        self._step()

    def _step(self) -> None:
        self.state = (self.state * 0x2360ED051FC65DA44385DF649FCCF645 + self.inc) & _M128

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """low + (high - low) * u for the next math.prod(size) doubles u,
        filled in C order, as Generator.uniform draws them."""
        span, out = high - low, []
        for _ in range(math.prod(size)):
            self._step()
            word, rot = (self.state >> 64 ^ self.state) & _M64, self.state >> 122
            word = (word >> rot | word << (64 - rot)) & _M64
            out.append(low + span * ((word >> 11) * 2.0 ** -53))
        return np.array(out).reshape(size)


def _percentile(values, q: float) -> float:
    """np.percentile(values, q) with its default linear method, bit for bit,
    without the np.unique call through which np.percentile imports numpy.ma.
    The values are partitioned at the indices numpy partitions them at, so
    ties of -0.0 and 0.0 land where numpy puts them; NaN in gives NaN out."""
    s = np.asarray(values, dtype=float).reshape(-1)
    index = (len(s) - 1) * (q / 100)
    # numpy takes the top value for an index at or past it, as index -1
    below = -1 if index >= len(s) - 1 else math.floor(index)
    above = -1 if below == -1 else below + 1
    s = np.partition(s, sorted({0, -1, below, above}))
    if math.isnan(s[-1]):
        return float(s[-1])
    a, b, t = float(s[below]), float(s[above]), index - below
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _ae_init(layers, rng) -> tuple[list, list]:
    weights = []
    biases = []
    for fan_in, fan_out in zip(layers[:-1], layers[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _split(flat: np.ndarray, shapes) -> list:
    """Consecutive views of the flat array, one of each given shape."""
    views, lo = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[lo:lo + size].reshape(shape))
        lo += size
    return views


def _ae_hidden(weights, lead: tuple) -> tuple[np.ndarray, list]:
    """One flat array for the activations of every hidden layer over rows of
    leading shape lead, and each layer's view into it, in layer order."""
    shapes = [lead + (w.shape[-1],) for w in weights[:-1]]
    flat = np.empty(sum(math.prod(s) for s in shapes))
    return flat, _split(flat, shapes)


def _ae_forward(weights, biases, x: np.ndarray, hidden, out: np.ndarray) -> None:
    """Writes the tanh activations of each hidden layer into its array of
    hidden and the linear output layer into out. The products are matmuls,
    so a stack of rows of shape (rows, 1, k) runs one (1, k) product per
    row."""
    a = x
    for w, b, h in zip(weights, biases, hidden):
        np.matmul(a, w, out=h)
        h += b
        np.tanh(h, out=h)
        a = h
    np.matmul(a, weights[-1], out=out)
    out += biases[-1]


def _ae_pass(weights, biases, x: np.ndarray, grads_w, grads_b):
    """The loss-and-gradient pass over a stack x of shape (S, n, d), one
    set of rows per slice, with weights of shape (S, fan_in, fan_out) and
    biases (S, 1, fan_out). Every array it uses is allocated here, once.
    Returns a function that runs the pass on the current weights and biases:
    it writes into grads_w and grads_b, arrays of the same shapes, each
    slice's gradients of that slice's mean squared reconstruction error
    (averaged over its n * d entries), and returns those errors as an (S,)
    array it overwrites on the next run. Each product is a stacked matmul,
    one product per slice, the same a one-slice stack runs."""
    hidden_flat, hidden = _ae_hidden(weights, x.shape[:-1])
    slope_flat = np.empty_like(hidden_flat)  # tanh' = 1 - a*a of each hidden activation
    slopes = _split(slope_flat, [h.shape for h in hidden])
    deltas = _split(np.empty_like(hidden_flat), [h.shape for h in hidden])
    out = np.empty_like(x)  # the output, then its difference from x, then its delta
    squares = np.empty_like(x)
    slice_squares = squares.reshape(len(x), -1)
    losses = np.empty(len(x))
    entries = slice_squares.shape[1]
    inputs_t = [a.swapaxes(1, 2) for a in [x] + hidden]
    weights_t = [w.swapaxes(1, 2) for w in weights]

    # Each bias gradient sums its delta's rows in the order the reference's
    # delta.sum(axis=0) does. Over k >= 2 columns numpy adds row after row,
    # which einsum's loop down each column repeats at a fraction of the
    # per-row cost; a one-wide layer's column is one contiguous run, which
    # numpy sums pairwise, so that layer keeps numpy's contiguous reduction.
    bias_rows = [b[:, 0] for b in grads_b]

    def run() -> np.ndarray:
        _ae_forward(weights, biases, x, hidden, out)
        np.multiply(hidden_flat, hidden_flat, out=slope_flat)
        np.subtract(1.0, slope_flat, out=slope_flat)
        np.subtract(out, x, out=out)
        np.multiply(out, out, out=squares)
        np.add.reduce(slice_squares, axis=1, out=losses)
        np.divide(losses, entries, out=losses)
        np.multiply(out, 2.0, out=out)
        np.divide(out, entries, out=out)
        delta = out
        for i in range(len(weights) - 1, -1, -1):
            np.matmul(inputs_t[i], delta, out=grads_w[i])
            if delta.shape[-1] > 1:
                np.einsum("snk->sk", delta, out=bias_rows[i])
            else:
                np.add.reduce(delta, axis=1, out=bias_rows[i])
            if i > 0:
                np.matmul(delta, weights_t[i], out=deltas[i - 1])
                delta = np.multiply(deltas[i - 1], slopes[i - 1], out=deltas[i - 1])
        return losses

    return run


def _ae_errors(weights, biases, x: np.ndarray) -> np.ndarray:
    """Mean squared reconstruction error of each row of x. The rows run as a
    stack of (1, k) products, each the same product a one-row call runs, so
    a row's error does not depend on the other rows."""
    x = x[:, None, :]
    out = np.empty(x.shape)
    _ae_forward(weights, biases, x, _ae_hidden(weights, x.shape[:-1])[1], out)
    return np.mean((out - x) ** 2, axis=-1)[:, 0]


def _ae_params(layers, streams):
    """(theta, g, weights, biases, grad_w, grad_b): one flat parameter vector
    theta for a stack of autoencoders, one slice per stream, its gradient g
    alike, each layer's weights of all slices as one (S, fan_in, fan_out)
    view into theta and its biases as one (S, 1, fan_out) view, and the
    gradients' views into g. Slice i holds the initial weights drawn from
    streams[i] (_ae_init)."""
    shapes = [(len(streams),) + shape for fan_in, fan_out in zip(layers[:-1], layers[1:])
              for shape in ((fan_in, fan_out), (1, fan_out))]
    theta = np.empty(sum(math.prod(shape) for shape in shapes))
    g = np.zeros_like(theta)
    views, grads = _split(theta, shapes), _split(g, shapes)
    for i, stream in enumerate(streams):
        init_w, init_b = _ae_init(layers, stream)
        for view, value in zip(views, [a for pair in zip(init_w, init_b) for a in pair]):
            view[i] = value
    return theta, g, views[0::2], views[1::2], grads[0::2], grads[1::2]


def _train_ae(x: np.ndarray, layers, lr: float, epochs: int, seeds) -> list:
    """Trains one autoencoder per slice of the stack x, of shape (S, n, d),
    the i-th from initial weights drawn from the stream
    np.random.default_rng(seeds[i]) gives (_Stream).
    Returns a (weights, biases, loss history) triple per slice, each
    bit-identical to what a stack of that slice alone gives.

    Adam on one flat parameter vector theta, with its gradient g as a flat
    vector alike and the moments m and v as the two rows of one (2, P)
    array. Each layer's weights of all slices are one (S, fan_in, fan_out)
    view into theta and its biases one (S, 1, fan_out) view, their gradients
    views into g, so each step is one elementwise update of both moments of
    every slice at once, with the same operations on every element as a
    per-array update. Every array an epoch touches, the loss-and-gradient
    pass's included, is allocated once per call and written in place; the
    pass and parameter layout (_ae_params) are the ones ae_gradient_check
    runs, and its forward routine the one scoring runs."""
    stack = len(x)
    theta, g, weights, biases, grad_w, grad_b = _ae_params(layers, [_Stream(s) for s in seeds])
    run = _ae_pass(weights, biases, x, grad_w, grad_b)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    betas = np.array([[beta1], [beta2]])
    rates = np.array([[1 - beta1], [1 - beta2]])
    corrections = np.empty((2, 1))
    moments = np.zeros((2, theta.size))  # m, v
    scaled = np.empty_like(moments)
    m_hat, v_hat = scaled
    history = np.empty((epochs, stack))
    # A diverging rate overflows before the loss turns non-finite; the named
    # DetectError below reports that, not numpy's warnings. errstate only
    # changes what is reported, never a computed bit.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, epochs + 1):
            losses = run()
            if not np.isfinite(losses).all():
                seed = "" if stack == 1 else f" of seed {seeds[np.argmin(np.isfinite(losses))]}"
                raise DetectError(f"autoencoder training{seed} diverged at epoch {step} "
                                  "(non-finite loss); lower the learning rate")
            history[step - 1] = losses
            corrections[:, 0] = (1.0 - beta1 ** step, 1.0 - beta2 ** step)
            # m = beta1*m + (1-beta1)*g;  v = beta2*v + ((1-beta2)*g)*g
            moments *= betas
            np.multiply(g, rates, out=scaled)
            v_hat *= g
            moments += scaled
            # theta -= lr*(m/c1) / (sqrt(v/c2) + eps)
            np.divide(moments, corrections, out=scaled)
            np.sqrt(v_hat, out=v_hat)
            v_hat += eps
            m_hat *= lr
            m_hat /= v_hat
            theta -= m_hat
    return [([w[i].copy() for w in weights], [b[i, 0].copy() for b in biases],
             tuple(history[:, i].tolist())) for i in range(stack)]


def ae_gradient_check(layer_sizes, seed: int = 0, step: float = 1e-5) -> float:
    """Max relative error between analytic and central finite-difference
    gradients on random parameters and inputs, both from the parameter
    layout and pass training runs, on a stack of one. Small (< 1e-4) when
    the backpropagation is implemented correctly. The parameters and then
    the inputs are drawn from the stream np.random.default_rng(seed) gives,
    so the seed must be an integer >= 0."""
    layers = _ae_layers(layer_sizes)
    step = _positive("gradient check step", step)
    check_seeds("ae", [seed])
    rng = _Stream(seed)
    theta, g, weights, biases, grad_w, grad_b = _ae_params(layers, [rng])
    x = rng.uniform(0.0, 1.0, size=(1, 3, layers[0]))
    run = _ae_pass(weights, biases, x, grad_w, grad_b)
    run()
    analytic = g.copy()
    worst = 0.0
    for j in range(theta.size):
        orig = theta[j]
        theta[j] = orig + step
        hi = float(run()[0])
        theta[j] = orig - step
        lo = float(run()[0])
        theta[j] = orig
        fd = (hi - lo) / (2.0 * step)
        rel = abs(analytic[j] - fd) / max(abs(analytic[j]), abs(fd), 1e-6)
        worst = max(worst, rel)
    return worst


# Elements of one block of temporaries: rows are taken as many at a time as
# fit, so temporaries stay bounded whatever the row count and widths are.
_BLOCK_ELEMENTS = 1 << 16


def _row_blocks(n: int, per_row: int):
    """Slices covering range(n), each of as many rows (at least one) as keep
    rows * per_row elements within _BLOCK_ELEMENTS."""
    step = max(1, _BLOCK_ELEMENTS // max(1, per_row))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct, inverse, counts) of the rows of the float matrix x: equal
    by value to np.unique(x, axis=0, return_inverse=True,
    return_counts=True), but with the distinct rows in order of first
    occurrence. distinct[inverse] equals x and counts[j] is how often
    distinct[j] occurs. Rows are grouped by a dict over their bytes, taken
    after adding 0.0 so that -0.0 and +0.0 share a key; np.unique sorts the
    rows instead, comparing them field by field."""
    x = np.ascontiguousarray(x) + 0.0
    keys = x.view((np.void, x.itemsize * x.shape[1])).ravel().tolist()
    index: dict = {}
    inverse = np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.intp)
    distinct = np.empty((len(index), x.shape[1]))
    distinct[inverse] = x  # copies of a row write the same bytes
    return distinct, inverse, np.bincount(inverse, minlength=len(index))


# -- dbscan -----------------------------------------------------------------


def _pairwise(a: np.ndarray, b: np.ndarray, nearest: bool = False) -> np.ndarray:
    """Euclidean distances between the rows of a and b as an (n, m) array; with
    nearest, only each row's distance to its nearest row of b, as an (n,)
    array, without ever holding the (n, m) matrix."""
    out = np.empty(a.shape[0] if nearest else (a.shape[0], b.shape[0]))
    for rows in _row_blocks(a.shape[0], b.size):
        d = a[rows, None, :] - b[None, :, :]
        dist = np.sqrt((d * d).sum(axis=2))
        out[rows] = dist.min(axis=1) if nearest else dist
    return out


def _fit_dbscan(x: np.ndarray, min_pts: int, eps):
    """(eps, core rows in training-row order, cluster count) of DBSCAN over
    the rows of x. It runs on the distinct rows weighted by how often each
    occurs, which gives the same result as over every row: copies of a row
    share its neighbours and lie at distance 0 from each other. The distinct
    rows come from _distinct_rows in order of first occurrence, and no
    result depends on that order: each k-distance is a distance value, the
    same whichever order argsort gives tied distances; the eps percentile
    and the weighted neighbour counts are sums and order statistics over the
    rows; and the cluster count is a count of connected components."""
    if eps is not None and not (isinstance(eps, numbers.Real) and math.isfinite(eps)):
        raise DetectError(f"dbscan eps must be a finite number, got {eps!r}")
    n = x.shape[0]
    distinct, inverse, counts = _distinct_rows(x)
    dist = _pairwise(distinct, distinct)
    if eps is None:
        if n <= min_pts:
            raise DetectError(
                f"need more than {min_pts} training rows to estimate epsilon, got {n}")
        # distance to the min_pts-th nearest other row, 90th percentile over
        # rows: the smallest distance within which more than min_pts rows
        # lie, counting the row itself and its copies at distance 0
        order = np.argsort(dist, axis=1)
        reached = np.cumsum(counts[order], axis=1) > min_pts
        rows = np.arange(len(counts))
        kdist = dist[rows, order[rows, reached.argmax(axis=1)]]
        eps = _percentile(np.repeat(kdist, counts), DBSCAN_EPS_QUANTILE)
    core = (dist <= eps) @ counts >= min_pts  # weighted neighbour counts, self included
    if not core.any():
        raise DetectError(
            f"dbscan found no core points (eps={eps:g}, min_pts={min_pts}); increase epsilon")
    # cluster count: connected components of the core-to-core eps graph
    core_dist = dist[np.ix_(core, core)]
    m = core_dist.shape[0]
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
    return float(eps), x[core[inverse]], n_clusters


# -- training / scoring ------------------------------------------------------


def check_train_rows(n: int) -> None:
    """DetectError unless n training rows are enough to fit a detector."""
    if n < MIN_TRAIN_ROWS:
        raise DetectError(f"need at least {MIN_TRAIN_ROWS} training rows, got {n}")


def check_quantile(quantile) -> None:
    """DetectError unless the threshold percentile is in [0, 100]."""
    if not 0.0 <= quantile <= 100.0:
        raise DetectError(f"quantile must be in [0, 100], got {quantile}")


def check_seeds(kind: str, seeds) -> None:
    """DetectError unless every seed suits the kind: an autoencoder draws its
    initial weights from the stream np.random.default_rng(seed) gives, so an
    ae seed must be an integer >= 0. The other kinds draw nothing and take
    any seed."""
    if kind != "ae":
        return
    bad = next((s for s in seeds if not isinstance(s, numbers.Integral) or s < 0), None)
    if bad is not None:
        raise DetectError(f"an ae detector needs seeds that are integers >= 0, got seed {bad!r}")


def train(kind: str, train_d: DiagnosesMatrix, val_d: DiagnosesMatrix,
          params: dict | None = None, *, quantile: float = DEFAULT_QUANTILE,
          seed: int = 0) -> Detector:
    """Fit a detector on training diagnoses and set its threshold at the
    given percentile of the validation scores."""
    return train_group(kind, [(train_d, val_d)], params, quantile=quantile, seeds=[seed])[0]


def train_group(kind: str, pairs, params: dict | None = None, *,
                quantile: float = DEFAULT_QUANTILE, seeds) -> list[Detector]:
    """One detector per (training, validation) pair of diagnoses, the i-th
    fitted with seeds[i] and the same parameters, each equal to the one
    train fits on that pair and seed alone. The ae detectors of a group
    train as one stack, so their training matrices must share one shape."""
    if kind not in DETECTOR_KINDS:
        raise DetectError(f"unknown detector kind {kind!r}; expected one of {DETECTOR_KINDS}")
    pairs, seeds = list(pairs), list(seeds)
    if not pairs or len(pairs) != len(seeds):
        raise DetectError(f"need one seed per training pair and at least one pair, "
                          f"got {len(pairs)} pairs and {len(seeds)} seeds")
    check_seeds(kind, seeds)
    for train_d, val_d in pairs:
        if train_d.columns != val_d.columns:
            raise DetectError("training and validation diagnoses have different columns")
        check_train_rows(len(train_d))
        if len(val_d) == 0:
            raise DetectError("validation diagnoses are empty")
    check_quantile(quantile)
    params = params or {}
    unknown = sorted(set(params) - set(_PARAMS[kind]))
    if unknown:
        raise DetectError(f"unknown {kind} parameters: {unknown}")

    x_trains = [train_d.to_array() for train_d, _ in pairs]
    bounds = [(x.min(axis=0), x.max(axis=0)) for x in x_trains]
    states: list = [{} for _ in pairs]
    if kind == "dbscan":
        min_pts = _count("dbscan min_pts", params.get("min_pts", DBSCAN_MIN_PTS))
        eps = params.get("eps")
        for state, x, (mins, maxs) in zip(states, x_trains, bounds):
            fit_eps, cores, n_clusters = _fit_dbscan(_normalize(mins, maxs, x), min_pts, eps)
            state.update(eps=fit_eps, min_pts=min_pts, cores=cores, n_clusters=n_clusters)
    elif kind == "ae":
        width = len(pairs[0][0].columns)
        layers = _ae_layers(params.get("layers", default_ae_layers(width)), width)
        lr = _positive("autoencoder lr", params.get("lr", AE_LEARNING_RATE))
        epochs = _count("autoencoder epochs", params.get("epochs", AE_EPOCHS))
        shapes = sorted({x.shape for x in x_trains})
        if len(shapes) > 1:
            raise DetectError(f"an autoencoder group trains one stack and needs training "
                              f"matrices of one shape, got {shapes}")
        xn = np.stack([_normalize(mins, maxs, x) for x, (mins, maxs) in zip(x_trains, bounds)])
        for state, (weights, biases, history) in zip(
                states, _train_ae(xn, layers, lr, epochs, seeds)):
            state.update(layers=layers, weights=weights, biases=biases, loss_history=history)

    dets = []
    for (train_d, val_d), (mins, maxs), state, seed in zip(pairs, bounds, states, seeds):
        det = Detector(kind, train_d.columns, mins, maxs, 0.0, quantile, seed,
                       train_d.model_id, state)
        det.threshold = _percentile(score_matrix(det, val_d), quantile)
        dets.append(det)
    return dets


def score_matrix(det: Detector, diag: DiagnosesMatrix) -> np.ndarray:
    """Anomaly score of every diagnoses row; higher means more anomalous."""
    if diag.columns != det.columns:
        raise DetectError("diagnoses columns do not match detector columns")
    if det.kind == "ft":
        return 1.0 - diag.fitness
    distinct, inverse, _ = _distinct_rows(diag.to_array())
    xn = _normalize(det.mins, det.maxs, distinct)
    if det.kind == "dbscan":
        # copies of a core cannot change a row's nearest distance
        scores = _pairwise(xn, _distinct_rows(det.state["cores"])[0], nearest=True)
    else:
        # a block holds every layer's activations for each of its rows
        weights, biases = det.state["weights"], det.state["biases"]
        scores = np.empty(len(xn))
        for rows in _row_blocks(len(xn), sum(det.state["layers"])):
            scores[rows] = _ae_errors(weights, biases, xn[rows])
    return scores[inverse]


def classify(det: Detector, scores) -> list[str]:
    """"anomalous" where a score is strictly above the threshold, else "normal"."""
    return np.where(np.asarray(scores) > det.threshold, "anomalous", "normal").tolist()


# -- serialization -----------------------------------------------------------


def _fmt_floats(values) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(values).reshape(-1))


def _parse_floats(text: str) -> np.ndarray:
    if not text:
        return np.array([])
    return np.array([float(v) for v in text.split(",")])


def _finite(name: str, value):
    if not np.all(np.isfinite(value)):
        raise DetectError(f"detector field {name!r} holds a non-finite value")
    return value


def save_detector(det: Detector) -> str:
    """Text serialization; load_detector restores a detector with identical
    scores (float values are written with full round-trip precision)."""
    lines = [_MAGIC,
             f"kind={det.kind}",
             f"model={det.model_id}",
             f"seed={det.seed}",
             f"quantile={repr(det.quantile)}",
             f"threshold={repr(det.threshold)}",
             f"columns={','.join(det.columns)}",
             f"mins={_fmt_floats(det.mins)}",
             f"maxs={_fmt_floats(det.maxs)}"]
    if det.kind == "dbscan":
        cores = det.state["cores"]
        lines.append(f"eps={repr(float(det.state['eps']))}")
        lines.append(f"min_pts={det.state['min_pts']}")
        lines.append(f"n_clusters={det.state['n_clusters']}")
        lines.append(f"cores_shape={cores.shape[0]}x{cores.shape[1]}")
        for i in range(cores.shape[0]):
            lines.append(f"core{i}={_fmt_floats(cores[i])}")
    elif det.kind == "ae":
        lines.append(f"layers={','.join(str(s) for s in det.state['layers'])}")
        for i, (w, b) in enumerate(zip(det.state["weights"], det.state["biases"])):
            lines.append(f"w{i}={_fmt_floats(w)}")
            lines.append(f"b{i}={_fmt_floats(b)}")
    return "\n".join(lines) + "\n"


def load_detector(text: str) -> Detector:
    """Parse a detector saved by save_detector: its header line, then
    key = value lines (errors._fields). Rejects unknown versions, incomplete
    files, a field save_detector does not write, non-finite numbers, and
    cores, layers, weights or biases whose shapes disagree with the columns
    or with each other."""
    lines = _lines(text.splitlines())
    _, head = next(lines, (None, None))
    if head != _MAGIC:
        raise DetectError(f"not a detector file (expected header {_MAGIC!r})")
    # key -> (line number, value); each field read is taken out
    fields = {key: (no, value) for no, key, value in _fields(lines, DetectError)}

    def field(name: str) -> str:
        return fields.pop(name)[1]

    def floats(name: str) -> np.ndarray:
        return _finite(name, _parse_floats(field(name)))

    def scalar(name: str) -> float:
        return _finite(name, float(field(name)))

    try:
        kind = field("kind")
        if kind not in DETECTOR_KINDS:
            raise DetectError(f"unknown detector kind {kind!r}")
        columns = tuple(field("columns").split(","))
        det = Detector(kind, columns, floats("mins"), floats("maxs"),
                       scalar("threshold"), scalar("quantile"),
                       int(field("seed")), field("model"))
        if len(det.mins) != len(columns) or len(det.maxs) != len(columns):
            raise DetectError("normalization vectors do not match the column count")
        if kind == "dbscan":
            rows, cols = (int(v) for v in field("cores_shape").split("x"))
            if rows < 1 or cols != len(columns):
                raise DetectError(f"dbscan cores of shape {rows}x{cols} do not match "
                                  f"{len(columns)} feature columns")
            cores = np.array([floats(f"core{i}") for i in range(rows)])
            cores = cores.reshape(rows, cols)
            det.state = {"eps": scalar("eps"), "min_pts": int(field("min_pts")),
                         "n_clusters": int(field("n_clusters")), "cores": cores}
        elif kind == "ae":
            layers = _ae_layers((int(s) for s in field("layers").split(",")), len(columns))
            weights = []
            biases = []
            for i, (fan_in, fan_out) in enumerate(zip(layers[:-1], layers[1:])):
                weights.append(floats(f"w{i}").reshape(fan_in, fan_out))
                biases.append(floats(f"b{i}"))
                if len(biases[-1]) != fan_out:
                    raise DetectError(f"autoencoder bias b{i} has {len(biases[-1])} values, "
                                      f"layer {i + 1} has {fan_out} units")
            det.state = {"layers": layers, "weights": weights, "biases": biases,
                         "loss_history": ()}
    except KeyError as exc:
        raise DetectError(f"detector file is missing field {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise DetectError(f"detector file has a malformed value: {exc}") from exc
    for key, (no, _) in fields.items():  # the first field left over
        raise DetectError(f"line {no}: unknown field {key!r}")
    return det
