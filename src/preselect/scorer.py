"""Correlation-map scoring model and its two-phase trainer.

A correlation map is reduced to a confidence vector by two pooling
branches (a local max-pooled average and a global normalized-rectified
average), then a small MLP (2C -> hidden -> 2) turns that vector into
existence logits. The global branch standardizes with ScoreModel.eps,
one constant that every forward, the backward and a checkpoint read, so
a reloaded model scores as it did. One closed form, _l4_vectors, gives
the float32 vector of every prototype x query map from the query's
per-channel statistics and the prototype, without forming the map:
query_scores runs the MLP on those vectors in float32, the TPF phase in
float64. A train call draws every epoch's (episode, class) pairs before
the first epoch, then builds one table of rows for the pairs drawn: their
vectors in TPF, their prototypes in JOINT. Only JOINT forms maps, the
fused ones, and scores a batch of them in one call (_map_loss: the
confidence vectors, then _mlp in float64), which loss_and_grads shares.
Backprop is written by hand: through the MLP, whose gradient is a
ScoreModel of the same four layers, and through both pooling branches
down to the input maps so the fusion projections can be trained
jointly. Each step writes its arrays into a work dict (_empty):
loss_and_grads passes a new one per call, and a JOINT train call one for
all its batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .episodes import (FEATURE_LEVELS, Episode, FusionProjector, _fuse, align_query,
                       prototype_matrices)
from .tensor_ops import FeatureMap, Level

HIDDEN_DIM = 512
_FLOAT32_MAX = float(np.finfo(np.float32).max)
POSITIVE = 1  # index of the "class is present" logit
GRAD_CLIP = 1.0  # largest global L2 norm of the scorer gradient in one SGD step


@dataclass
class ScoreModel:
    """Two affine layers mapping a 2C confidence vector to 2 logits."""

    w1: np.ndarray  # (hidden, 2C)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (2, hidden)
    b2: np.ndarray  # (2,)
    eps = 1e-5  # the global branch's standardization eps: a constant, not a field

    @property
    def layers(self) -> tuple[np.ndarray, ...]:
        """(w1, b1, w2, b2): the order of every walk over the layers."""
        return self.w1, self.b1, self.w2, self.b2

    @property
    def in_channels(self) -> int:
        return self.w1.shape[1] // 2

    @classmethod
    def init(cls, in_channels: int, hidden: int = HIDDEN_DIM,
             seed: int = 0) -> "ScoreModel":
        """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out))."""
        if hidden < 1:
            raise ValueError(f"hidden width must be >= 1, got {hidden}")
        rng = np.random.default_rng(seed)

        def layer(out_d, in_d):
            bound = np.sqrt(6.0 / (in_d + out_d))
            return rng.uniform(-bound, bound, (out_d, in_d)).astype(np.float32)

        w1, b1, w2, b2 = cls.shapes(in_channels, hidden)
        return cls(layer(*w1), np.zeros(b1, np.float32), layer(*w2), np.zeros(b2, np.float32))

    @staticmethod
    def shapes(in_channels: int, hidden: int) -> tuple[tuple[int, ...], ...]:
        return (hidden, 2 * in_channels), (hidden,), (2, hidden), (2,)  # w1, b1, w2, b2

    def __post_init__(self):
        hidden, width = self.w1.shape
        shapes = [a.shape for a in self.layers]
        if min(hidden, width) < 1 or width % 2 or shapes != list(self.shapes(width // 2, hidden)):
            raise ValueError(f"layer shapes {shapes} are not (h, 2C), (h,), (2, h), (2,) "
                             f"with a hidden width h >= 1 and C >= 1")

    def copy(self) -> "ScoreModel":
        return ScoreModel(*(a.copy() for a in self.layers))


# The arrays that one training step writes into, one byte buffer per name.
# A JOINT train call keeps one dict for all its batches, so that no batch
# allocates (and page-faults) its own float64 temporaries. Steps whose
# arrays are never live at the same time share a name.
_Work = dict[str, np.ndarray]


def _empty(work: _Work, name: str, shape: tuple[int, ...],
           dtype=np.float64) -> np.ndarray:
    """An uninitialised array of the given shape and dtype: the first bytes
    of work's buffer of that name, so that the last, shorter batch uses a
    prefix. A buffer is allocated at its name's first request, and again
    only for a larger one."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if len(work.get(name, ())) < size:
        work[name] = np.empty(size, np.uint8)
    return work[name][:size].view(dtype).reshape(shape)


def _confidence_vectors(x: np.ndarray, work: _Work
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Confidence vectors [local, global], (N, 2C) float64, of (N, C, H, W)
    float32 maps x, and the (N, C, 1) row mean and std that
    _confidence_backward takes. Local: channel mean of the 2x2 max-pooled
    map (an odd last row/column is dropped). Global: channel mean of the
    rectified map standardized by its mean and std + eps. Elementwise work
    is float32 with float64 accumulators; the mean and std are the bytes of
    x.mean and x.std with dtype=np.float64."""
    n, c, h, w = x.shape
    if h < 2 or w < 2:
        raise ValueError(f"max pooling needs spatial dims >= 2x2, got {h}x{w}")
    ph, pw = h // 2, w // 2
    t = x[:, :, : ph * 2, : pw * 2]
    pooled = np.maximum(t[..., ::2, ::2], t[..., ::2, 1::2],
                        out=_empty(work, "pooled", (n, c, ph, pw), np.float32))
    # The scratch arrays take the backward's "u", free until it starts.
    np.maximum(pooled, np.maximum(t[..., 1::2, ::2], t[..., 1::2, 1::2],
                                  out=_empty(work, "u", pooled.shape, np.float32)),
               out=pooled)
    v = np.empty((n, 2 * c))
    pooled.reshape(n, c, -1).mean(axis=2, dtype=np.float64, out=v[:, :c])
    flat = x.reshape(n, c, -1)
    d = _empty(work, "d", flat.shape)
    np.copyto(d, flat)
    mu = d.mean(axis=-1, keepdims=True)
    d -= mu
    np.square(d, out=d)
    sd = np.sqrt(d.sum(axis=-1, keepdims=True) / (h * w))
    z = np.subtract(flat, mu.astype(np.float32), out=_empty(work, "u", flat.shape, np.float32))
    z /= (sd + ScoreModel.eps).astype(np.float32)
    np.maximum(z, 0.0, out=z)
    z.mean(axis=2, dtype=np.float64, out=v[:, c:])
    return v, mu, sd


def _confidence_backward(x: np.ndarray, grad_v: np.ndarray, mu: np.ndarray, sd: np.ndarray,
                         work: _Work) -> np.ndarray:
    """Gradient of the confidence vectors w.r.t. their (N, C, H, W) float32
    maps x, given _confidence_vectors' row mean and std. grad_v is (N, 2C),
    local half first; returns (N, C, H, W) float64, one of work's arrays.
    Max-pool routes gradient to the first argmax in each window; the
    standardization Jacobian accounts for the mean and std terms."""
    n, ch, h, w = x.shape
    g = np.asarray(grad_v, dtype=np.float64)

    # Global branch: avg(relu(standardize)), on (n * C, H * W) rows; each
    # step is the float64 operation of the expression it stands for.
    rows = _empty(work, "d", (n * ch, h * w))
    np.copyto(rows, x.reshape(n * ch, h * w))
    rows -= mu.reshape(n * ch, 1)  # d
    sd = sd.reshape(n * ch, 1)
    s = sd + ScoreModel.eps
    u = np.divide(rows, s, out=_empty(work, "u", rows.shape))  # z
    positive = np.greater(u, 0, out=_empty(work, "positive", rows.shape, bool))
    np.multiply((g[:, ch:] / (h * w)).reshape(-1, 1), positive, out=u)  # dL/dz
    u_mean = u.mean(axis=1, keepdims=True)
    # Fusion is done with "wide", so its array holds u * d.
    ud_mean = np.multiply(u, rows, out=_empty(work, "wide", rows.shape)).mean(axis=1,
                                                                             keepdims=True)
    # d sd / dx_q = d_q / (h * w * sd); zero-variance channels contribute
    # nothing (z == 0 there, so u == 0 as well).
    sd_safe = np.where(sd > 0, sd, 1.0)
    u -= u_mean
    u /= s  # (u - u_mean) / s
    rows *= ud_mean
    rows /= sd_safe * s * s  # d * ud_mean / (sd_safe * s * s)
    u -= rows

    # Local branch, on a cell-major copy of the maps' 2x2 windows: a
    # window's first argmax is the first of its cells, in (dy, dx)
    # row-major order, that is >= every later one. It gets the share, and
    # the other cells get +0.0 (a multiply by a mask would give -0.0): the
    # share's bits ANDed with all ones or all zeros, a select without a
    # branch per cell. The global branch is done with "d" and "wide".
    ph, pw = h // 2, w // 2

    def cells(a):  # (2, 2, n, C, ph, pw) view of a's window cells
        return (a[:, :, : ph * 2, : pw * 2].reshape(n, ch, ph, 2, pw, 2)
                .transpose(3, 5, 0, 1, 2, 4))

    win = _empty(work, "d", (4, n, ch, ph, pw), x.dtype)
    np.copyto(win.reshape(2, 2, n, ch, ph, pw), cells(x))
    free, take, test = _empty(work, "positive", (3, n, ch, ph, pw), bool)
    free.fill(True)
    local = _empty(work, "wide", (4, n, ch, ph, pw))
    bits = local.view(np.int64)
    share = (g[:, :ch] / (ph * pw)).view(np.int64)[:, :, None, None]
    for i in range(4):
        np.copyto(take, free)
        for later in win[i + 1 :]:
            take &= np.greater_equal(win[i], later, out=test)
        np.subtract(0, take, out=bits[i], dtype=np.int64)
        bits[i] &= share
        free &= np.logical_not(take, out=test)
    grad_x = rows.reshape(x.shape)
    if h % 2 or w % 2:  # an odd last row or column gets 0.0 + u
        np.add(u.reshape(x.shape), 0.0, out=grad_x)
    np.add(local.reshape(2, 2, n, ch, ph, pw), cells(u.reshape(x.shape)), out=cells(grad_x))
    return grad_x


def _mlp(model: ScoreModel, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hidden, logits) for confidence vectors v (N, 2C), in v's precision.

    Both come back as (N, hidden) and (N, 2) views of arrays computed with
    the hidden units as rows: OpenBLAS multiplies w1 @ v.T about twice as
    fast as v @ w1.T for a few dozen vectors, with the same result. A v of
    the wrong width raises numpy's ValueError.
    """
    hid = model.w1.astype(v.dtype, copy=False) @ v.T
    hid += model.b1[:, None]
    np.maximum(hid, 0.0, out=hid)
    logits = model.w2.astype(v.dtype, copy=False) @ hid
    logits += model.b2[:, None]
    return hid.T, logits.T


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of (N, 2) logits, in float64."""
    logits = logits.astype(np.float64, copy=False)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _l4_vectors(q4: np.ndarray, protos: np.ndarray) -> np.ndarray:
    """The confidence vectors of the N correlation maps p * q of the
    (C, H, W) L4 query map q, without forming the maps. protos, a
    prototype_matrices output, holds the L4 prototypes p in its last C
    columns (callers build L4 alone); returns (N, 2C) computed in float64
    and stored in float32, the MLP's precision at inference.

    Each map's vector follows from four per-channel statistics of q: the
    means of its 2x2 max- and min-pooled maps (an odd last row/column is
    dropped from both), its spatial std sd, and g = mean relu(q - mu) for
    its spatial mean mu. Max-pooling commutes with a scale p >= 0 and turns
    into min-pooling for p < 0, so the local branch is p * mean maxpool(q)
    or p * mean minpool(q): the larger of the two, as mean maxpool >= mean
    minpool. Standardizing p * q gives sign(p) (q - mu) / (sd + eps / |p|),
    and the mean of relu(d) equals that of relu(-d) when d has zero mean,
    so the global branch is |p| g / (|p| sd + eps), which stays below 1/2.

    All work is float64 after one conversion. Mixed float32/float64
    reductions take numpy's buffered casting path, which costs more here
    than it saves when the query arrives with cold caches. ValueError if q
    is smaller than 2x2, or if a local entry would overflow float32; the
    correlation map would overflow too.
    """
    x = np.asarray(q4, dtype=np.float64)
    c, h, w = x.shape
    if h < 2 or w < 2:
        raise ValueError(f"max pooling needs spatial dims >= 2x2, got {h}x{w}")
    ph, pw = h // 2, w // 2
    k, hw = ph * pw, h * w
    # One copy puts each window's four cells on a leading axis, so the max
    # and the min are one reduction each.
    windows = (x[:, : ph * 2, : pw * 2].reshape(c, ph, 2, pw, 2)
               .transpose(2, 4, 0, 1, 3).reshape(4, c, k))
    pooled = np.empty((2, c, k))
    np.maximum.reduce(windows, out=pooled[0])
    np.minimum.reduce(windows, out=pooled[1])
    stats = np.empty((4, c))  # mean maxpool, mean minpool, sd, g
    np.add.reduce(pooled, axis=2, out=stats[:2])
    flat = x.reshape(c, hw)
    d = flat - np.add.reduce(flat, axis=1, keepdims=True) / hw
    spread = np.empty((2, c, hw))
    np.square(d, out=spread[0])
    np.maximum(d, 0.0, out=spread[1])
    np.add.reduce(spread, axis=2, out=stats[2:])
    stats[:2] /= k
    stats[2:] /= hw
    np.sqrt(stats[2], out=stats[2])

    p = protos[:, -c:]
    v = np.empty((len(p), 2 * c), np.float32)
    scaled = stats[:, None, :] * p  # (4, N, C): each statistic times p
    size = np.abs(scaled)  # rows 2 and 3 are |p| sd and |p| g
    if size[:2].max(initial=0.0) > _FLOAT32_MAX:
        raise ValueError("confidence vector overflows float32")
    np.maximum(scaled[0], scaled[1], out=v[:, :c])
    size[2] += ScoreModel.eps
    np.divide(size[3], size[2], out=v[:, c:])
    return v


def query_scores(model: ScoreModel, q4: np.ndarray, protos: np.ndarray) -> np.ndarray:
    """Positive-class probabilities of the classes of _l4_vectors(q4,
    protos), the vectors that the TPF phase trains on. The MLP runs in
    float32 to keep scoring cheap; training's runs in float64.

    The two-class softmax is 1 / (1 + exp(l0 - l1)), taken in float64 as
    exp(-logaddexp(0, l0 - l1)) so that no logit gap overflows; it agrees
    with _softmax to a few ulp.
    """
    logits = _mlp(model, _l4_vectors(q4, protos))[1]
    z = logits[:, 1 - POSITIVE].astype(np.float64) - logits[:, POSITIVE]
    return np.exp(-np.logaddexp(0.0, z))


def loss_and_grads(
    model: ScoreModel,
    batch: list[tuple[FeatureMap, int]],
    want_input_grads: bool = False,
) -> tuple[float, ScoreModel, np.ndarray | None]:
    """Mean cross-entropy over (map, label) pairs with analytic gradients.

    label is 1 for present, 0 for absent; all maps share one shape. When
    want_input_grads is set, also returns dLoss/dMap as one (N, C, H, W)
    array in batch order (used to train the fusion projections).
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    maps = np.stack([c.data for c, _ in batch])  # ValueError on mixed shapes
    return _map_loss(model, maps, np.array([label for _, label in batch]), want_input_grads,
                     {})


def _map_loss(model: ScoreModel, maps: np.ndarray, labels: np.ndarray,
              want_input_grads: bool, work: _Work
              ) -> tuple[float, ScoreModel, np.ndarray | None]:
    """loss_and_grads of (N, C, H, W) maps and their N labels; the input
    gradient is taken at the weights the loss was, and is one of work's
    arrays."""
    x = np.asarray(maps, dtype=np.float32)
    v, mu, sd = _confidence_vectors(x, work)
    loss, grads, dpre = _vector_loss(model, v, labels)
    input_grads = None
    if want_input_grads:
        dv = dpre @ model.w1.astype(np.float64)
        input_grads = _confidence_backward(x, dv, mu, sd, work)
    return loss, grads, input_grads


def _vector_loss(model: ScoreModel, v: np.ndarray,
                 labels: np.ndarray) -> tuple[float, ScoreModel, np.ndarray]:
    """(loss, scorer gradient as a ScoreModel, dLoss/d(w1 v + b1)) of the
    mean cross-entropy over (N, 2C) float64 confidence vectors and their N
    labels; dLoss/dv is that last (N, hidden) array @ w1. A pair whose
    picked probability underflows to 0 gives an infinite loss."""
    n = len(v)
    hid, logits = _mlp(model, v)      # (n, hidden), (n, 2)
    p = _softmax(logits)
    with np.errstate(divide="ignore"):
        loss = float(-np.log(p[np.arange(n), labels]).mean())

    dlogits = p.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    gw2 = dlogits.T @ hid
    gb2 = dlogits.sum(axis=0)
    dhid = dlogits @ model.w2.astype(np.float64)
    # The ReLU mask is taken in dhid's C order: a product of dhid and a mask
    # in hid's transposed order costs about twice as much.
    dpre = np.multiply(dhid, np.greater(hid, 0.0, out=np.empty(dhid.shape, bool)), out=dhid)
    gw1 = dpre.T @ v
    gb1 = dpre.sum(axis=0)

    # A diverging run can overflow float32 here; train raises
    # DivergenceError on the loss or the parameters that follow.
    with np.errstate(over="ignore"):
        grads = ScoreModel(*(g.astype(np.float32) for g in (gw1, gb1, gw2, gb2)))
    return loss, grads, dpre


def _clip_scale(grads: ScoreModel) -> float:
    """The factor that brings the scorer gradient's global L2 norm down to
    GRAD_CLIP, or 1.0 if it is already within it."""
    squares = 0.0
    for g in grads.layers:
        v = g.ravel().astype(np.float64)
        squares += float(v @ v)
    norm = math.sqrt(squares)
    return GRAD_CLIP / norm if norm > GRAD_CLIP else 1.0


class Phase(Enum):
    JOINT = "joint"      # update scorer + fusion projections on fused maps
    TPF_ONLY = "tpf"     # scorer only, fed by deepest-level maps


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 10
    batch_size: int = 32
    phase: Phase = Phase.JOINT
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"{self.phase.value} learning rate must be finite and positive, "
                             f"got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"{self.phase.value} epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")


class DivergenceError(RuntimeError):
    """Raised when the training loss, or a trained parameter, becomes
    non-finite."""


def _draw_epochs(episodes: list[Episode], epochs: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Every epoch's (episode index, class id, label) pairs, drawn before
    the first epoch, as an (epochs, P, 3) array. An epoch holds, episode
    after episode, every present class in sorted order, then one absent
    class drawn per present one (one when none is present) with one
    rng.choice on the episode's absent classes; one rng.shuffle then orders
    the epoch's pairs. Each episode's positive pairs and absent classes are
    listed once per call."""
    pairs, draws = [], []  # one epoch's pairs with the absent draws unfilled
    for ei, ep in enumerate(episodes):
        present = sorted(ep.present_classes)
        absent = np.array([cid for cid in ep.class_ids if cid not in ep.present_classes])
        n_neg = min(len(absent), max(len(present), 1))
        pairs += [(ei, cid, 1) for cid in present] + [(ei, -1, 0)] * n_neg
        if n_neg:
            draws.append((absent, n_neg))
    template = np.array(pairs, np.intp)
    negative = template[:, 2] == 0
    out = np.empty((epochs, *template.shape), np.intp)
    for epoch in out:
        np.copyto(epoch, template)
        chosen = [rng.choice(absent, size=n, replace=False) for absent, n in draws]
        if chosen:
            epoch[negative, 1] = np.concatenate(chosen)
        # Shuffling row numbers draws what shuffling the rows would, at a
        # fraction of the cost of numpy's row-by-row swaps of a 2-D array.
        order = np.arange(len(epoch))
        rng.shuffle(order)
        epoch[:] = epoch[order]
    return out


def train(
    model: ScoreModel,
    proj: FusionProjector,
    episodes: list[Episode],
    cfg: TrainConfig,
) -> tuple[ScoreModel, FusionProjector, list[float]]:
    """Plain SGD over sampled (map, label) pairs; each scorer step is
    clipped to a gradient of global L2 norm GRAD_CLIP.

    Every epoch's pairs are drawn before the first (_draw_epochs), and each
    phase then builds one table of rows, only for the classes those epochs
    drew: per episode, one prototype_matrices call on its drawn classes,
    sorted. TPF_ONLY builds the L4 level alone and takes one _l4_vectors
    call per episode on those prototypes, query_scores' vectors cast to
    float64, and trains the scorer alone on them. JOINT builds every level;
    it fuses each batch in one contraction, fuse_batch's, on queries
    aligned once, and trains the scorer and the fusion projections through
    _map_loss, as loss_and_grads does, all in work arrays allocated once per
    call. A batch takes its rows with one index into the table. Returns
    (model, projections, per-epoch mean losses); inputs are not mutated.
    DivergenceError if a batch's loss, or a parameter after a step, is not
    finite. ValueError if a drawn class's L4 vector overflows float32 in
    TPF_ONLY; a class that no epoch draws is never built, so it raises only
    where inference scores it.
    """
    if not episodes:
        raise ValueError("episodes must be nonempty")
    model = model.copy()  # each SGD step updates its arrays in place
    proj = proj.copy()
    if not cfg.epochs:
        return model, proj, []
    joint = cfg.phase is Phase.JOINT
    drawn = _draw_epochs(episodes, cfg.epochs, np.random.default_rng(cfg.seed))
    # Each batch's pairs sorted by episode: that order fixes the order in
    # which the batch's sums add up its pairs, and the trained bytes with it.
    n_pairs = drawn.shape[1]
    batch_of = np.broadcast_to(np.arange(n_pairs) // cfg.batch_size, drawn.shape[:2])
    order = np.lexsort((drawn[..., 0], batch_of))
    drawn = np.take_along_axis(drawn, order[..., None], axis=1)
    # A table row per drawn (episode, class), episode after episode, each
    # episode's classes sorted: the order of np.unique's keys.
    first = np.cumsum([0] + [len(ep.shots[Level.L4]) for ep in episodes])
    keys, rows = np.unique(first[drawn[..., 0]] + drawn[..., 1], return_inverse=True)
    rows = rows.reshape(drawn.shape[:2])
    bounds = np.searchsorted(keys, first)
    classes = [keys[lo:hi] - start for start, lo, hi in zip(first, bounds, bounds[1:])]
    if joint:
        table = np.concatenate([prototype_matrices({lv: a[c] for lv, a in ep.shots.items()})
                                for ep, c in zip(episodes, classes)])
        aligned = [align_query(ep.levels) for ep in episodes]
    else:
        table = np.concatenate([_l4_vectors(ep.levels[Level.L4].data,
                                            prototype_matrices({Level.L4: ep.shots[Level.L4][c]}))
                                for ep, c in zip(episodes, classes)], dtype=np.float64)
    work: _Work = {}
    losses: list[float] = []

    for pairs, pair_rows in zip(drawn, rows):
        epoch_loss = 0.0
        starts = range(0, n_pairs, cfg.batch_size)
        for start in starts:
            stop = start + cfg.batch_size
            labels = pairs[start:stop, 2]
            batch_rows = table[pair_rows[start:stop]]
            if joint:
                maps, queries = _fuse_pairs(proj, [aligned[ei] for ei in pairs[start:stop, 0]],
                                            batch_rows, work)
                loss, grads, input_grads = _map_loss(model, maps, labels, True, work)
            else:
                loss, grads, _ = _vector_loss(model, batch_rows, labels)
            if not np.isfinite(loss):
                raise DivergenceError(f"training loss diverged: {loss}")
            epoch_loss += loss

            lr = cfg.learning_rate
            step = lr * _clip_scale(grads)
            # A step that overflows a parameter is caught below, before the
            # next batch fuses or scores with it.
            with np.errstate(over="ignore", invalid="ignore"):
                for a, g in zip(model.layers, grads.layers):
                    a -= step * g
                if joint:
                    _apply_fusion_grads(proj, queries, batch_rows, input_grads, lr, work)
            # The check walks the arrays the step wrote; _apply_fusion_grads
            # replaces the projections' arrays.
            written = [*model.layers, *proj.weights.values(), *proj.biases.values()] \
                if joint else model.layers
            if not all(np.isfinite(a).all() for a in written):
                raise DivergenceError("a step left a non-finite scorer or projection parameter")
        losses.append(epoch_loss / len(starts))
    return model, proj, losses


def _fuse_pairs(proj: FusionProjector, queries: list[np.ndarray], rows: np.ndarray,
                work: _Work) -> tuple[np.ndarray, np.ndarray]:
    """Each of N prototype rows fused on its own aligned query, with
    fuse_batch's arithmetic and bytes, in work's arrays: the (N, out, H, W)
    maps, and the queries as they were stacked, (N, sum of C_l, H*W)."""
    n, c = rows.shape
    grid = queries[0].shape[1:]
    hw = math.prod(grid)
    x = _empty(work, "x", (n, c + 1, hw))
    np.stack([q.reshape(c, hw) for q in queries], out=x[:, :c])
    x[:, c] = 1.0
    out = len(proj.biases[Level.L4])
    # The product is spent once cast to the maps, before the forward
    # takes "d".
    maps = _fuse(x, rows, proj.matrix(), _empty(work, "wide", (n, out, c + 1)),
                 _empty(work, "d", (n, out, hw)), _empty(work, "maps", (n, out, hw), np.float32))
    return maps.reshape(n, out, *grid), x[:, :c]


def _apply_fusion_grads(
    proj: FusionProjector,
    aligned: np.ndarray,
    rows: np.ndarray,
    input_grads: np.ndarray,
    lr: float,
    work: _Work,
) -> None:
    """SGD step on the per-level projections given dLoss/dFusedMap.

    aligned (N, sum of C_l, H*W) and rows (N, sum of C_l) are the queries
    and prototype rows _fuse_pairs fused, in batch order. It gave
    fused_n = mean_l W_l diag(p_nl) X_nl + b_l, so over the stacked level
    channels gW = sum_n ((G_n / L) @ X_n^T) * p_n: one contraction over the
    batch of the gradients with the correlated inputs p_n X_n, laid out as
    np.tensordot would lay them out for its np.dot. Every level's bias
    gradient is sum_n G_n 1 / L. input_grads is divided by L in place.
    """
    n, c, hw = aligned.shape
    out = input_grads.shape[1]
    g = input_grads.reshape(n, out, hw)
    g /= len(FEATURE_LEVELS)
    gb = g.sum(axis=(0, 2))
    # The backward is done with "u", and fusion with "wide".
    gt = _empty(work, "u", (out, n, hw))
    np.copyto(gt, g.transpose(1, 0, 2))
    x = np.multiply(rows[:, None, :], aligned.transpose(0, 2, 1),
                    out=_empty(work, "wide", (n, hw, c)))
    gw = np.dot(gt.reshape(out, n * hw), x.reshape(n * hw, c))
    start = 0
    for lv in FEATURE_LEVELS:
        w = proj.weights[lv]
        stop = start + w.shape[1]
        proj.weights[lv] = (w - lr * gw[:, start:stop]).astype(np.float32)
        proj.biases[lv] = (proj.biases[lv] - lr * gb).astype(np.float32)
        start = stop
