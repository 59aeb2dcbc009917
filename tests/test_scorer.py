"""Tests for the confidence-vector scorer: forward oracles, the
hand-written backward pass against finite differences, and the
two-phase trainer's observable behaviors."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from preselect import scorer
from preselect.cli import _train_accuracy
from preselect.episodes import (
    FEATURE_LEVELS,
    FusionProjector,
    SynthConfig,
    align_query,
    build_prototype,
    correlate,
    fuse_batch,
    prototype_matrices,
    synth_episodes,
)
from preselect.scorer import (
    GRAD_CLIP,
    POSITIVE,
    DivergenceError,
    Phase,
    ScoreModel,
    TrainConfig,
    _draw_epochs,
    _l4_vectors,
    _mlp,
    _softmax,
    _vector_loss,
    loss_and_grads,
    query_scores,
    train,
)
from preselect.selector import All, run_inference
from preselect.tensor_ops import FeatureMap, Level, block_mean

from helpers import (confidence_vectors_oracle, epochs_oracle, map_vectors, random_projector,
                     sample_pairs_oracle, scores_batch, vector_loss_oracle)


def fmap(arr):
    return FeatureMap(np.asarray(arr, dtype=np.float32))


def random_map(rng, c=2, h=4, w=4):
    return fmap(rng.standard_normal((c, h, w)))


def tiny_model(rng, channels=2, hidden=3):
    """A small dense model with non-degenerate random weights."""
    return ScoreModel(
        w1=rng.standard_normal((hidden, 2 * channels)).astype(np.float32),
        b1=rng.standard_normal(hidden).astype(np.float32),
        w2=rng.standard_normal((2, hidden)).astype(np.float32),
        b2=rng.standard_normal(2).astype(np.float32),
    )


def vector(arr):
    """Confidence vector of one (C, H, W) map, through the map form."""
    return map_vectors(np.asarray(arr, np.float32)[None])[0]


MAP_SHAPES = [(32, 64, 8, 8), (3, 3, 5, 6), (2, 4, 3, 3), (4, 2, 2, 2)]


def sample_maps(rng, shape):
    """Random float32 maps, and integer maps full of tied windows with
    constant channels and an all-zero map."""
    tied = rng.integers(-2, 3, shape).astype(np.float32)
    tied[:, 0] = 1.5
    tied[0] = 0.0
    return rng.standard_normal(shape).astype(np.float32), tied


class TestRepresentations:
    """Both halves of the map form's confidence vectors on N=1 stacks;
    the local half comes first, then the global half."""

    def test_global_constant_map_is_zero(self):
        out = vector(np.full((3, 2, 2), 7.0))[3:]
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_global_two_value_channel(self):
        # standardize([[0,2],[0,2]]) = [[-1,1],[-1,1]]; relu then avg = 0.5
        out = vector([[[0, 2], [0, 2]]])[1:]
        assert out[0] == pytest.approx(0.5, abs=1e-4)

    def test_global_shift_invariance(self):
        rng = np.random.default_rng(0)
        m = random_map(rng, 3, 4, 4)
        shifted = m.data + np.float32([5, -3, 11])[:, None, None]
        np.testing.assert_allclose(vector(m.data)[3:], vector(shifted)[3:],
                                   atol=1e-4)

    def test_local_single_window(self):
        out = vector([[[1, 2], [3, 4]]])[:1]
        np.testing.assert_allclose(out, [4.0])

    def test_local_average_oracle(self):
        rng = np.random.default_rng(1)
        m = random_map(rng, 2, 4, 4)
        out = vector(m.data)[:2]
        for ch in range(2):
            acc = 0.0
            for i in range(2):
                for j in range(2):
                    acc += m.data[ch, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()
            assert out[ch] == pytest.approx(acc / 4, rel=1e-5)

    def test_confidence_vector_zero_map(self):
        np.testing.assert_array_equal(vector(np.zeros((2, 4, 4))), np.zeros(4))

    def test_confidence_vector_local_first(self):
        v = vector(np.full((1, 2, 2), 3.0))
        assert v.shape == (2,)
        assert v[0] == pytest.approx(3.0)  # local branch: max-pool avg
        assert v[1] == pytest.approx(0.0)  # global branch: constant zeroes out


class TestPredict:
    """The inference forward on one map: query_scores for its score, _mlp
    on _l4_vectors for its logits, both with an all-ones prototype, whose
    correlation map is the map itself."""

    @staticmethod
    def _logits(model, q):
        ones = np.ones((1, len(q)), np.float32)
        return _mlp(model, _l4_vectors(q, ones))[1]

    @staticmethod
    def _score(model, q):
        return query_scores(model, q, np.ones((1, len(q)), np.float32))[0]

    def test_hand_computed_logits(self):
        model = ScoreModel(
            w1=np.eye(4, dtype=np.float32),
            b1=np.zeros(4, np.float32),
            w2=np.float32([[1, 0, 0, 0], [0, 0, 1, 0]]),
            b2=np.float32([0.5, -0.5]),
        )
        q = np.zeros((2, 2, 2), np.float32)
        np.testing.assert_allclose(self._logits(model, q), [[0.5, -0.5]], atol=1e-6)
        assert self._score(model, q) == pytest.approx(1 / (1 + math.e))

    def test_score_is_positive_prob(self):
        rng = np.random.default_rng(2)
        model = tiny_model(rng)
        q = random_map(rng).data
        want = _softmax(self._logits(model, q))[0, POSITIVE]
        assert self._score(model, q) == pytest.approx(float(want))

    def test_score_ranking_matches_logit_difference(self):
        rng = np.random.default_rng(3)
        model = tiny_model(rng)
        maps = [random_map(rng).data for _ in range(12)]
        scores = [self._score(model, q) for q in maps]
        diffs = []
        for q in maps:
            logits = self._logits(model, q)[0]
            diffs.append(float(logits[POSITIVE] - logits[1 - POSITIVE]))
        assert np.argsort(scores).tolist() == np.argsort(diffs).tolist()

    def test_large_logits_stay_finite(self):
        model = ScoreModel(
            w1=np.zeros((1, 2), np.float32), b1=np.zeros(1, np.float32),
            w2=np.zeros((2, 1), np.float32), b2=np.float32([1000, 0]),
        )
        q = np.zeros((1, 2, 2), np.float32)
        score = self._score(model, q)
        assert np.isfinite(score) and score < 0.001
        assert np.all(np.isfinite(self._logits(model, q)))

    def test_rejects_channel_mismatch(self):
        rng = np.random.default_rng(4)
        model, q = tiny_model(rng, channels=2), random_map(rng, c=3).data
        with pytest.raises(ValueError):
            self._score(model, q)
        with pytest.raises(ValueError):
            self._logits(model, q)

    @pytest.mark.parametrize("layer,shape", [
        ("w1", (3, 0)), ("w1", (3, 5)), ("b1", (4,)), ("w2", (2, 4)), ("w2", (3, 3)),
        ("b2", (1,)),
    ], ids=["no-input-channels", "odd-w1-width", "b1", "w2-hidden", "w2-outputs", "b2"])
    def test_rejects_disagreeing_shapes(self, layer, shape):
        """Layers that no init writes: no input channel, a w1 of odd width,
        or a b1, w2 or b2 that does not fit w1's hidden width of 3."""
        m = tiny_model(np.random.default_rng(19), channels=2, hidden=3)
        layers = {"w1": m.w1, "b1": m.b1, "w2": m.w2, "b2": m.b2}
        layers[layer] = np.zeros(shape, np.float32)
        with pytest.raises(ValueError):
            ScoreModel(**layers)

    @pytest.mark.parametrize("hidden", [0, -3])
    def test_init_rejects_empty_hidden_layer(self, hidden):
        with pytest.raises(ValueError, match="hidden width"):
            ScoreModel.init(4, hidden=hidden)


class TestBatchedScoring:
    def test_matches_per_map(self):
        rng = np.random.default_rng(5)
        model = tiny_model(rng, channels=4)
        maps = rng.standard_normal((10, 4, 6, 6)).astype(np.float32)
        batched = scores_batch(model, maps)
        for i in range(10):
            assert batched[i] == pytest.approx(
                scores_batch(model, maps[i][None])[0], abs=1e-5
            )

    @pytest.mark.parametrize("gap", [1.0, 1e3])
    def test_probs_match_softmax(self, gap):
        """The logistic positive-class probability against the softmax of
        the same logits; gap 1e3 puts logit differences past exp's range,
        where both must give exactly 0 or 1."""
        rng = np.random.default_rng(7)
        model = tiny_model(rng, channels=4, hidden=8)
        model.w2 *= np.float32(gap)
        maps = rng.standard_normal((12, 4, 6, 6)).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = scores_batch(model, maps)
        v = map_vectors(maps).astype(np.float32)
        want = _softmax(_mlp(model, v)[1])[:, POSITIVE]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        if gap > 1.0:
            assert set(got.tolist()) <= {0.0, 1.0}

    def test_vectors_match_per_map(self):
        rng = np.random.default_rng(6)
        maps = rng.standard_normal((6, 3, 4, 4)).astype(np.float32)
        batched = map_vectors(maps)
        for i in range(6):
            np.testing.assert_array_equal(batched[i], vector(maps[i]))


class TestFactoredScoring:
    """Scores from per-query statistics against the scores of the
    correlation maps they stand for."""

    def test_scores_match_correlated_maps(self):
        cfg = SynthConfig(num_classes=20, k=3)
        worst = 0.0
        for seed, ep in enumerate(synth_episodes(cfg, 16, 6)):
            model = ScoreModel.init(64, hidden=64, seed=seed)
            q4 = ep.levels[Level.L4].data
            protos = prototype_matrices(ep.shots)
            want = scores_batch(model, q4[None] * protos[:, -len(q4):, None, None])
            got = query_scores(model, q4, protos)
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert worst < 1e-6

    @pytest.mark.parametrize("shape", [(5, 4, 4), (3, 5, 7), (4, 2, 2)])
    def test_vectors_match_correlated_maps(self, shape):
        rng = np.random.default_rng(17)
        q = (3 * rng.standard_normal(shape)).astype(np.float32)
        q[0] = 1.5  # a constant channel: zero spread
        p = rng.standard_normal((9, shape[0])).astype(np.float32)
        p[0] = 0.0
        p[1] = -np.abs(p[1])
        want = map_vectors(q[None] * p[:, :, None, None])
        got = _l4_vectors(q, p)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
        assert not got[0].any()

    def test_stats_reject_undersized_query(self):
        """_l4_vectors rejects a 1x4 query, and loss_and_grads with input
        gradients rejects 1x4 maps in its forward, before anything warns."""
        with pytest.raises(ValueError):
            _l4_vectors(np.ones((2, 1, 4), np.float32), np.ones((1, 2), np.float32))
        rng = np.random.default_rng(18)
        batch = [(random_map(rng, 2, 1, 4), i % 2) for i in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="2x2"):
                loss_and_grads(tiny_model(rng), batch, True)


def backward(maps, grad_v):
    """dVector/dMap of float32 maps as _map_loss takes it: the forward, then
    _confidence_backward on the forward's row statistics, in one work dict."""
    work = {}
    _, mu, sd = scorer._confidence_vectors(maps, work)
    return scorer._confidence_backward(maps, grad_v, mu, sd, work)


def oracle_backward(data, grad_v):
    """Nested-loop dVector/dMap for one (C, H, W) map.

    Local: each 2x2 window's gradient goes to its first maximum in
    row-major order. Global: the derivative of mean(relu(z)) with
    z = (x - mean) / (std + ScoreModel.eps), written out per element.
    """
    c, h, w = data.shape
    ph, pw = h // 2, w // 2
    n = h * w
    out = [[[0.0] * w for _ in range(h)] for _ in range(c)]
    for ch in range(c):
        for i in range(ph):
            for j in range(pw):
                best = None
                for dy in range(2):
                    for dx in range(2):
                        val = float(data[ch, 2 * i + dy, 2 * j + dx])
                        if best is None or val > best[0]:
                            best = (val, 2 * i + dy, 2 * j + dx)
                out[ch][best[1]][best[2]] += float(grad_v[ch]) / (ph * pw)
        vals = [float(data[ch, y, x]) for y in range(h) for x in range(w)]
        mean = sum(vals) / n
        std = math.sqrt(sum((v - mean) ** 2 for v in vals) / n)
        s = std + ScoreModel.eps
        pos = [(v - mean) / s > 0 for v in vals]
        n_pos = sum(pos)
        pos_dev = sum(v - mean for v, p in zip(vals, pos) if p)
        g = float(grad_v[c + ch]) / n
        for q, v in enumerate(vals):
            d_std = (v - mean) / (n * std) if std > 0 else 0.0
            dx = (pos[q] - n_pos / n) / s - pos_dev * d_std / (s * s)
            out[ch][q // w][q % w] += g * dx
    return out


class TestGradients:
    """Analytic backprop against central finite differences (h=1e-3)."""

    H = 1e-3
    TOL = 1e-4

    @staticmethod
    def _loss(model, batch):
        value, _, _ = loss_and_grads(model, batch)
        return value

    def _fd_check(self, model, batch, param, analytic):
        arr = getattr(model, param)
        fd = np.zeros_like(arr, dtype=np.float64)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + self.H
            up = self._loss(model, batch)
            arr[idx] = orig - self.H
            down = self._loss(model, batch)
            arr[idx] = orig
            fd[idx] = (up - down) / (2 * self.H)
        denom = max(np.abs(fd).max(), 1e-8)
        assert np.abs(analytic - fd).max() / denom < self.TOL

    def test_all_parameters(self):
        rng = np.random.default_rng(7)
        model = tiny_model(rng, channels=2, hidden=3)
        batch = [(random_map(rng, 2, 4, 4), i % 2) for i in range(4)]
        _, grads, _ = loss_and_grads(model, batch)
        for param in ("w1", "b1", "w2", "b2"):
            self._fd_check(model, batch, param, getattr(grads, param))

    def test_input_gradient(self):
        """One map, then a batch of three: a gradient leaking between
        samples would show in the batch."""
        rng = np.random.default_rng(8)
        model = tiny_model(rng, channels=2, hidden=3)
        for n in (1, 3):
            maps = [random_map(rng, 2, 4, 4) for _ in range(n)]
            labels = [(i + 1) % 2 for i in range(n)]
            _, _, analytic = loss_and_grads(model, list(zip(maps, labels)),
                                            want_input_grads=True)
            fd = np.zeros_like(analytic)
            for k, m in enumerate(maps):
                data = m.data
                it = np.nditer(data, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = data[idx]
                    data[idx] = orig + self.H
                    up = self._loss(model, list(zip(maps, labels)))
                    data[idx] = orig - self.H
                    down = self._loss(model, list(zip(maps, labels)))
                    data[idx] = orig
                    fd[(k,) + idx] = (up - down) / (2 * self.H)
            denom = max(np.abs(fd).max(), 1e-8)
            assert np.abs(analytic - fd).max() / denom < self.TOL

    def test_confidence_backward_zero_grad(self):
        rng = np.random.default_rng(9)
        maps = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
        out = backward(maps, np.zeros((3, 4)))
        np.testing.assert_array_equal(out, np.zeros((3, 2, 4, 4)))

    def test_backward_matches_loop_oracle(self):
        """Three distinct maps with an odd height, a window with tied
        maxima and a zero-variance channel."""
        rng = np.random.default_rng(13)
        maps = rng.standard_normal((3, 3, 5, 6)).astype(np.float32)
        maps[1, 0, 0:2, 0:2] = [[1.0, 3.0], [3.0, 3.0]]  # first argmax is (0, 1)
        maps[2, 1] = 0.25
        grad_v = rng.standard_normal((3, 6))
        got = backward(maps, grad_v)
        want = [oracle_backward(maps[i], grad_v[i]) for i in range(3)]
        assert np.abs(got - np.array(want)).max() / np.abs(want).max() < 1e-12

    @pytest.mark.parametrize("shape", MAP_SHAPES)
    def test_backward_bitwise_equal_to_mask_form(self, shape):
        """The window-compare local branch and the in-place global branch
        give the bytes of the argmax, one-hot mask and np.where form they
        replace: on random maps, on integer maps full of tied windows, with
        zero-variance channels and +/-0.0 gradients."""
        rng = np.random.default_rng(sum(shape))
        n, c = shape[:2]
        for maps in sample_maps(rng, shape):
            for grad_v in (rng.standard_normal((n, 2 * c)), -np.zeros((n, 2 * c))):
                got = backward(maps, grad_v)
                assert got.tobytes() == mask_form_backward(maps, grad_v).tobytes()

    @pytest.mark.parametrize("shape", MAP_SHAPES)
    def test_forward_bitwise_equal_to_oracle(self, shape):
        """The forward written into given arrays, whose row mean and std the
        backward reuses, gives the bytes of the out-of-place form on the
        backward test's maps."""
        rng = np.random.default_rng(sum(shape))
        for maps in sample_maps(rng, shape):
            got = map_vectors(maps)
            assert got.tobytes() == confidence_vectors_oracle(maps).tobytes()

    def test_fresh_result_per_call(self):
        """A second call leaves the arrays the first one returned as they were."""
        rng = np.random.default_rng(15)
        model = tiny_model(rng, channels=2, hidden=3)
        first = [(random_map(rng, 2, 4, 4), i % 2) for i in range(3)]
        second = [(random_map(rng, 2, 4, 4), i % 2) for i in range(3)]
        _, grads, maps_grad = loss_and_grads(model, first, True)
        kept = [a.copy() for a in (grads.w1, grads.b1, grads.w2, grads.b2, maps_grad)]
        loss_and_grads(model, second, True)
        for got, want in zip((grads.w1, grads.b1, grads.w2, grads.b2, maps_grad), kept):
            assert got.tobytes() == want.tobytes()

    def test_rejects_mixed_shapes(self):
        rng = np.random.default_rng(14)
        batch = [(random_map(rng, 2, 4, 4), 1), (random_map(rng, 2, 6, 6), 0)]
        with pytest.raises(ValueError):
            loss_and_grads(tiny_model(rng), batch)

    def test_rejects_empty_batch(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            loss_and_grads(tiny_model(rng), [])


def mask_form_backward(maps, grad_v):
    """The backward as an argmax one-hot mask and np.where for
    the local branch, and out-of-place (N, C, H, W) temporaries for the
    global branch."""
    x = np.asarray(maps).astype(np.float64)
    n, ch, h, w = x.shape
    g = np.asarray(grad_v, dtype=np.float64)[:, :, None, None]
    grad_local, grad_global = g[:, :ch], g[:, ch:]
    ph, pw = h // 2, w // 2
    win = x[:, :, : ph * 2, : pw * 2].reshape(n, ch, ph, 2, pw, 2)
    first = win.transpose(0, 1, 2, 4, 3, 5).reshape(n, ch, ph, pw, 4).argmax(axis=4)
    mask = (first[..., None] == np.arange(4)).reshape(n, ch, ph, pw, 2, 2)
    grad_x = np.zeros_like(x)
    grad_x[:, :, : ph * 2, : pw * 2] = np.where(
        mask.transpose(0, 1, 2, 4, 3, 5), grad_local[..., None, None] / (ph * pw), 0.0
    ).reshape(n, ch, ph * 2, pw * 2)
    mu = x.mean(axis=(2, 3), keepdims=True)
    sd = x.std(axis=(2, 3), keepdims=True)
    s = sd + ScoreModel.eps
    d = x - mu
    z = d / s
    u = (grad_global / (h * w)) * (z > 0)
    u_mean = u.mean(axis=(2, 3), keepdims=True)
    ud_mean = (u * d).mean(axis=(2, 3), keepdims=True)
    sd_safe = np.where(sd > 0, sd, 1.0)
    grad_x += (u - u_mean) / s - d * ud_mean / (sd_safe * s * s)
    return grad_x


def small_episodes(n=6, seed=0, sigma=0.1, num_classes=6):
    cfg = SynthConfig(num_classes=num_classes, present_count=2, k=2, noise_sigma=sigma)
    return synth_episodes(cfg, seed, n)


def drawn_classes(episodes, epochs, seed):
    """Each episode's classes that the oracle's epochs draw, sorted."""
    drawn = [set() for _ in episodes]
    for pairs in epochs_oracle(episodes, epochs, seed):
        for ei, cid, _ in pairs:
            drawn[ei].add(cid)
    return [sorted(d) for d in drawn]


def fresh_state(episodes, seed=0):
    first = episodes[0]
    channels = {lv: first.levels[lv].channels for lv in first.levels}
    c4 = channels[Level.L4]
    return ScoreModel.init(c4, hidden=16, seed=seed), FusionProjector.identity(
        channels, c4
    )


class TestTrain:
    def test_zero_epochs_returns_equal_params(self):
        eps = small_episodes()
        model, proj = fresh_state(eps)
        out_model, out_proj, losses = train(
            model, proj, eps, TrainConfig(epochs=0, phase=Phase.TPF_ONLY)
        )
        assert losses == []
        np.testing.assert_array_equal(out_model.w1, model.w1)
        for lv in proj.weights:
            np.testing.assert_array_equal(out_proj.weights[lv], proj.weights[lv])

    def test_inputs_not_mutated(self):
        eps = small_episodes()
        model, proj = fresh_state(eps)
        w1_before = model.w1.copy()
        train(model, proj, eps,
              TrainConfig(epochs=1, phase=Phase.TPF_ONLY, learning_rate=0.1))
        np.testing.assert_array_equal(model.w1, w1_before)

    def test_seed_determinism(self):
        eps = small_episodes()
        model, proj = fresh_state(eps)
        cfg = TrainConfig(epochs=2, phase=Phase.TPF_ONLY, learning_rate=0.1, seed=3)
        m1, _, l1 = train(model, proj, eps, cfg)
        m2, _, l2 = train(model, proj, eps, cfg)
        assert l1 == l2
        np.testing.assert_array_equal(m1.w1, m2.w1)
        np.testing.assert_array_equal(m1.w2, m2.w2)

    def test_loss_decreases_on_separable_data(self):
        eps = small_episodes(n=8, sigma=0.0)
        model, proj = fresh_state(eps)
        _, _, losses = train(
            model, proj, eps,
            TrainConfig(epochs=15, phase=Phase.TPF_ONLY, learning_rate=0.5),
        )
        assert losses[-1] < losses[0] * 0.5

    def test_tpf_only_freezes_projections(self):
        eps = small_episodes()
        model, proj = fresh_state(eps)
        _, out_proj, _ = train(
            model, proj, eps,
            TrainConfig(epochs=2, phase=Phase.TPF_ONLY, learning_rate=0.1),
        )
        for lv in proj.weights:
            np.testing.assert_array_equal(out_proj.weights[lv], proj.weights[lv])
            np.testing.assert_array_equal(out_proj.biases[lv], proj.biases[lv])

    def test_joint_updates_projections(self):
        eps = small_episodes()
        model, proj = fresh_state(eps)
        _, out_proj, _ = train(
            model, proj, eps,
            TrainConfig(epochs=1, phase=Phase.JOINT, learning_rate=0.05),
        )
        changed = any(
            not np.array_equal(out_proj.weights[lv], proj.weights[lv])
            for lv in proj.weights
        )
        assert changed

    def test_divergence_raises(self):
        eps = small_episodes()
        model, proj = fresh_state(eps)
        # A clipped step moves the scorer by at most lr. At 1e30 a picked
        # probability underflows to 0 (an infinite loss), after JOINT's
        # float32 gradients overflow; at 1e39 one step overflows the float32
        # weights. None of them warns on the way.
        for phase in (Phase.TPF_ONLY, Phase.JOINT):
            for lr in (1e30, 1e39):
                with pytest.raises(DivergenceError):
                    train(model, proj, eps, TrainConfig(epochs=5, phase=phase, learning_rate=lr))

    @staticmethod
    def _record_builds(monkeypatch):
        """Wrap prototype_matrices and _l4_vectors in train's module; returns
        the lists of their (shots, result) and (q4, protos) arguments."""
        build, l4_vectors = scorer.prototype_matrices, scorer._l4_vectors
        stacks, queries = [], []

        def protos(shots):
            stacks.append((shots, build(shots)))
            return stacks[-1][1]

        def vectors(q4, p):
            queries.append((q4, p))
            return l4_vectors(q4, p)

        monkeypatch.setattr(scorer, "prototype_matrices", protos)
        monkeypatch.setattr(scorer, "_l4_vectors", vectors)
        return stacks, queries

    def test_tpf_builds_each_episode_once(self, monkeypatch):
        """Over 1 and over 3 TPF epochs, train builds its rows once, for the
        classes its epochs drew: one prototype_matrices call per episode, on
        the L4 stack alone of the episode's drawn classes, sorted, and one
        _l4_vectors call per episode, on its query and those prototypes. At
        12 classes some episodes leave classes undrawn."""
        eps = small_episodes(num_classes=12)
        model, proj = fresh_state(eps)
        for epochs in (1, 3):
            stacks, queries = self._record_builds(monkeypatch)
            cfg = TrainConfig(epochs=epochs, batch_size=5, phase=Phase.TPF_ONLY)
            train(model, proj, eps, cfg)
            drawn = drawn_classes(eps, epochs, cfg.seed)
            assert any(len(d) < len(ep.class_ids) for ep, d in zip(eps, drawn))
            assert len(stacks) == len(queries) == len(eps)
            for ep, cids, (shots, built), (q4, p) in zip(eps, drawn, stacks, queries):
                assert shots.keys() == {Level.L4}
                assert shots[Level.L4].tobytes() == ep.shots[Level.L4][cids].tobytes()
                assert q4 is ep.levels[Level.L4].data and p is built

    def test_joint_builds_each_episode_once(self, monkeypatch):
        """Over 1 and over 2 JOINT epochs, train builds its prototype rows
        once, for the classes its epochs drew: one prototype_matrices call
        per episode, on every level's stack of the episode's drawn classes,
        sorted, and no _l4_vectors call."""
        eps = small_episodes(num_classes=12)
        model, proj = fresh_state(eps)
        for epochs in (1, 2):
            stacks, queries = self._record_builds(monkeypatch)
            cfg = TrainConfig(epochs=epochs, batch_size=5, phase=Phase.JOINT)
            train(model, proj, eps, cfg)
            drawn = drawn_classes(eps, epochs, cfg.seed)
            assert any(len(d) < len(ep.class_ids) for ep, d in zip(eps, drawn))
            assert len(stacks) == len(eps) and queries == []
            for ep, cids, (shots, _) in zip(eps, drawn, stacks):
                assert shots.keys() == set(FEATURE_LEVELS)
                for lv in FEATURE_LEVELS:
                    assert shots[lv].tobytes() == ep.shots[lv][cids].tobytes()

    def test_undrawn_overflowing_class_is_not_built(self):
        """A class whose L4 vector overflows float32 but that no epoch draws
        does not make train raise, as train never builds it; inference and
        the CLI's train accuracy, which score every class, still raise."""
        eps = small_episodes(num_classes=12)
        model, proj = fresh_state(eps)
        cfg = TrainConfig(epochs=2, batch_size=5, phase=Phase.TPF_ONLY)
        cid = next(c for c in eps[0].class_ids if c not in drawn_classes(eps, 2, cfg.seed)[0])
        shots = {lv: a.copy() for lv, a in eps[0].shots.items()}
        shots[Level.L4][cid] = np.float32(3e38)
        eps[0] = dataclasses.replace(eps[0], shots=shots)
        trained, proj, _ = train(model, proj, eps, cfg)
        with pytest.raises(ValueError, match="overflows float32"):
            run_inference(trained, proj, eps[0], All())
        with pytest.raises(ValueError, match="overflows float32"):
            _train_accuracy(trained, eps)

    def test_draws_match_per_epoch_oracle(self):
        """_draw_epochs gives, over 3 epochs, the pairs of sampling each
        epoch then shuffling it, and leaves the generator where that leaves
        it: on episodes of 6 and of 9 classes, with every class present,
        none, or 2. A TPF train call on them has the bytes of oracle_train,
        which draws through the per-epoch form."""
        eps = (synth_episodes(SynthConfig(num_classes=6, present_count=6, k=2), 1, 2)
               + synth_episodes(SynthConfig(num_classes=9, present_count=0, k=2), 2, 2)
               + synth_episodes(SynthConfig(num_classes=9, present_count=2, k=2), 3, 3))
        for seed in (0, 5):
            rng = np.random.default_rng(seed)
            got = _draw_epochs(eps, 3, rng)
            want = epochs_oracle(eps, 3, seed)
            assert got.tolist() == [[list(p) for p in pairs] for pairs in want]
            want_rng = np.random.default_rng(seed)
            for _ in range(3):
                want_rng.shuffle(sample_pairs_oracle(eps, want_rng))
            assert rng.bit_generator.state == want_rng.bit_generator.state
        model, proj = fresh_state(eps)
        cfg = TrainConfig(learning_rate=0.3, epochs=3, batch_size=5, phase=Phase.TPF_ONLY,
                          seed=4)
        got_model, got_proj, got_losses = train(model, proj, eps, cfg)
        want_model, want_proj, want_losses = oracle_train(model, proj, eps, cfg)
        assert got_losses == want_losses
        for got, want in zip(_params(got_model, got_proj), _params(want_model, want_proj)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 32])
    def test_vector_loss_bitwise_equal_to_mask_form(self, n):
        """_vector_loss's loss, its four gradients and dLoss/d(w1 v + b1)
        have the bytes of the out-of-place dhid * (hid > 0) form, with a
        zero vector among the rows: at init's zero b1 its hidden units are
        all 0.0, so its mask is all False."""
        rng = np.random.default_rng(n)
        model = ScoreModel.init(24, hidden=64, seed=n)
        v = rng.standard_normal((n, 48))
        v[0] = 0.0
        labels = rng.integers(0, 2, n)
        loss, grads, dpre = _vector_loss(model, v, labels)
        want_loss, want_grads, want_dpre = vector_loss_oracle(model, v, labels)
        assert loss == want_loss
        assert dpre.tobytes() == want_dpre.tobytes()
        for got, want in zip(grads.layers, want_grads.layers):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("phase,levels", [(Phase.TPF_ONLY, {Level.L4}),
                                              (Phase.JOINT, set(FEATURE_LEVELS))])
    def test_rows_build_the_levels_they_read(self, monkeypatch, phase, levels):
        """TPF builds the L4 prototypes alone, the only ones its vectors
        read; JOINT builds every level, as fusion reads them all."""
        eps = small_episodes()
        model, proj = fresh_state(eps)
        built = []

        def protos(shots):
            built.append(set(shots))
            return prototype_matrices(shots)

        monkeypatch.setattr(scorer, "prototype_matrices", protos)
        train(model, proj, eps, TrainConfig(epochs=2, batch_size=5, phase=phase))
        assert built and all(b == levels for b in built)

    def test_tpf_rows_are_inference_vectors(self, monkeypatch):
        """Every row of every TPF batch has the bytes, cast to float64, of
        the vector that query_scores feeds its MLP for the same (episode,
        class) pair."""
        eps = small_episodes()
        model, proj = fresh_state(eps)
        fed, rows = [], []
        l4_vectors, vector_loss = scorer._l4_vectors, scorer._vector_loss

        def feed(q4, protos):
            fed.append(l4_vectors(q4, protos))
            return fed[-1]

        monkeypatch.setattr(scorer, "_l4_vectors", feed)
        for ep in eps:
            query_scores(model, ep.levels[Level.L4].data, prototype_matrices(ep.shots))
        monkeypatch.setattr(scorer, "_l4_vectors", l4_vectors)

        def loss(m, v, labels):
            rows.append(v.copy())
            return vector_loss(m, v, labels)

        monkeypatch.setattr(scorer, "_vector_loss", loss)
        cfg = TrainConfig(epochs=2, batch_size=5, phase=Phase.TPF_ONLY)
        train(model, proj, eps, cfg)
        orders = epochs_oracle(eps, cfg.epochs, cfg.seed)
        want = [np.stack([fed[ei][cid] for ei, cid, _ in
                          sorted(pairs[start : start + 5], key=lambda p: p[0])])
                for pairs in orders for start in range(0, len(pairs), 5)]
        assert len(rows) == len(want) > 2
        for got, vectors in zip(rows, want):
            assert vectors.dtype == np.float32
            assert got.tobytes() == vectors.astype(np.float64).tobytes()

    def test_joint_zero_epochs_prepares_nothing(self, monkeypatch):
        """JOINT with epochs=0 aligns no query and takes no work array."""
        eps = small_episodes()
        model, proj = fresh_state(eps)
        calls = []
        monkeypatch.setattr(scorer, "align_query",
                            lambda *a: calls.append("align") or align_query(*a))
        empty = scorer._empty
        monkeypatch.setattr(scorer, "_empty",
                            lambda *a, **k: calls.append("work") or empty(*a, **k))
        out_model, out_proj, losses = train(model, proj, eps,
                                            TrainConfig(epochs=0, phase=Phase.JOINT))
        assert calls == [] and losses == []
        for got, want in zip(_params(out_model, out_proj), _params(model, proj)):
            assert got.tobytes() == want.tobytes()

    def test_joint_work_arrays_match_fresh_calls(self):
        """JOINT batches run on arrays reused from batch to batch, the last
        batch (2 of 32 pairs) on their prefixes. Two calls in a row both
        give the bytes of a loop over calls that allocate every result:
        fuse_batch, loss_and_grads and _apply_fusion_grads."""
        eps = small_episodes(n=8)
        model, proj = fresh_state(eps, seed=3)
        proj = random_projector({lv: eps[0].levels[lv].channels for lv in eps[0].levels},
                                len(proj.biases[Level.L4]), np.random.default_rng(6))
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=5, phase=Phase.JOINT,
                          seed=7)
        assert len(sample_pairs_oracle(eps, np.random.default_rng(0))) % cfg.batch_size == 2
        want_model, want_proj, want_losses = fresh_joint(model, proj, eps, cfg)
        for _ in range(2):
            got_model, got_proj, got_losses = train(model, proj, eps, cfg)
            assert got_losses == want_losses
            for got, want in zip(_params(got_model, got_proj), _params(want_model, want_proj)):
                assert got.tobytes() == want.tobytes()

    def test_step_norm_clipped(self):
        """One SGD step (one batch holds every pair) moves the scorer by
        lr * GRAD_CLIP in L2 when the gradient is larger than GRAD_CLIP,
        and by less when it is smaller (0.32 at this init)."""
        eps = small_episodes()
        lr = 0.5
        cfg = TrainConfig(epochs=1, batch_size=1000, phase=Phase.TPF_ONLY, learning_rate=lr)
        names = ("w1", "b1", "w2", "b2")
        small, proj = fresh_state(eps)
        large = small.copy()
        large.w1 *= np.float32(10.0)
        large.w2 *= np.float32(10.0)
        moved = []
        for model in (small, large):
            out = train(model, proj, eps, cfg)[0]
            moved.append(math.sqrt(sum(
                float(np.sum((getattr(out, n).astype(np.float64) - getattr(model, n)) ** 2))
                for n in names)))
        assert 0.0 < moved[0] < 0.9 * lr * GRAD_CLIP
        assert moved[1] == pytest.approx(lr * GRAD_CLIP, rel=1e-6)

    def test_rejects_empty_episodes(self):
        eps = small_episodes()
        model, proj = fresh_state(eps)
        with pytest.raises(ValueError):
            train(model, proj, [], TrainConfig())

    def test_config_validation(self):
        for bad in ({"learning_rate": 0.0}, {"learning_rate": float("nan")},
                    {"epochs": -1}, {"batch_size": 0}, {"batch_size": -5}):
            with pytest.raises(ValueError):
                TrainConfig(**bad)
        assert TrainConfig(epochs=0, batch_size=1).epochs == 0


def oracle_train(model, proj, episodes, cfg, round_levels=True, tpf_maps=False):
    """The per-class trainer that train replaced, kept as its reference:
    per-class correlate, each level block-averaged to the L4 grid and
    rounded to float32, a per-level projection loop, and a per-pair loop
    for the projection gradients. Pairs are sampled epoch by epoch
    (sample_pairs_oracle) and ordered by episode, as train batches them. Each scorer step is
    clipped to a gradient of global L2 norm GRAD_CLIP, its squared norm
    summed over the four arrays in float64.

    TPF scores each pair alone through _l4_vectors, as
    inference does, and runs vector_loss_oracle on the vectors. With
    tpf_maps set, it forms the pair's L4 correlation map instead and
    scores it through loss_and_grads: the map form TPF used to train on.

    With round_levels unset, each level is block-averaged in float64 and
    then correlated, unrounded: the arithmetic of fuse_batch, still one
    pair and one level at a time."""
    model, proj = model.copy(), proj.copy()
    rng = np.random.default_rng(cfg.seed)
    joint = cfg.phase is Phase.JOINT
    losses = []
    for _ in range(cfg.epochs):
        pairs = sample_pairs_oracle(episodes, rng)
        rng.shuffle(pairs)
        total, count = 0.0, 0
        for start in range(0, len(pairs), cfg.batch_size):
            chunk = sorted(pairs[start : start + cfg.batch_size], key=lambda p: p[0])
            batch, inputs, vectors = [], [], []
            for ei, cid, label in chunk:
                ep = episodes[ei]
                proto = build_prototype(cid, ep.supports[cid])
                q4 = ep.levels[Level.L4]
                if not (joint or tpf_maps):
                    vectors.append(_l4_vectors(q4.data, proto.vectors[Level.L4][None])[0])
                    continue
                if not joint:
                    batch.append((correlate(q4, proto.vectors[Level.L4]), label))
                    continue
                x = {}
                for lv in FEATURE_LEVELS:
                    if round_levels:
                        c = correlate(ep.levels[lv], proto.vectors[lv]).data
                        small = block_mean(c, *q4.data.shape[1:]).astype(np.float32)
                    else:
                        small = block_mean(ep.levels[lv].data, *q4.data.shape[1:])
                        small = proto.vectors[lv][:, None, None] * small
                    x[lv] = small.reshape(len(small), -1).astype(np.float64)
                fused = np.mean([proj.weights[lv].astype(np.float64) @ x[lv]
                                 + proj.biases[lv][:, None] for lv in FEATURE_LEVELS], axis=0)
                fused = fused.astype(np.float32).reshape(-1, *q4.data.shape[1:])
                batch.append((FeatureMap(fused), label))
                inputs.append(x)
            if vectors:
                labels = np.array([label for _, _, label in chunk])
                loss, grads, _ = vector_loss_oracle(model, np.array(vectors, np.float64), labels)
            else:
                loss, grads, input_grads = loss_and_grads(model, batch, joint)
            total += loss
            count += 1
            lr = cfg.learning_rate
            names = ("w1", "b1", "w2", "b2")
            flat = [getattr(grads, name).astype(np.float64).ravel() for name in names]
            norm = math.sqrt(sum(float(np.dot(g, g)) for g in flat))
            step = lr * (GRAD_CLIP / norm if norm > GRAD_CLIP else 1.0)
            for name in names:
                setattr(model, name,
                        (getattr(model, name) - step * getattr(grads, name)).astype(np.float32))
            if joint:
                for lv in FEATURE_LEVELS:
                    gw = np.zeros(proj.weights[lv].shape)
                    gb = np.zeros(proj.biases[lv].shape)
                    for x, g in zip(inputs, input_grads):
                        g = g.reshape(len(g), -1) / len(FEATURE_LEVELS)
                        gw += g @ x[lv].T
                        gb += g.sum(axis=1)
                    proj.weights[lv] = (proj.weights[lv] - lr * gw).astype(np.float32)
                    proj.biases[lv] = (proj.biases[lv] - lr * gb).astype(np.float32)
        losses.append(total / count)
    return model, proj, losses


def fresh_joint(model, proj, episodes, cfg):
    """train's JOINT phase as a loop over calls that return new arrays:
    fuse_batch on each pair's own aligned query, loss_and_grads with input
    gradients, the clipped scorer step, then _apply_fusion_grads on the
    batch's aligned queries stacked, with a new work dict."""
    model, proj = model.copy(), proj.copy()
    rng = np.random.default_rng(cfg.seed)
    losses = []
    for _ in range(cfg.epochs):
        pairs = sample_pairs_oracle(episodes, rng)
        rng.shuffle(pairs)
        total = []
        for start in range(0, len(pairs), cfg.batch_size):
            chunk = sorted(pairs[start : start + cfg.batch_size], key=lambda p: p[0])
            rows = np.stack([prototype_matrices(episodes[ei].shots)[cid] for ei, cid, _ in chunk])
            queries = [align_query(episodes[ei].levels) for ei, _, _ in chunk]
            maps = [fuse_batch(q, row[None], proj)[0] for q, row in zip(queries, rows)]
            loss, grads, input_grads = loss_and_grads(
                model, [(FeatureMap(m), label) for m, (_, _, label) in zip(maps, chunk)], True)
            total.append(loss)
            step = cfg.learning_rate * scorer._clip_scale(grads)
            for name in ("w1", "b1", "w2", "b2"):
                setattr(model, name, (getattr(model, name) - step * getattr(grads, name))
                        .astype(np.float32))
            stacked = np.stack([q.reshape(len(q), -1) for q in queries])
            scorer._apply_fusion_grads(proj, stacked, rows, input_grads, cfg.learning_rate, {})
        losses.append(sum(total) / len(total))
    return model, proj, losses


def _params(model, proj):
    return ([getattr(model, n) for n in ("w1", "b1", "w2", "b2")]
            + [proj.weights[lv] for lv in FEATURE_LEVELS]
            + [proj.biases[lv] for lv in FEATURE_LEVELS])


class TestTrainMatchesOracle:
    """train against oracle_train.

    TPF vectors come from the same closed form, and a pair's row does not
    depend on the other rows built with it, so that phase is bitwise
    equal; against the map form it agrees to JOINT's tolerances. JOINT
    fuses in float64 where the oracle rounds each block
    average to float32 (a relative 6e-8 each), so on a small config,
    after two epochs, the losses must agree to 1e-7 relative and every
    parameter array to 1e-6 of its largest entry (measured: 1e-9 and
    1.4e-7).
    """

    @staticmethod
    def _state(num_classes=6):
        eps = synth_episodes(SynthConfig(num_classes=num_classes, present_count=2, k=2), 21, 8)
        model, proj = fresh_state(eps, seed=2)
        rng = np.random.default_rng(22)
        proj = random_projector({lv: eps[0].levels[lv].channels for lv in eps[0].levels},
                                len(proj.biases[Level.L4]), rng)
        return eps, model, proj

    def test_tpf_phase_bitwise(self):
        """Also at 24 classes, where 3 epochs sample at most 8 of an
        episode's classes (its 2 present ones and 2 absent draws per
        epoch), so that most rows of train's table are never read."""
        cfg = TrainConfig(learning_rate=0.3, epochs=3, batch_size=5, phase=Phase.TPF_ONLY,
                          seed=4)
        for num_classes in (6, 24):
            eps, model, proj = self._state(num_classes)
            got_model, got_proj, got_losses = train(model, proj, eps, cfg)
            want_model, want_proj, want_losses = oracle_train(model, proj, eps, cfg)
            assert got_losses == want_losses
            for got, want in zip(_params(got_model, got_proj), _params(want_model, want_proj)):
                assert got.tobytes() == want.tobytes()

    def test_tpf_phase_within_tolerance_of_map_form(self):
        """The closed form against the float32 correlation maps and
        their pooled vectors that TPF trained on before: after three
        epochs, losses within 1e-7 relative and every parameter array
        within 1e-6 of its largest entry (measured: 4.7e-9 and 1.5e-7)."""
        eps, model, proj = self._state()
        cfg = TrainConfig(learning_rate=0.3, epochs=3, batch_size=5, phase=Phase.TPF_ONLY,
                          seed=4)
        got_model, got_proj, got_losses = train(model, proj, eps, cfg)
        want_model, want_proj, want_losses = oracle_train(model, proj, eps, cfg, tpf_maps=True)
        np.testing.assert_allclose(got_losses, want_losses, rtol=1e-7)
        for got, want in zip(_params(got_model, got_proj), _params(want_model, want_proj)):
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        for want, start in zip(_params(want_model, want_proj)[:4], _params(model, proj)):
            assert not np.array_equal(want, start)

    def test_joint_phase_within_tolerance(self):
        eps, model, proj = self._state()
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=5, phase=Phase.JOINT,
                          seed=4)
        got_model, got_proj, got_losses = train(model, proj, eps, cfg)
        want_model, want_proj, want_losses = oracle_train(model, proj, eps, cfg)
        np.testing.assert_allclose(got_losses, want_losses, rtol=1e-7)
        for got, want, start in zip(_params(got_model, got_proj),
                                    _params(want_model, want_proj),
                                    _params(model, proj)):
            assert not np.array_equal(want, start)
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_joint_phase_matches_unrounded_oracle(self):
        """On 64 default episodes one JOINT epoch moves train 8e-4 away
        from the rounding oracle: a max-pool argmax or a ReLU that the
        float32 rounding flips sends a whole gradient elsewhere. Without
        that rounding the per-pair oracle agrees with the batched
        contraction to float32 resolution (measured: bitwise)."""
        eps = synth_episodes(SynthConfig(), 5, 64)
        model, proj = fresh_state(eps, seed=5)
        cfg = TrainConfig(learning_rate=0.05, epochs=1, phase=Phase.JOINT, seed=5)
        got_model, got_proj, got_losses = train(model, proj, eps, cfg)
        want_model, want_proj, want_losses = oracle_train(model, proj, eps, cfg,
                                                          round_levels=False)
        np.testing.assert_allclose(got_losses, want_losses, rtol=1e-12)
        for got, want in zip(_params(got_model, got_proj), _params(want_model, want_proj)):
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
