"""Acceptance suite.

Eight criteria, one test and one printed PASS/FAIL line each:

1. Both scorer forwards, the closed form (inference and TPF) and the map
   form (JOINT), match nested-loop oracles (1e-5 rel).
2. Analytic gradients match central finite differences (1e-4 rel).
3. TopN(all) and Adaptive(0) are exactly equivalent to the full loop.
4. Trained pre-selection reaches >= 0.90 recall with >= -5.0 AP change.
5. Reference cost profile reproduces the published loop times.
6. Measured minor-loop heavy time <= 0.65x full; scoring overhead <= 10%.
7. Omission-rate arithmetic matches the published round-trip values.
8. Generation and training are byte-identical across repeat runs.
"""

import math
import time

import numpy as np
import pytest

from preselect.cli import EXIT_OK, main
from preselect.cost import REFERENCE_PROFILE, predict_time
from preselect.episodes import FusionProjector, SynthConfig, synth_episodes
from preselect.metrics import average_precision, collect_detections, evaluate, omission_rate
from preselect.scorer import (POSITIVE, Phase, ScoreModel, TrainConfig, _l4_vectors, _mlp,
                              _softmax, loss_and_grads, query_scores, train)
from preselect.selector import Adaptive, All, TopN, run_inference
from preselect.tensor_ops import FeatureMap, Level

from helpers import map_vectors


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# --- independent nested-loop oracles -----------------------------------------

def oracle_global(data):
    c, h, w = data.shape
    out = []
    for ch in range(c):
        vals = [float(data[ch, y, x]) for y in range(h) for x in range(w)]
        mean = sum(vals) / len(vals)
        std = math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))
        zs = [(v - mean) / (std + ScoreModel.eps) for v in vals]
        out.append(sum(z if z > 0 else 0.0 for z in zs) / len(zs))
    return out


def oracle_local(data):
    c, h, w = data.shape
    ph, pw = h // 2, w // 2
    out = []
    for ch in range(c):
        acc = 0.0
        for i in range(ph):
            for j in range(pw):
                acc += max(
                    float(data[ch, 2 * i + dy, 2 * j + dx])
                    for dy in range(2)
                    for dx in range(2)
                )
        out.append(acc / (ph * pw))
    return out


def oracle_forward(model, data):
    v = oracle_local(data) + oracle_global(data)
    hidden = []
    for i in range(model.w1.shape[0]):
        acc = float(model.b1[i])
        for j in range(len(v)):
            acc += float(model.w1[i, j]) * v[j]
        hidden.append(max(acc, 0.0))
    logits = []
    for i in range(2):
        acc = float(model.b2[i])
        for j in range(len(hidden)):
            acc += float(model.w2[i, j]) * hidden[j]
        logits.append(acc)
    m = max(logits)
    exps = [math.exp(z - m) for z in logits]
    total = sum(exps)
    return [e / total for e in exps], logits


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(float(np.abs(want).max()), 1e-8)
    return float(np.abs(got - want).max()) / scale


def test_criterion_1_equation_oracles(capsys):
    """Each map goes through the two forwards the program runs. The closed
    form scores it from its query statistics with an all-ones prototype,
    whose correlation map is the map itself, then runs the float32 MLP as
    inference does and the float64 MLP as the TPF phase does. The map form
    builds its confidence vector from the map itself, as JOINT does, and
    runs the float64 MLP and softmax."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = {"closed": 0.0, "maps": 0.0}
    n_maps = 0
    for _ in range(100):
        c = int(rng.choice([2, 8, 64]))
        h = int(rng.choice([4, 6, 8]))
        w = int(rng.choice([4, 6, 8]))
        data = rng.standard_normal((c, h, w)).astype(np.float32)
        model = ScoreModel.init(c, hidden=8, seed=int(rng.integers(1 << 30)))
        o_probs, o_logits = oracle_forward(model, data)

        ones = np.ones((1, c), np.float32)
        score = query_scores(model, data, ones)[0]
        v = _l4_vectors(data, ones)
        logits = _mlp(model, v)[1][0]
        tpf_probs = _softmax(_mlp(model, v.astype(np.float64))[1])[0]
        worst["closed"] = max(worst["closed"], rel_err(score, o_probs[POSITIVE]),
                              rel_err(logits, o_logits), rel_err(tpf_probs, o_probs))

        logits = _mlp(model, map_vectors(data[None]))[1]
        probs = _softmax(logits)[0]
        worst["maps"] = max(worst["maps"], rel_err(probs, o_probs),
                            rel_err(logits[0], o_logits))
        n_maps += 1
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) < 1e-5 and elapsed < 10.0
    report(capsys, 1, ok,
           f"{n_maps} random maps, worst rel err {worst['closed']:.2e} in the closed form "
           f"and {worst['maps']:.2e} on the maps (tol 1e-5), {elapsed:.1f}s (< 10s)")


def test_criterion_2_gradient_check(capsys):
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    model = ScoreModel(
        w1=rng.standard_normal((3, 4)).astype(np.float32),
        b1=rng.standard_normal(3).astype(np.float32),
        w2=rng.standard_normal((2, 3)).astype(np.float32),
        b2=rng.standard_normal(2).astype(np.float32),
    )
    batch = [
        (FeatureMap(rng.standard_normal((2, 4, 4)).astype(np.float32)), i % 2)
        for i in range(4)
    ]
    _, grads, _ = loss_and_grads(model, batch)

    h = 1e-3
    worst = 0.0
    for param in ("w1", "b1", "w2", "b2"):
        arr = getattr(model, param)
        fd = np.zeros_like(arr, dtype=np.float64)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up, _, _ = loss_and_grads(model, batch)
            arr[idx] = orig - h
            down, _, _ = loss_and_grads(model, batch)
            arr[idx] = orig
            fd[idx] = (up - down) / (2 * h)
        worst = max(worst, rel_err(getattr(grads, param), fd))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5.0
    report(capsys, 2, ok,
           f"2-channel model, worst grad rel err {worst:.2e} (tol 1e-4), "
           f"{elapsed:.1f}s (< 5s)")


def test_criterion_3_full_loop_equivalence(capsys):
    cfg = SynthConfig()
    episodes = synth_episodes(cfg, 7, 32)
    channels = {lv: episodes[0].levels[lv].channels for lv in episodes[0].levels}
    c4 = channels[Level.L4]
    model = ScoreModel.init(c4, seed=7)
    proj = FusionProjector.identity(channels, c4)
    n = len(episodes[0].class_ids)

    equal = True
    variants = {}
    for tag, strat in (("all", All()), ("topn", TopN(n)), ("adaptive", Adaptive(0.0))):
        variants[tag] = [run_inference(model, proj, ep, strat) for ep in episodes]
    for tag in ("topn", "adaptive"):
        for base, other in zip(variants["all"], variants[tag]):
            if base.detections != other.detections or \
                    sorted(base.selected) != sorted(other.selected):
                equal = False
    aps = {}
    for tag, results in variants.items():
        dets, gts = collect_detections(episodes, results)
        aps[tag], _ = average_precision(dets, gts)
    same_ap = aps["all"] == aps["topn"] == aps["adaptive"]
    rate = omission_rate(aps["all"], aps["topn"]) if aps["all"] > 0 else 0.0
    ok = equal and same_ap and rate == 0.0
    report(capsys, 3, ok,
           f"32 episodes: TopN({n})/Adaptive(0) detections identical to All "
           f"({equal}), AP equal ({same_ap}), OR {rate:.2f}")


def test_criterion_4_synthetic_recall(capsys):
    start = time.perf_counter()
    cfg = SynthConfig()
    train_eps = synth_episodes(cfg, 0, 256)
    eval_eps = synth_episodes(cfg, 1, 64)
    channels = {lv: train_eps[0].levels[lv].channels for lv in train_eps[0].levels}
    c4 = channels[Level.L4]
    model = ScoreModel.init(c4, seed=0)
    proj = FusionProjector.identity(channels, c4)
    model, proj, _ = train(
        model, proj, train_eps,
        TrainConfig(learning_rate=0.05, epochs=4, phase=Phase.JOINT, seed=0),
    )
    model, proj, _ = train(
        model, proj, train_eps,
        TrainConfig(learning_rate=0.5, epochs=24, phase=Phase.TPF_ONLY, seed=0),
    )
    rep = evaluate(model, proj, eval_eps, TopN(10))
    elapsed = time.perf_counter() - start
    ok = rep.mean_recall >= 0.90 and rep.omission_rate >= -5.0 and elapsed < 300
    report(capsys, 4, ok,
           f"256 train / 64 eval episodes, TopN(10): recall "
           f"{rep.mean_recall:.4f} (>= 0.90), OR {rep.omission_rate:.2f} "
           f"(>= -5.0), {elapsed:.0f}s (< 300s)")


def test_criterion_5_cost_model(capsys):
    full = predict_time(REFERENCE_PROFILE, 20, 20, use_filter=False)
    minor = predict_time(REFERENCE_PROFILE, 20, 10, use_filter=True)
    dev = abs(minor - 0.392) / 0.392
    ok = abs(full - 0.733) < 1e-9 and dev < 0.10
    report(capsys, 5, ok,
           f"reference profile: full {full:.4f}s (= 0.733), "
           f"minor {minor:.4f}s ({dev * 100:.1f}% from 0.392, < 10%)")


def test_criterion_6_measured_speedup(capsys):
    cfg = SynthConfig()
    episodes = synth_episodes(cfg, 11, 32)
    channels = {lv: episodes[0].levels[lv].channels for lv in episodes[0].levels}
    c4 = channels[Level.L4]
    model = ScoreModel.init(c4, seed=11)
    proj = FusionProjector.identity(channels, c4)

    def once():
        agg = {"full": {}, "minor": {}}
        for ep in episodes:
            for tag, strat in (("full", All()), ("minor", TopN(10))):
                res = run_inference(model, proj, ep, strat)
                for k, v in res.timings.items():
                    agg[tag][k] = agg[tag].get(k, 0.0) + v
        heavy_full = agg["full"]["fusion"] + agg["full"]["detect"]
        heavy_minor = agg["minor"]["fusion"] + agg["minor"]["detect"]
        full_total = sum(agg["full"].values())
        return heavy_minor / heavy_full, agg["minor"]["scoring"] / full_total

    # Best of two passes damps scheduler noise.
    ratios, overheads = zip(once(), once())
    ratio, overhead = min(ratios), min(overheads)
    ok = ratio <= 0.65 and overhead <= 0.10
    report(capsys, 6, ok,
           f"TopN(10) of 20 over 32 episodes: heavy-stage ratio {ratio:.3f} "
           f"(<= 0.65), scoring overhead {overhead * 100:.1f}% (<= 10%)")


def test_criterion_7_metric_arithmetic(capsys):
    checks = [
        omission_rate(10.0, 9.0) == pytest.approx(-10.0, abs=1e-12),
        all(omission_rate(x, x) == 0.0 for x in (0.5, 1.0, 8.01, 42.0)),
    ]
    ap_minor = 8.01 * (1.0 - 1.51 / 100.0)
    checks.append(abs(ap_minor - 7.889) < 1e-3)
    checks.append(omission_rate(8.01, ap_minor) == pytest.approx(-1.51, abs=1e-9))
    ok = all(checks)
    report(capsys, 7, ok,
           f"omission_rate(10,9)=-10, identity=0, round-trip 8.01/-1.51 -> "
           f"{ap_minor:.4f} (~7.889 within 1e-3)")


def test_criterion_8_determinism(capsys, tmp_path):
    gen = ["gen", "--classes", "8", "--present", "2", "--episodes", "8",
           "--shots", "2", "--seed", "3"]
    trn = ["train", "--phases", "joint,tpf", "--joint-epochs", "2",
           "--epochs", "3", "--hidden", "16", "--seed", "3"]
    packs, ckpts = [], []
    for run in ("a", "b"):
        pack = tmp_path / f"pack_{run}.epk"
        ckpt = tmp_path / f"model_{run}.ckpt"
        assert main(gen + ["-o", str(pack)]) == EXIT_OK
        assert main(trn + ["--pack", str(pack), "-o", str(ckpt)]) == EXIT_OK
        packs.append(pack.read_bytes())
        ckpts.append(ckpt.read_bytes())
    ok = packs[0] == packs[1] and ckpts[0] == ckpts[1]
    report(capsys, 8, ok,
           f"two gen+train runs: pack bytes identical ({packs[0] == packs[1]}), "
           f"checkpoint bytes identical ({ckpts[0] == ckpts[1]})")
