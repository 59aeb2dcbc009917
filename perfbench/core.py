"""One benchmark run: make the inputs, set up, measure for the window,
check every output, and compute the end-to-end and per-layer metrics.

The run calls only the library's public functions and times them from
here; stage times come from the split that ``run_inference`` returns.
End-to-end timings are read at the reference speed of ``calibrate.py``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from preselect import checkpoint, cost, pack_io
from preselect.episodes import build_prototype, correlate, fuse_levels
from preselect.metrics import average_precision, collect_detections, evaluate
from preselect.scorer import loss_and_grads
from preselect.selector import All, TopN, run_inference

from calibrate import Speed, local_kernel, scaled
from tracing import NullTracer, Tracer, median, pct
from workloads import Workload, make_inputs, pack_digest, same_model, two_phase

PASS_VISITS = 32      # episode visits per heavy-ratio pass, as in criterion 6
STAGES = (("setup", "episodes.prototype"), ("scoring", "scorer.scoring"),
          ("fusion", "episodes.fusion"), ("detect", "selector.detect"))


@dataclass
class Ops:
    """Operations attempted and the ones whose output check failed."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


@dataclass
class Query:
    kind: str               # "full" or "minor"
    seconds: float          # wall time of the run_inference call
    kernel: float           # the reference kernel's time right after it
    timings: dict
    heavy_calls: int
    selected: int
    useful: int             # selected classes that are present
    scored: int             # classes the scorer scored
    visit: int
    span: int | None        # id of the run_inference span when traced


def _scores_ok(res) -> bool:
    return all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in res.scores.values())


def _minor_ok(res, full) -> bool:
    """Detections equal the full loop's restricted to the selection."""
    chosen = set(res.selected)
    same = all(res.detections[cid] == (full.detections[cid] if cid in chosen else [])
               for cid in full.detections)
    return (same and res.detections.keys() == full.detections.keys()
            and res.heavy_calls == len(res.selected) and _scores_ok(res))


def _full_ok(res, ep) -> bool:
    return (sorted(res.selected) == ep.class_ids
            and res.heavy_calls == len(ep.class_ids) and _scores_ok(res))


def run_visits(model, proj, episodes, wl: Workload, visits: range, ops: Ops,
               tracer, trace: bool, queries: list, last_full: dict,
               speed: Speed) -> None:
    """Closed loop over the pack: each visit runs one full query and
    wl.minor_per_full minor queries on one episode, full first on even
    visits and last on odd ones. When tracing, visits alternate in pairs
    between traced and untraced so the difference is the tracing overhead.
    The reference kernel is timed after every query. Appends the query
    samples and keeps the last full result per episode."""
    minor = TopN(wl.top_n)
    off = NullTracer()
    for visit in visits:
        ei = visit % len(episodes)
        ep = episodes[ei]
        traced = trace and (visit // 2) % 2 == 0
        tr = tracer if traced else off
        kinds = ["full"] + ["minor"] * wl.minor_per_full
        if visit % 2:
            kinds.reverse()
        done = []
        for n, kind in enumerate(kinds):
            strategy = All() if kind == "full" else minor
            t0 = perf_counter()
            with tr.span("selector.run_inference", f"v{visit}.{n}", kind=kind) as sp:
                res = run_inference(model, proj, ep, strategy)
            dt = perf_counter() - t0
            kernel = speed.sample()
            if traced:
                tr.derived(sp, [(span, res.timings[key]) for key, span in STAGES])
            done.append((kind, res, dt, kernel, sp))
        full = next(res for kind, res, *_ in done if kind == "full")
        last_full[ei] = full
        for kind, res, dt, kernel, sp in done:
            ok = _full_ok(res, ep) if kind == "full" else _minor_ok(res, full)
            # The stage split can never exceed the call's wall time.
            ok = ok and sum(res.timings.values()) <= dt
            ops.check(ok, f"{kind} query on {ep.query_id}")
            queries.append(Query(kind, dt, kernel, dict(res.timings), res.heavy_calls,
                                 len(res.selected),
                                 len(set(res.selected) & ep.present_classes),
                                 len(res.scores), visit, sp["id"] if traced else None))


def run_eval(model, proj, episodes, wl: Workload, ops: Ops, tracer, first,
             speed: Speed):
    """One metrics.evaluate call over the whole pack; returns (episodes per
    second at the reference speed, the report's values). Every call must
    repeat the first one's."""
    def call():
        with tracer.span("metrics.evaluate"):
            return evaluate(model, proj, episodes, TopN(wl.top_n))
    rep, seconds, kernel = speed.timed(call)
    rate = len(episodes) / scaled(seconds, kernel)
    values = (rep.ap_full, rep.ap_minor, rep.omission_rate, rep.mean_recall)
    ok = (all(math.isfinite(v) for v in values)
          and 0 < rep.ap_full <= 1 and 0 <= rep.ap_minor <= 1
          and 0 <= rep.mean_recall <= 1 and (first is None or values == first))
    ops.check(ok, f"evaluate values {values}")
    return rate, values


def retrain(wl: Workload, train_eps, seed: int, ops: Ops, tracer, ckpt: str,
            model_proj, speed: Speed):
    """Re-run the two-phase recipe, with epoch times at the reference speed;
    it must reproduce the checkpoint's bytes."""
    p = two_phase(wl, train_eps, seed, tracer, speed)
    ops.check(all(math.isfinite(x) for x in p.losses), "training loss")
    redo = os.path.join(os.path.dirname(ckpt), "retrained.ckpt")
    with tracer.span("checkpoint.save_checkpoint"):
        checkpoint.save_checkpoint(redo, p.model, p.proj)
    with open(redo, "rb") as f, open(ckpt, "rb") as g:
        same_bytes = f.read() == g.read()
    ops.check(same_bytes and same_model(checkpoint.load_checkpoint(redo), model_proj),
              "retrained checkpoint reloads and matches")
    return p


def _load(inputs, tracer):
    with tracer.span("pack_io.read_pack"):
        episodes = pack_io.read_pack(inputs.query_pack)
    with tracer.span("checkpoint.load_checkpoint"):
        model_proj = checkpoint.load_checkpoint(inputs.ckpt)
    return episodes, model_proj


def _fixed_batches(model, proj, episodes, size: int = 32, count: int = 4):
    """Fused (map, label) batches built the way the JOINT phase builds them."""
    pairs = []
    for ep in episodes:
        for cid in ep.class_ids:
            proto = build_prototype(cid, ep.supports[cid])
            per_level = {lv: correlate(ep.levels[lv], proto.vectors[lv])
                         for lv in ep.levels}
            pairs.append((fuse_levels(per_level, proj), int(cid in ep.present_classes)))
    reps = -(-size * count // len(pairs))
    pairs = (pairs * reps)[: size * count]
    return [pairs[i : i + size] for i in range(0, len(pairs), size)]


def _time_reps(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return median(times)


def run(wl: Workload, seed: int, seconds: float, trace: bool, workdir) -> dict:
    ops = Ops()
    tracer = Tracer() if trace else NullTracer()
    speed = Speed()

    # Untimed: inputs from the seed, and the checkpoint by the program's
    # own train + save_checkpoint.
    inputs, train_eps = make_inputs(wl, seed, workdir, tracer, speed)
    ops.check(all(math.isfinite(x) for x in inputs.first_pass.losses), "training loss")

    # The measured window: rounds of one set-up (read the pack, load the
    # checkpoint), one training pass, a slice of query visits and one
    # evaluate call, so every kind of operation samples the whole window.
    # Each round-level operation runs between two kernel bursts.
    rounds, queries, last_full, quality = [], [], {}, None
    t_window = perf_counter()
    while not rounds or perf_counter() - t_window < seconds:
        def setup():
            with tracer.span("bench.setup"):
                return _load(inputs, tracer)
        (loaded_eps, loaded_model), setup_s, setup_kernel = speed.timed(setup)
        if not rounds:
            query_eps, model_proj = loaded_eps, loaded_model
            ops.check(pack_digest(query_eps) == inputs.query_digest,
                      "query pack round trip")
            ops.check(same_model(model_proj, (inputs.first_pass.model,
                                              inputs.first_pass.proj)),
                      "checkpoint round trip")
            model, proj = model_proj
        del loaded_eps, loaded_model
        train_pass = retrain(wl, train_eps, seed, ops, tracer, inputs.ckpt, model_proj,
                             speed)
        start = len(rounds) * wl.visits_per_round
        visits = range(start, start + wl.visits_per_round)
        run_visits(model, proj, query_eps, wl, visits, ops, tracer, trace, queries,
                   last_full, speed)
        eval_rate, quality = run_eval(model, proj, query_eps, wl, ops, tracer, quality,
                                      speed)
        rounds.append({"setup_s": scaled(setup_s, setup_kernel),
                       "eval_queries_per_s": eval_rate,
                       "joint_epoch_s": train_pass.joint_epoch_s,
                       "tpf_epoch_s": train_pass.tpf_epoch_s,
                       "raw_setup_s": setup_s, "setup_kernel_ms": 1e3 * setup_kernel})
    window_s = perf_counter() - t_window

    # Every timing is read at the reference speed; the run reports medians
    # over its rounds and its queries (see README.md).
    for q, k in zip(queries, local_kernel([q.kernel for q in queries])):
        q.kernel = float(k)
    full_q = [q for q in queries if q.kind == "full"]
    minor_q = [q for q in queries if q.kind == "minor"]
    e2e = {"ap_full": quality[0], "ap_minor": quality[1], "selection_recall": quality[3]}
    for key in ("setup_s", "eval_queries_per_s", "joint_epoch_s", "tpf_epoch_s"):
        e2e[key] = median([r[key] for r in rounds])
    for kind, qs in (("minor", minor_q), ("full", full_q)):
        e2e.update(latency(kind, [scaled(q.seconds, q.kernel) for q in qs]))
    untraced_minor = [q.seconds for q in minor_q if q.span is None]
    ratios = pass_ratios(queries)
    info = {
        "window_s": window_s,
        "rounds": rounds,
        "query_ms": {kind: [round(1e3 * q.seconds, 4) for q in queries if q.kind == kind]
                     for kind in ("full", "minor")},
        "kernel_ms": [round(1e3 * k, 4) for k in speed.samples],
        "kernel_ms_p50": 1e3 * median(speed.samples),
        "samples": {"full_queries": len(full_q), "minor_queries": len(minor_q),
                    "rounds": len(rounds)},
        "omission_rate_pct": quality[2],
        "op_failure_ratio": ops.failed / ops.attempted,
        "heavy_ratio_passes": ratios["heavy_ratio"],
        "scoring_overhead_passes": ratios["scoring_overhead"],
        "reference_minor_over_full": (
            cost.predict_time(cost.REFERENCE_PROFILE, 20, 10, True)
            / cost.predict_time(cost.REFERENCE_PROFILE, 20, 20, False)),
    }
    layers = None
    if trace:
        layers = per_layer(wl, tracer, queries, last_full, query_eps, train_eps[:4],
                           model, proj, inputs, quality, ops, untraced_minor)
    return {"ops": ops, "end_to_end": e2e, "per_layer": layers, "info": info,
            "tracer": tracer}


def latency(kind: str, seconds: list[float]) -> dict[str, float]:
    """Latency p50 and p90 over all queries of a kind, and their throughput:
    queries completed over their summed time."""
    return {f"{kind}_query_ms_p50": 1e3 * median(seconds),
            f"{kind}_query_ms_p90": 1e3 * pct(seconds, 90),
            f"{kind}_queries_per_s": len(seconds) / sum(seconds)}


def pass_ratios(queries: list[Query]) -> dict[str, list[float]]:
    """The paper's two ratios per pass of PASS_VISITS visits, as criterion 6
    forms them: mean minor heavy time over mean full heavy time, and mean
    minor scoring time over mean full total time."""
    by_pass: dict[int, list[Query]] = {}
    for q in queries:
        by_pass.setdefault(q.visit // PASS_VISITS, []).append(q)
    out = {"heavy_ratio": [], "scoring_overhead": []}
    for qs in by_pass.values():
        r = _ratios(qs)
        if r:
            out["heavy_ratio"].append(r[0])
            out["scoring_overhead"].append(r[1])
    return out


def _ratios(qs: list[Query]):
    full = [q.timings for q in qs if q.kind == "full"]
    minor = [q.timings for q in qs if q.kind == "minor"]
    if not full or not minor:
        return None
    heavy_full = np.mean([t["fusion"] + t["detect"] for t in full])
    heavy_minor = np.mean([t["fusion"] + t["detect"] for t in minor])
    full_total = np.mean([sum(t.values()) for t in full])
    return (float(heavy_minor / heavy_full),
            float(np.mean([t["scoring"] for t in minor]) / full_total))


def per_layer(wl, tracer: Tracer, queries, last_full, query_eps, batch_eps,
              model, proj, inputs, quality, ops, untraced_minor) -> dict:
    out: dict[str, float] = {}
    spans = {}
    for s in tracer.spans:
        spans.setdefault(s["name"], []).append(s["end"] - s["start"])
    out["pack_io.read_s"] = median(spans["pack_io.read_pack"])
    out["pack_io.read_mb"] = os.path.getsize(inputs.query_pack) / 1e6
    out["pack_io.tensors_read"] = sum(
        len(ep.levels) + sum(len(shot) for shots in ep.supports.values() for shot in shots)
        for ep in query_eps)
    out["checkpoint.load_ms"] = 1e3 * median(spans["checkpoint.load_checkpoint"])

    # Stage self times from the spans of the traced queries.
    own = tracer.self_times()
    stage: dict[int, dict[str, float]] = {}
    for s in tracer.spans:
        if s.get("derived"):
            stage.setdefault(s["parent"], {})[s["name"]] = own[s["id"]]
    traced = [q for q in queries if q.span is not None]
    for kind in ("full", "minor"):
        qs = [q for q in traced if q.kind == kind]
        for _, name in STAGES:
            out[f"{name}_ms.{kind}"] = 1e3 * median([stage[q.span][name] for q in qs])
        out[f"episodes.fusion_ms_per_call.{kind}"] = 1e3 * median(
            [stage[q.span]["episodes.fusion"] / max(q.heavy_calls, 1) for q in qs])
        out[f"selector.other_ms.{kind}"] = 1e3 * median([own[q.span] for q in qs])
        out[f"selector.query_ms.{kind}"] = 1e3 * median(
            [tracer.spans[q.span]["end"] - tracer.spans[q.span]["start"] for q in qs])
        out[f"selector.heavy_calls.{kind}"] = median([q.heavy_calls for q in qs])
        heavy = sum(q.heavy_calls for q in qs)
        out[f"selector.useful_heavy_ratio.{kind}"] = sum(q.useful for q in qs) / heavy
        out[f"selector.useful_heavy_base.{kind}"] = heavy
    out["scorer.classes_scored"] = median([q.scored for q in traced])
    heavy_ratio, overhead = _ratios(traced)
    out["selector.heavy_ratio"] = heavy_ratio
    out["selector.scoring_overhead"] = overhead

    # Scorer forward/backward on fixed JOINT-phase batches.
    batches = _fixed_batches(model, proj, batch_eps)
    with tracer.span("scorer.loss_and_grads"):
        plain = median([_time_reps(lambda b=b: loss_and_grads(model, b, False), 3)
                        for b in batches])
        full = median([_time_reps(lambda b=b: loss_and_grads(model, b, True), 3)
                       for b in batches])
    out["scorer.loss_and_grads_ms"] = 1e3 * plain
    out["scorer.input_grads_ms"] = 1e3 * (full - plain)
    out["scorer.pairs_per_epoch"] = inputs.pairs_per_epoch

    # AP over the last full-loop results of every queried episode.
    eps = [query_eps[i] for i in sorted(last_full)]
    dets, gts = collect_detections(eps, [last_full[i] for i in sorted(last_full)])
    with tracer.span("metrics.average_precision"):
        out["metrics.ap_ms"] = 1e3 * _time_reps(lambda: average_precision(dets, gts), 5)
    out["metrics.omission_rate_pct"] = quality[2]

    # Cost model fitted on the traced queries' stage split.
    records = [cost.TimingRecord(n_candidates=wl.classes, n_selected=q.selected,
                                 scoring_seconds=q.timings["scoring"],
                                 fusion_seconds=q.timings["fusion"],
                                 detect_seconds=q.timings["detect"],
                                 setup_seconds=q.timings["setup"]) for q in traced]
    with tracer.span("cost.measure"):
        fit = cost.measure(records, n_ref=wl.classes)
    out["cost.heavy_ms_per_class"] = 1e3 * cost.per_class_cost(fit.profile)
    out["cost.scoring_ms_per_class"] = 1e3 * fit.profile.t_tpf_per_class
    out["cost.fit_residual_ms"] = 1e3 * fit.residual
    minor_pred = cost.predict_time(fit.profile, wl.classes, wl.top_n, True)
    out["cost.predicted_minor_ms"] = 1e3 * minor_pred
    out["cost.predicted_minor_over_full"] = minor_pred / cost.predict_time(
        fit.profile, wl.classes, wl.classes, False)

    traced_minor = [q.seconds for q in traced if q.kind == "minor"]
    out["bench.trace_overhead_pct"] = 100.0 * (median(traced_minor)
                                               / median(untraced_minor) - 1.0)
    out["bench.op_failure_ratio"] = ops.failed / ops.attempted
    return out

