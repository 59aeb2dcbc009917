"""The benchmark's workloads and the untimed step that makes their inputs.

Every workload is a closed loop with one client: each query starts when the
previous one has returned. Every workload runs every kind of operation, so
every metric exists on every workload; the sizes decide which layer a
workload stresses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from calibrate import Speed, scaled
from preselect import checkpoint, pack_io
from preselect.episodes import FusionProjector, SynthConfig, synth_episodes
from preselect.scorer import Phase, ScoreModel, TrainConfig, train
from preselect.tensor_ops import Level

JOINT_LR = 0.05
TPF_LR = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    k: int
    top_n: int
    query_episodes: int   # the pack that is queried and evaluated
    train_episodes: int   # the pack the checkpoint is trained on
    joint_epochs: int
    tpf_epochs: int
    minor_per_full: int   # minor queries per full query on each episode visit
    visits_per_round: int  # query visits between a training pass and an evaluate
    present: int = 3
    hidden: int = 512

    def synth(self) -> SynthConfig:
        return SynthConfig(num_classes=self.classes, present_count=self.present,
                           k=self.k)


WORKLOADS = {
    # The paper's operating point; fusion+detect dominate a query.
    "paper_20way": Workload("paper_20way", classes=20, k=3, top_n=10,
                            query_episodes=64, train_episodes=64,
                            joint_epochs=2, tpf_epochs=8, minor_per_full=1,
                            visits_per_round=64),
    # Prototype setup and scoring dominate a minor query.
    "many_classes": Workload("many_classes", classes=100, k=5, top_n=5,
                             query_episodes=24, train_episodes=32,
                             joint_epochs=2, tpf_epochs=8, minor_per_full=3,
                             visits_per_round=12),
}


def toy(wl: Workload) -> Workload:
    """A seconds-long version of a workload, for the smoke check."""
    return replace(wl, classes=min(wl.classes, 8), top_n=min(wl.top_n, 4),
                   k=2, present=2, query_episodes=3, train_episodes=3,
                   joint_epochs=1, tpf_epochs=2, hidden=16, visits_per_round=4)


def config_hash(wl: Workload, extra: dict) -> str:
    blob = json.dumps({**asdict(wl), **extra}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def pack_digest(episodes) -> str:
    """Digest of every tensor and label of a pack, in pack order."""
    h = hashlib.sha256()
    for ep in episodes:
        h.update(json.dumps([ep.query_id, sorted(ep.present_classes),
                             sorted((c, b) for c, b in ep.gt_boxes.items())]).encode())
        for lv in ep.levels:
            h.update(ep.levels[lv].data.tobytes())
        for cid in ep.class_ids:
            for shot in ep.supports[cid]:
                for lv in shot:
                    h.update(shot[lv].data.tobytes())
    return h.hexdigest()


@dataclass
class TrainPass:
    model: ScoreModel
    proj: FusionProjector
    joint_epoch_s: float
    tpf_epoch_s: float
    losses: list[float]


def two_phase(wl: Workload, episodes, seed: int, tracer, speed: Speed) -> TrainPass:
    """The program's own two-phase recipe: one train call per phase. Each
    phase runs between two kernel bursts, and its epoch time is read at the
    reference speed."""
    first = episodes[0]
    channels = {lv: first.levels[lv].channels for lv in first.levels}
    c4 = channels[Level.L4]
    model = ScoreModel.init(c4, hidden=wl.hidden, seed=seed)
    proj = FusionProjector.identity(channels, c4)
    per_epoch, losses = {}, []
    for phase, lr, epochs in ((Phase.JOINT, JOINT_LR, wl.joint_epochs),
                              (Phase.TPF_ONLY, TPF_LR, wl.tpf_epochs)):
        def call(model=model, proj=proj, phase=phase, lr=lr, epochs=epochs):
            with tracer.span("scorer.train", phase=phase.value):
                return train(model, proj, episodes,
                             TrainConfig(learning_rate=lr, epochs=epochs, phase=phase,
                                         seed=seed))
        (model, proj, phase_losses), seconds, kernel = speed.timed(call)
        per_epoch[phase] = scaled(seconds, kernel) / epochs
        losses += phase_losses
    return TrainPass(model, proj, per_epoch[Phase.JOINT], per_epoch[Phase.TPF_ONLY],
                     losses)


@dataclass
class Inputs:
    query_pack: str
    ckpt: str
    query_digest: str
    first_pass: TrainPass    # the pass that made the checkpoint
    pairs_per_epoch: int


def pairs_per_epoch(episodes, negative_ratio: int = 1) -> int:
    """Pairs the trainer samples each epoch: every present class plus
    negative_ratio absent draws per present class (at least one)."""
    total = 0
    for ep in episodes:
        n_pos = len(ep.present_classes)
        n_abs = len(ep.class_ids) - n_pos
        total += n_pos + min(n_abs, max(n_pos, 1) * negative_ratio)
    return total


def make_inputs(wl: Workload, seed: int, workdir, tracer,
                speed: Speed) -> tuple[Inputs, list]:
    """Generate the episodes from the seed, write the query pack, and train
    and save the checkpoint. Returns the inputs and the training episodes."""
    cfg = wl.synth()
    train_eps = synth_episodes(cfg, 2 * seed + 1, wl.train_episodes)
    query_eps = synth_episodes(cfg, 2 * seed, wl.query_episodes)
    query_pack = str(workdir / "query.epk")
    pack_io.write_pack(query_pack, query_eps, cfg)
    first = two_phase(wl, train_eps, seed, tracer, speed)
    ckpt = str(workdir / "model.ckpt")
    checkpoint.save_checkpoint(ckpt, first.model, first.proj)
    inputs = Inputs(query_pack, ckpt, pack_digest(query_eps), first,
                    pairs_per_epoch(train_eps))
    return inputs, train_eps


def same_model(a: tuple[ScoreModel, FusionProjector],
               b: tuple[ScoreModel, FusionProjector]) -> bool:
    (ma, pa), (mb, pb) = a, b
    arrays = [(getattr(ma, n), getattr(mb, n)) for n in ("w1", "b1", "w2", "b2")]
    arrays += [(pa.weights[lv], pb.weights[lv]) for lv in pa.weights]
    arrays += [(pa.biases[lv], pb.biases[lv]) for lv in pa.biases]
    return (np.float32(ma.eps) == np.float32(mb.eps)
            and all(np.array_equal(x, y) for x, y in arrays))
