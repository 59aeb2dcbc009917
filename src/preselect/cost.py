"""Per-module latency model: predict full-loop vs. minor-loop inference
time from a cost profile, and fit a profile back from measured timings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CostProfile:
    """Stage latencies in seconds.

    t_backbone is charged once per query; t_fusion/t_rpn/t_head are
    full-loop totals over n_ref classes; t_tpf_per_class is the
    per-class scoring cost.
    """

    t_backbone: float
    t_fusion: float
    t_rpn: float
    t_head: float
    t_tpf_per_class: float
    n_ref: int

    def __post_init__(self):
        for name in ("t_backbone", "t_fusion", "t_rpn", "t_head", "t_tpf_per_class"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.n_ref < 1:
            raise ValueError("n_ref must be >= 1")


# Published per-module timings of the reference detector, measured over
# a 20-class full loop.
REFERENCE_PROFILE = CostProfile(
    t_backbone=0.013,
    t_fusion=0.099,
    t_rpn=0.115,
    t_head=0.506,
    t_tpf_per_class=0.0019,
    n_ref=20,
)


def per_class_cost(p: CostProfile) -> float:
    """Heavy-stage cost of one loop iteration."""
    return (p.t_fusion + p.t_rpn + p.t_head) / p.n_ref


def predict_time(p: CostProfile, n_candidates: int, n_selected: int,
                 use_filter: bool) -> float:
    """Predicted query latency.

    Without pre-selection every candidate pays the heavy per-class cost;
    with it, every candidate pays only the scoring cost and just the
    selected ones run the heavy stages.
    """
    if n_selected > n_candidates:
        raise ValueError("n_selected cannot exceed n_candidates")
    heavy = per_class_cost(p)
    if not use_filter:
        return p.t_backbone + n_candidates * heavy
    return (
        p.t_backbone
        + n_candidates * p.t_tpf_per_class
        + n_selected * heavy
    )


@dataclass(frozen=True)
class TimingRecord:
    """Stage timings from one inference run."""

    n_candidates: int
    n_selected: int
    scoring_seconds: float
    fusion_seconds: float
    detect_seconds: float
    setup_seconds: float


@dataclass(frozen=True)
class FitResult:
    profile: CostProfile
    residual: float  # RMS of per-record prediction errors, seconds


def measure(records: list[TimingRecord], n_ref: int) -> FitResult:
    """Least-squares fit of a CostProfile from measured stage timings.

    Fusion and detect time are regressed together on [1, n_selected], one
    right-hand side each: the slopes give t_fusion and t_head (the toy
    pipeline has no RPN stage, so t_rpn is 0) and the intercepts fold into
    the backbone term. Scoring time is regressed through the origin on
    n_candidates. Needs at least two records with distinct n_selected.
    """
    if len(records) < 2:
        raise ValueError("need at least 2 timing records")
    n_sel = np.array([r.n_selected for r in records], dtype=np.float64)
    if np.ptp(n_sel) == 0:
        raise ValueError("degenerate fit: all records share n_selected")
    n_cand = np.array([r.n_candidates for r in records], dtype=np.float64)
    heavy = np.array([[r.fusion_seconds, r.detect_seconds] for r in records],
                     dtype=np.float64)

    design = np.stack([np.ones_like(n_sel), n_sel], axis=1)
    intercepts, slopes = np.linalg.lstsq(design, heavy, rcond=None)[0]
    h0 = float(intercepts.sum())
    c_fusion, c_detect = np.maximum(slopes, 0.0).tolist()

    scoring = np.array([r.scoring_seconds for r in records], dtype=np.float64)
    denom = float(n_cand @ n_cand)
    c_tpf = max(float(n_cand @ scoring) / denom, 0.0) if denom > 0 else 0.0

    setup = float(np.mean([r.setup_seconds for r in records]))

    profile = CostProfile(
        t_backbone=max(setup + h0, 0.0),
        t_fusion=c_fusion * n_ref,
        t_rpn=0.0,
        t_head=c_detect * n_ref,
        t_tpf_per_class=c_tpf,
        n_ref=n_ref,
    )
    pred = h0 + (c_fusion + c_detect) * n_sel + c_tpf * n_cand + setup
    obs = heavy.sum(axis=1) + scoring + np.array([r.setup_seconds for r in records])
    residual = float(np.sqrt(np.mean((pred - obs) ** 2)))
    return FitResult(profile=profile, residual=residual)

