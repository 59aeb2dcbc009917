"""Command-line entry point: gen / train / eval / bench.

A JSON config file may supply any long-option value; explicit flags win.
Exit codes: 0 success, 1 validation or usage error, 2 numerical failure,
141 (128 + SIGPIPE, as a shell reports it) when stdout's reader has exited.
eval rounds its report to 4 decimals so runs diff cleanly; bench prints
one JSON line of unrounded, non-deterministic timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import checkpoint, cost, pack_io
from .episodes import (FEATURE_LEVELS, FusionProjector, SynthConfig, prototype_matrices,
                       synth_episodes)
from .metrics import IOU_THRESHOLD, evaluate
from .scorer import (HIDDEN_DIM, DivergenceError, Phase, ScoreModel, TrainConfig, query_scores,
                     train)
from .selector import Adaptive, All, TopN, run_inference
from .tensor_ops import Level

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_CLOSED_PIPE = 141


# Where a run writes, and the file its option values came from, do not
# change what it computes, so the config hash leaves them out.
_UNHASHED = {"func", "config", "output", "report", "recall_csv"}


def _config_hash(args: argparse.Namespace) -> str:
    payload = {k: v for k, v in vars(args).items() if k not in _UNHASHED}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _strategy(args):
    """The selection strategy the options name; ValueError naming the
    option whose value it rejects."""
    if args.strategy == "all":
        return All()
    flag, make, value = (("--top-n", TopN, args.top_n) if args.strategy == "topn"
                         else ("--threshold", Adaptive, args.threshold))
    try:
        return make(value)
    except ValueError as e:
        raise ValueError(f"{flag} {value}: {e}") from None


def _check_outputs(*paths) -> None:
    """ValueError unless each given output path is a file name in an
    existing directory, so that a command fails before it reads, prints or
    trains anything."""
    for path in filter(None, paths):
        if not path.parent.is_dir():
            raise ValueError(f"cannot write {path}: no directory {path.parent}")
        if path.is_dir():
            raise ValueError(f"cannot write {path}: it is a directory")


def _synth_config(args) -> SynthConfig:
    return SynthConfig(
        num_classes=args.classes,
        present_count=args.present,
        k=args.shots,
        blob_amplitude=args.amplitude,
        noise_sigma=args.sigma,
    )


def cmd_gen(args) -> int:
    cfg = _synth_config(args)
    _check_outputs(args.output)
    episodes = synth_episodes(cfg, args.seed, args.episodes)
    pack_io.write_pack(args.output, episodes, cfg)
    dims = {lv.value: episodes[0].levels[lv].data.shape for lv in episodes[0].levels}
    print(f"config {_config_hash(args)}")
    print(f"wrote {len(episodes)} episodes, {cfg.num_classes} classes, "
          f"k={cfg.k}, dims {dims} -> {args.output}")
    return EXIT_OK


def cmd_train(args) -> int:
    # Every phase's config and the output path are checked before anything
    # is read, printed or trained.
    configs = [
        TrainConfig(
            learning_rate=args.joint_lr if phase is Phase.JOINT else args.lr,
            epochs=args.joint_epochs if phase is Phase.JOINT else args.epochs,
            batch_size=args.batch_size,
            phase=phase,
            seed=args.seed,
        )
        for phase in (Phase(p) for p in args.phases.split(",") if p)
    ]
    if not configs:
        raise ValueError(f"--phases {args.phases!r} names no phase")
    _check_outputs(args.output)
    episodes = pack_io.read_pack(args.pack)
    first = episodes[0]
    channels = {lv: first.levels[lv].channels for lv in first.levels}
    c4 = channels[Level.L4]
    model = ScoreModel.init(c4, hidden=args.hidden, seed=args.seed)
    proj = FusionProjector.identity(channels, c4)
    print(f"config {_config_hash(args)}")
    for tcfg in configs:
        model, proj, losses = train(model, proj, episodes, tcfg)
        for i, loss in enumerate(losses):
            print(f"phase {tcfg.phase.value} epoch {i} loss {loss:.4f}")

    acc = _train_accuracy(model, episodes)
    print(f"train accuracy {acc:.4f}")
    checkpoint.save_checkpoint(args.output, model, proj)
    print(f"wrote checkpoint -> {args.output}")
    return EXIT_OK


def _train_accuracy(model, episodes) -> float:
    """Present/absent accuracy of the 0.5-score decision on L4 maps, with
    run_inference's scores."""
    correct = total = 0
    for ep in episodes:
        protos = prototype_matrices({Level.L4: ep.shots[Level.L4]})
        scores = query_scores(model, ep.levels[Level.L4].data, protos)
        correct += sum((s >= 0.5) == (cid in ep.present_classes)
                       for cid, s in enumerate(scores.tolist()))
        total += len(scores)
    return correct / max(total, 1)


def _load_inputs(args):
    """The checkpoint's model and projections and the pack's episodes, or
    ValueError naming both files unless the checkpoint takes the pack's
    channels: the scorer's C is L4's, and each level's projection takes
    that level's."""
    model, proj = checkpoint.load_checkpoint(args.checkpoint)
    episodes = pack_io.read_pack(args.pack)
    pack = [episodes[0].levels[lv].channels for lv in FEATURE_LEVELS]
    takes = [proj.weights[lv].shape[1] for lv in FEATURE_LEVELS]
    if takes != pack or model.in_channels != pack[-1]:
        raise ValueError(f"{args.checkpoint} does not fit {args.pack}: its scorer takes "
                         f"{model.in_channels} L4 channels and its L2, L3, L4 projections "
                         f"take {takes}, but the pack's levels have {pack}")
    return model, proj, episodes


def cmd_eval(args) -> int:
    # The options and output paths are checked before any file is read.
    strategy = _strategy(args)
    if not 0.0 < args.iou < 1.0:
        raise ValueError(f"--iou {args.iou}: must lie in (0, 1)")
    _check_outputs(args.recall_csv, args.report)
    model, proj, episodes = _load_inputs(args)
    report = evaluate(model, proj, episodes, strategy, iou_threshold=args.iou)
    chash = _config_hash(args)
    record = {
        "config": chash,
        "ap_full": round(report.ap_full, 4),
        "ap_minor": round(report.ap_minor, 4),
        "omission_rate": round(report.omission_rate, 4),
        "mean_recall": round(report.mean_recall, 4),
    }
    print(json.dumps(record, sort_keys=True))
    print(f"OR {report.omission_rate:.4f} recall {report.mean_recall:.4f} "
          f"(timings non-deterministic, seconds): "
          + " ".join(f"{k}={v:.4f}" for k, v in sorted(report.timings.items())))
    if args.recall_csv:
        with open(args.recall_csv, "w") as f:
            f.write("class_id,recall\n")
            for cid, r in sorted(report.per_class_recall.items()):
                f.write(f"{cid},{r:.4f}\n")
        print(f"wrote per-class recall -> {args.recall_csv}")
    if args.report:
        with open(args.report, "w") as f:
            json.dump(record, f, sort_keys=True, indent=2)
            f.write("\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    """Time the full and the minor loop on every episode of a pack and print
    one JSON record: each loop's per-stage sums, the heavy ratio and scoring
    overhead formed from them, the fitted cost profile and the reference
    profile's prediction. Seconds are not rounded."""
    loops = {"full": All(), "minor": _strategy(args)}
    model, proj, episodes = _load_inputs(args)
    # One untimed query per loop, so that the first timed one runs warm.
    for strategy in loops.values():
        run_inference(model, proj, episodes[0], strategy)

    timings = {tag: [] for tag in loops}
    records = []
    for ep in episodes:
        for tag, strategy in loops.items():
            res = run_inference(model, proj, ep, strategy)
            timings[tag].append(res.timings)
            records.append(cost.TimingRecord(
                n_candidates=len(ep.class_ids), n_selected=len(res.selected),
                **{f"{stage}_seconds": t for stage, t in res.timings.items()}))
    n = len(episodes[0].class_ids)
    if all(r.n_selected == n for r in records):
        hint = f"--top-n must be below {n}" if args.strategy == "topn" and n > 1 else \
            "--strategy adaptive needs a --threshold above some class's score"
        raise ValueError(f"the minor loop kept all {n} classes on every episode, so no "
                         f"per-class cost can be fitted: {hint}")
    fit = cost.measure(records, n_ref=n)

    sums = {tag: {stage: sum(t[stage] for t in ts) for stage in ts[0]}
            for tag, ts in timings.items()}
    heavy = {tag: s["fusion"] + s["detect"] for tag, s in sums.items()}
    ref = cost.REFERENCE_PROFILE
    record = {
        "config": _config_hash(args),
        "episodes": len(episodes),
        "stage_seconds": sums,
        "heavy_ratio": heavy["minor"] / heavy["full"],
        "scoring_overhead": sums["minor"]["scoring"] / sum(sums["full"].values()),
        "fit": {
            "backbone_seconds": fit.profile.t_backbone,
            "heavy_seconds_per_class": cost.per_class_cost(fit.profile),
            "scoring_seconds_per_class": fit.profile.t_tpf_per_class,
            "residual_seconds": fit.residual,
        },
        # The published profile: 20 candidates, 10 kept by the filter.
        "reference": {
            "full_seconds": cost.predict_time(ref, 20, 20, False),
            "minor_seconds": cost.predict_time(ref, 20, 10, True),
        },
    }
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def _add_strategy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=["all", "topn", "adaptive"], default="topn")
    p.add_argument("--top-n", type=int, default=10)
    p.add_argument("--threshold", type=float, default=0.5)


def _seed(text: str) -> int:
    """A --seed value: an int >= 0, as numpy's generators take, so that a
    negative one is a usage error before any file is read."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, so that main
    reports them as one error line with exit 1; subparsers share the class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="preselect",
        description="Few-shot detection class pre-selection pipeline",
    )
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file of default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic episode pack")
    g.add_argument("--classes", type=int, default=SynthConfig.num_classes)
    g.add_argument("--present", type=int, default=SynthConfig.present_count)
    g.add_argument("--episodes", type=int, default=64)
    g.add_argument("--shots", type=int, default=SynthConfig.k)
    g.add_argument("--amplitude", type=float, default=SynthConfig.blob_amplitude)
    g.add_argument("--sigma", type=float, default=SynthConfig.noise_sigma)
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("-o", "--output", type=Path, required=True)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train a scorer on an episode pack")
    t.add_argument("--pack", type=Path, required=True)
    t.add_argument("--phases", default="joint,tpf",
                   help="comma-separated: joint, tpf")
    t.add_argument("--joint-epochs", type=int, default=5)
    t.add_argument("--joint-lr", type=float, default=0.05)
    t.add_argument("--epochs", type=int, default=40)
    t.add_argument("--lr", type=float, default=0.5)
    t.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    t.add_argument("--hidden", type=int, default=HIDDEN_DIM)
    t.add_argument("--seed", type=_seed, default=0)
    t.add_argument("-o", "--output", type=Path, required=True)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a pack")
    e.add_argument("--checkpoint", type=Path, required=True)
    e.add_argument("--pack", type=Path, required=True)
    e.add_argument("--iou", type=float, default=IOU_THRESHOLD)
    e.add_argument("--recall-csv", type=Path, default=None)
    e.add_argument("--report", type=Path, default=None)
    _add_strategy_args(e)
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("bench", help="time full vs. minor loops")
    b.add_argument("--checkpoint", type=Path, required=True)
    b.add_argument("--pack", type=Path, required=True)
    _add_strategy_args(b)
    b.set_defaults(func=cmd_bench)
    return parser


def _apply_config_file(parser, argv):
    """Pre-parse the --config before the command and inject its values as
    new defaults, which a required option then no longer needs a flag for.
    The file holds one JSON object; each key is an option of some command,
    and each value a string or number that the option would take on the
    command line (its string form is parsed with the option's type and
    choices)."""
    pre = _Parser(prog=parser.prog, add_help=False)
    pre.add_argument("--config", type=Path)
    pre.add_argument("command", nargs=argparse.REMAINDER)
    ns, _ = pre.parse_known_args(argv)
    if any(a == "--config" or a.startswith("--config=") for a in ns.command):
        raise ValueError(f"{parser.prog}: --config must come before the command, "
                         f"as in: {parser.prog} --config FILE {ns.command[0]} ...")
    if ns.config is None:
        return
    with open(ns.config) as f:
        try:
            values = json.load(f)
        except ValueError as e:  # not text, or not JSON
            raise ValueError(f"{ns.config}: not a JSON file: {e}") from None
    if not isinstance(values, dict):
        raise ValueError(f"{ns.config}: config must be a JSON object, "
                         f"not {type(values).__name__}")
    options = {}
    for sub in parser._subparsers._group_actions[0].choices.values():
        for action in sub._actions:
            if action.option_strings and action.dest != "help":
                options.setdefault(action.dest, []).append((sub, action))
    unknown = sorted(values.keys() - options.keys())
    if unknown:
        raise ValueError(f"{ns.config}: no command has the options {unknown}")
    for key, value in values.items():
        for sub, action in options[key]:
            try:
                if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                    raise ValueError("not a string or a number")
                parsed = (action.type or str)(str(value))
                if action.choices is not None and parsed not in action.choices:
                    raise ValueError(f"not one of {action.choices}")
            except (ValueError, argparse.ArgumentTypeError) as e:
                raise ValueError(f"{ns.config}: invalid value {value!r} for "
                                 f"{action.option_strings[-1]}: {e}") from None
            sub.set_defaults(**{key: parsed})
            action.required = False


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout's reader has exited. Pointing stdout at devnull keeps the
        # interpreter's own last flush from reporting the pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except DivergenceError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
