"""Command-line entry point.

Exit codes: 0 success, 1 usage or configuration error, 2 data error (an
input or output file that is missing, unreadable or malformed), 3 numerical
failure (non-finite loss or a failed gradient check).
Flag precedence: command line over config file over built-in defaults.
The environment variable HGNN_SEED acts as a seed fallback when neither
flag nor config file sets one. ``train --resume`` takes every setting but
the epoch count from its checkpoint.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import time

import numpy as np

from . import corpus as cp
from .config import ConfigError, TrainConfig, format_config, parse_config_file
from .diffcore import NumericalError, grad_check, recording
from .graph import build_hetero_graph, format_graph
from .metrics import evaluate
from .model import Model
from .params import init_model_params
from .training import train

GRADCHECK_TOLERANCE = 1e-4
# least distance of every ReLU input from its kink at the checked point,
# 100 finite-difference steps: a central difference across a kink measures
# neither slope; a random point gets this many draws to clear it
GRADCHECK_KINK_MARGIN = 1e-3
GRADCHECK_DRAWS = 10
# small dimensions keep the entry-by-entry finite differences fast
GRADCHECK_DEFAULTS = dict(d_word=6, d_hidden=8, d_model=8, d_pe=8, heads=2,
                          gnn_layers=2, z_speakers=4, max_turns=6,
                          dropout=0.0, lam=0.5)


# (flag, dest) of the train settings that --resume takes from its checkpoint
RESUME_FIXED = (("--config", "config"), ("--ablate", "ablate"), ("--homo", "homo"),
                ("--golden-emotion", "golden_emotion"), ("--lambda", "lam"), ("--seed", "seed"))


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgchat",
        description="Emotion-aware dialogue response generation over a typed "
                    "conversation graph.",
        epilog="Settings resolve as: command-line flags, then --config file "
               "entries, then defaults. HGNN_SEED provides a fallback seed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic corpus with a planted "
                                     "multimodal emotion signal")
    p.add_argument("--out", required=True)
    p.add_argument("--dialogues", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--speakers", type=int, default=3)

    p = sub.add_parser(
        "train", help="train a model",
        description="Train a model. A minibatch's dialogues run in one process per CPU "
                    "this process may use, forked for the run (taskset -c 0 gives one "
                    "process); the results do not depend on the process count.")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--ablate", default=None,
                   help="comma list from face,audio,emotion,speaker")
    p.add_argument("--homo", action="store_true",
                   help="untyped graph convolution baseline")
    p.add_argument("--golden-emotion", action="store_true",
                   help="decoder mixes the gold label instead of the prediction")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", default=None, metavar="CKPT",
                   help="continue this checkpoint's model, settings and optimizer "
                        "for --epochs more epochs (default: its own)")

    p = sub.add_parser("generate", help="emit one response per corpus record")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--speaker", default=None,
                   help="respond as this speaker (default: each record's)")
    p.add_argument("--beam", type=int, default=None, metavar="K")

    p = sub.add_parser(
        "eval", help="write an evaluation report",
        description="Write an evaluation report. The records are scored in one process per "
                    "CPU this process may use, forked for the run (taskset -c 0 gives one "
                    "process); the report does not depend on the process count.")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("inspect-graph", help="print one dialogue's graph")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--config", default=None)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    return parser


def _seed_fallback(explicit: int | None, file_values: dict) -> int | None:
    if explicit is not None:
        return explicit
    if "seed" in file_values:
        return None  # let the file value stand
    env = os.environ.get("HGNN_SEED", "").strip()
    if env and not env.isdecimal():  # what int() reads, less a sign or an underscore
        raise UsageError(f"HGNN_SEED must be a non-negative integer, got {env!r}")
    return int(env) if env else None


def _show(cfg: TrainConfig) -> TrainConfig:
    """Print the run preamble, the resolved ``cfg``, and return it."""
    print("resolved configuration:")
    print(format_config(cfg))
    return cfg


def _check_out_dir(path: str) -> None:
    """Refuse an output ``path`` whose directory is missing, before any work."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"cannot write {path}: directory {parent} not found")


def _resolved(args, overrides: dict | None = None, base: dict | None = None) -> TrainConfig:
    """``base`` (else the defaults), then the --config file, then the
    overrides and the seed that are not None."""
    file_path = getattr(args, "config", None)
    file_values = parse_config_file(file_path) if file_path else {}
    overrides = {**(overrides or {}),
                 "seed": _seed_fallback(getattr(args, "seed", None), file_values)}
    return _show(TrainConfig.from_dict({**(base or {}), **file_values,
                                        **{k: v for k, v in overrides.items() if v is not None}}))


def _load_records(path: str, cfg: TrainConfig) -> list[cp.DialogueRecord]:
    """The records of the corpus at ``path`` that a model of ``cfg`` takes."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"corpus file not found: {path}")
    records, errors = cp.load_corpus_verbose(path, max_turns=cfg.max_turns,
                                             face_dim=cfg.face_dim, audio_dim=cfg.audio_dim)
    if errors:
        print(f"skipped {len(errors)} malformed record(s); first: "
              f"line {errors[0][0]}: {errors[0][1]}", file=sys.stderr)
    # the model reads the first max_len tokens of an utterance, and the first
    # max_len - 1 of a response, then EOS
    truncated = sum(max(len(cp.tokenize(u)) for u in rec.utterances) > cfg.max_len
                    or len(cp.tokenize(rec.response)) > cfg.max_len - 1 for rec in records)
    if truncated:
        print(f"truncated {truncated} record(s): an utterance over max_len={cfg.max_len} "
              f"tokens, or a response over {cfg.max_len - 1}", file=sys.stderr)
    if not records:
        raise ValueError(f"no valid records in {path}")
    return records


def cmd_synth(args) -> int:
    for flag, value, least in (("--dialogues", args.dialogues, 1),
                               ("--speakers", args.speakers, 1), ("--seed", args.seed, 0)):
        if value is not None and value < least:
            raise UsageError(f"{flag} must be at least {least}, got {value}")
    seed = _seed_fallback(args.seed, {}) or 0
    _check_out_dir(args.out)
    records = cp.synthesize_corpus(args.dialogues, n_speakers=args.speakers,
                                   seed=seed)
    cp.save_corpus(records, args.out)
    print(f"wrote {len(records)} dialogues to {args.out} (seed {seed})")
    return 0


def _resumed(args) -> Model:
    """The model of ``--resume``, with its stored settings but ``--epochs``."""
    # presence, not truth: --seed 0 and --lambda 0 are settings too
    fixed = [flag for flag, dest in RESUME_FIXED
             if getattr(args, dest) is not None and getattr(args, dest) is not False]
    if fixed:
        raise UsageError(f"--resume continues its checkpoint's settings; drop {', '.join(fixed)}")
    model = Model.load(args.resume)
    if args.epochs is not None:
        model.cfg = dataclasses.replace(model.cfg, epochs=args.epochs)
    _show(model.cfg)
    return model


def cmd_train(args) -> int:
    _check_out_dir(args.out)
    if args.resume is not None:
        model = _resumed(args)
        cfg = model.cfg
    else:
        overrides: dict = {"lam": args.lam, "epochs": args.epochs}
        if args.ablate is not None:
            overrides["ablate"] = tuple(x.strip() for x in args.ablate.split(",") if x.strip())
        if args.homo:
            overrides["gnn_mode"] = "homo"
        if args.golden_emotion:
            overrides["golden_emotion"] = True
        model, cfg = None, _resolved(args, overrides)
    records = _load_records(args.corpus, cfg)
    t0 = time.monotonic()
    train(records, cfg, model=model, log_fn=lambda s: print(s.line())).model.save(args.out)
    print(f"trained {cfg.epochs} epochs on {len(records)} dialogues "
          f"in {time.monotonic() - t0:.1f}s; checkpoint: {args.out}")
    return 0


def cmd_generate(args) -> int:
    if args.beam is not None and args.beam < 1:
        raise UsageError(f"--beam must be at least 1, got {args.beam}")
    model = Model.load(args.ckpt)
    records = _load_records(args.corpus, _show(model.cfg))
    if args.beam and args.beam > 1:
        outputs = (model.generate(rec, strategy="beam", beam_width=args.beam,
                                  next_speaker=args.speaker) for rec in records)
    else:
        outputs = model.generate_many(records, next_speaker=args.speaker)
    capped = 0
    for tokens, truncated in outputs:
        print(" ".join(tokens))
        capped += truncated
    if capped:
        print(f"truncated {capped} response(s) at max_len={model.cfg.max_len} tokens "
              "without EOS", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    _check_out_dir(args.report)
    model = Model.load(args.ckpt)
    records = _load_records(args.corpus, _show(model.cfg))
    report = evaluate(model, records)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(report.to_text() + "\n")
    with open(args.report + ".jsonl", "w", encoding="utf-8") as fh:
        fh.write(report.to_json_lines())
    print(report.to_text())
    print(f"report written to {args.report} and {args.report}.jsonl")
    return 0


def cmd_inspect_graph(args) -> int:
    if args.index < 0:
        raise UsageError(f"--index must be at least 0, got {args.index}")
    cfg = _resolved(args)
    records = _load_records(args.corpus, cfg)
    if args.index >= len(records):
        raise ValueError(f"--index {args.index} outside corpus of {len(records)}")
    graph = build_hetero_graph(records[args.index], ablate=cfg.ablate)
    print(format_graph(graph))
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _resolved(args, base=GRADCHECK_DEFAULTS)
    records = cp.synthesize_corpus(1, seed=cfg.seed, min_turns=3, max_turns=3,
                                   face_dim=cfg.face_dim, audio_dim=cfg.audio_dim)
    vocab = cp.build_vocab(records)
    roster = cp.build_roster(records, cfg.z_speakers)
    params = init_model_params(cfg, vocab.size, roster.size)
    model = Model(cfg, params, vocab, roster)
    rng = np.random.default_rng(cfg.seed + 1)
    for _ in range(GRADCHECK_DRAWS):  # move off the ReLU kinks
        params.flat += rng.uniform(-0.05, 0.05, size=params.flat.size)
        with recording() as tape:
            model.losses(records[0])
        if min(np.abs(inputs[0].values).min() for kind, inputs, _, _ in tape
               if kind == "relu") >= GRADCHECK_KINK_MARGIN:
            break

    t0 = time.monotonic()
    err = grad_check(lambda: model.losses(records[0]).joint,
                     dict(params.items()), eps=1e-5)
    dt = time.monotonic() - t0
    print(f"max relative error {err:.3e} over {params.flat.size} entries "
          f"({len(params)} tensors) in {dt:.1f}s")
    if err > GRADCHECK_TOLERANCE:
        print(f"FAIL: exceeds tolerance {GRADCHECK_TOLERANCE}", file=sys.stderr)
        return 3
    print(f"PASS: within tolerance {GRADCHECK_TOLERANCE}")
    return 0


_HANDLERS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "generate": cmd_generate,
    "eval": cmd_eval,
    "inspect-graph": cmd_inspect_graph,
    "gradcheck": cmd_gradcheck,
}


def run_command(argv: list[str]) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, cp.RecordError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
