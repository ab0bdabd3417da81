"""Workloads of the hgchat benchmark: seeded inputs, set-up, timed phases
and output checks.

One caller issues one operation at a time and waits for it (a closed loop
with a single client). Every run goes through the same five phases, so
every workload reports every end-to-end metric:

- train:  ``training.train`` from the seeded initial parameters, repeated;
- ckpt:   ``Model.save`` then ``Model.load`` of the trained model, checked
          for a bit-exact round trip (their times are per-layer metrics);
- greedy: ``Model.generate`` one response at a time;
- beam:   ``Model.generate(strategy="beam", beam_width=4)``;
- eval:   ``metrics.evaluate`` on one record of each dialogue length.

Greedy and beam run the seeded initial model, whose every response runs
to the length cap, so that decoding work is the same for every seed. The
workloads differ in dialogue length, the model evaluate runs, and how
they share the run's time among phases.
"""
from __future__ import annotations

import collections
import dataclasses
import functools
import gc
import itertools
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hgchat import corpus, decoder, metrics, training
from hgchat.config import TrainConfig
from hgchat.corpus import BOS, EMOTIONS, EOS
from hgchat.model import Model
from hgchat.params import ModelParams, init_model_params

from tracing import Tracer, emitted

PHASES = ("train", "ckpt", "greedy", "beam", "eval")
BEAM_WIDTH = 4
# Fewest operations a timed phase reports from. 100 greedy responses
# leave ten samples beyond the 90th percentile.
MIN_SAMPLES = {"train": 3, "ckpt": 3, "greedy": 100, "beam": 8, "eval": 3}
# Rounds the phases take turns in; see run_phases.
ROUNDS = 8
# Fixed operation counts of the traced run, so that its counts repeat
# exactly for a seed.
TRACE_COUNTS = {"train": 1, "ckpt": 1, "greedy": 12, "beam": 2, "eval": 1}
# Records whose greedy and beam output the checks recompute.
CHECKED_RECORDS = 2

# The model's initial parameters and dropout draws come from a seed of
# their own: the workload seed varies the dialogues only, so that a seed
# does not trade one random model for another between runs.
MODEL_SEED = 0
DIALOGUES_PER_LENGTH = 2
# The ckpt phase's timings are not reported: on a shared 2-vCPU VM their
# spread over ten seeds reached the 0.25 bound. The phase keeps its share
# so that the other phases are measured as they were when this benchmark
# was proven steady; the traced run times save and load per layer.
TRAIN_HEAVY = {"train": 0.3, "ckpt": 0.25, "greedy": 0.15, "beam": 0.15, "eval": 0.15}
DECODE_HEAVY = {"train": 0.1, "ckpt": 0.2, "greedy": 0.25, "beam": 0.2, "eval": 0.25}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    turns: tuple[int, int]       # every length in the range, DIALOGUES_PER_LENGTH times
    shares: dict                 # phase -> share of the run's time
    # The seeded initial model is written and read back in set-up.
    from_checkpoint: bool = False
    # evaluate runs the model read back in the ckpt phase, not the initial
    # one: on 24-35 turn dialogues the untrained model's perplexity swings
    # by 4x between seeds, the trained one's by 20%.
    eval_trained: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("train_desk_long",
             "desk-scale training on 24-35 turn dialogues: large graphs, so graph build, "
             "HGNN and context attention take their biggest share; Python dispatch bound",
             (24, 35), TRAIN_HEAVY, eval_trained=True),
    Workload("decode_desk",
             "seeded untrained desk model read back from its checkpoint, 1-12 turn "
             "dialogues: no-tape greedy, beam and evaluate; training-only changes bypass them",
             (1, 12), DECODE_HEAVY, from_checkpoint=True),
)}


def _draw(seed: int, turns: int, slot: int, label: str) -> corpus.DialogueRecord:
    """The first dialogue of ``turns`` turns with response emotion ``label``
    in a stream of single-dialogue corpora seeded by (seed, turns, slot)."""
    for attempt in itertools.count():
        stream = np.random.SeedSequence([seed, turns, slot, attempt])
        record = corpus.synthesize_corpus(1, min_turns=turns, max_turns=turns,
                                          seed=int(stream.generate_state(1)[0]))[0]
        if record.response_emotion == label:
            return record


def make_records(workload: Workload, seed: int) -> list[corpus.DialogueRecord]:
    """The workload's dialogues for ``seed``.

    Every seed gets the same turn counts and the same response emotions in
    the same order, so a seed changes the content but not the amount of
    work: response length, and with it the loss and perplexity, depends on
    the emotion's template. Record i has turn count ``lo + i % n_lengths``
    and emotion ``EMOTIONS[i % 7]``, so the first ``n_lengths`` records
    hold one dialogue of each length.
    """
    lo, hi = workload.turns
    n_lengths = hi - lo + 1
    return [_draw(seed, lo + i % n_lengths, i, EMOTIONS[i % len(EMOTIONS)])
            for i in range(n_lengths * DIALOGUES_PER_LENGTH)]


def copy_params(params: ModelParams) -> ModelParams:
    fresh = ModelParams()
    for name, tensor in params.items():
        fresh.add(name, tensor.values.copy())
    return fresh


@dataclass
class Bench:
    workload: Workload
    seed: int
    cfg: TrainConfig
    records: list
    initial: Model            # seeded initial parameters; every train round starts here
    workdir: Path
    trained: Model | None = None
    evaluated: Model | None = None   # what evaluate runs
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)

    @property
    def eval_set(self) -> list:
        lo, hi = self.workload.turns
        return self.records[:hi - lo + 1]

    def fresh_model(self) -> Model:
        m = self.initial
        return Model(m.cfg, copy_params(m.params), m.vocab, m.roster)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


def setup(name: str, seed: int, workdir: Path) -> Bench:
    """Everything before the first timed call: inputs, vocab, roster, the
    seeded model (written and read back when ``from_checkpoint``) and one
    untimed pass of every phase but the checkpoint one."""
    workload = WORKLOADS[name]
    records = make_records(workload, seed)
    cfg = TrainConfig(seed=MODEL_SEED, epochs=2)
    vocab = corpus.build_vocab(records, cfg.min_count)
    roster = corpus.build_roster(records, cfg.z_speakers)
    model = Model(cfg, init_model_params(cfg, vocab.size, roster.size), vocab, roster)
    if workload.from_checkpoint:
        model.save(workdir / "initial.json")
        model = Model.load(workdir / "initial.json")
    bench = Bench(workload, seed, cfg, records, model, workdir, evaluated=model)
    warm = bench.records[:1]
    training.train(warm, dataclasses.replace(cfg, epochs=1), model=bench.fresh_model())
    model.generate(warm[0])
    model.generate(warm[0], strategy="beam", beam_width=BEAM_WIDTH)
    metrics.evaluate(model, warm)
    return bench


def train_op(bench: Bench, out: dict) -> None:
    model = bench.fresh_model()
    n = len(bench.records) * bench.cfg.epochs
    start = time.perf_counter()
    result = training.train(bench.records, bench.cfg, model=model)
    out["rates"].append(n / (time.perf_counter() - start))
    out["losses"].append([(s.joint, s.mll, s.cls) for s in result.log])
    bench.trained = model
    bench.attempted += n
    bench.failed += sum(s.skipped for s in result.log)


def same_model(a: Model, b: Model) -> bool:
    return (list(a.params.names()) == list(b.params.names())
            and all(np.array_equal(t.values, b.params[name].values)
                    for name, t in a.params.items())
            and a.cfg == b.cfg and a.vocab.tokens == b.vocab.tokens
            and a.roster.names == b.roster.names)


def ckpt_op(bench: Bench, out: dict) -> None:
    path = bench.workdir / "trained.json"
    bench.trained.save(path)
    loaded = Model.load(path)
    bench.check("checkpoint_round_trip", same_model(bench.trained, loaded))
    if bench.workload.eval_trained:
        bench.evaluated = loaded
    bench.attempted += 2


def decode_op(bench: Bench, out: dict, **how) -> None:
    record = bench.records[len(out["latencies"]) % len(bench.records)]
    start = time.perf_counter()
    result = bench.initial.generate(record, **how)
    out["latencies"].append(time.perf_counter() - start)
    out["tokens"].append(emitted(result))
    bench.attempted += 1


def eval_op(bench: Bench, out: dict) -> None:
    records = bench.eval_set
    start = time.perf_counter()
    report = metrics.evaluate(bench.evaluated, records)
    out["rates"].append(len(records) / (time.perf_counter() - start))
    out["ppls"].append(report.ppl)
    bench.attempted += len(records)


OPS = {"train": train_op, "ckpt": ckpt_op, "greedy": decode_op,
       "beam": functools.partial(decode_op, strategy="beam", beam_width=BEAM_WIDTH),
       "eval": eval_op}


def run_phases(bench: Bench, seconds: float, minimum: dict[str, int],
               rounds: int) -> dict[str, dict]:
    """Run the phases round-robin for ``rounds`` rounds and return their samples.

    Each phase gets its workload's share of ``seconds`` in all and at least
    ``minimum[phase]`` operations, spread evenly over the rounds, so that
    every metric samples the whole run rather than one stretch of it:
    on a shared machine the speed drifts over tens of seconds. Garbage is
    collected before each operation, untimed, so that no operation pays
    for a collection the previous ones triggered: without it, checkpoint
    timings swung by 1.8x between runs while greedy latency held level.
    ``seconds=0, rounds=1`` runs exactly the minimum.
    """
    samples = {p: collections.defaultdict(list) for p in PHASES}
    spent = dict.fromkeys(PHASES, 0.0)
    done = dict.fromkeys(PHASES, 0)
    for k in range(1, rounds + 1):
        for p in PHASES:
            while (done[p] < math.ceil(minimum[p] * k / rounds)
                   or spent[p] < seconds * bench.workload.shares[p] * k / rounds):
                gc.collect()
                start = time.perf_counter()
                OPS[p](bench, samples[p])
                spent[p] += time.perf_counter() - start
                done[p] += 1
    losses, ppls = samples["train"]["losses"], samples["eval"]["ppls"]
    bench.check("train_losses_finite", np.all(np.isfinite(losses)))
    bench.check("train_repeatable", all(run == losses[0] for run in losses))
    bench.check("eval_ppl_finite", np.all(np.isfinite(ppls)))
    bench.check("eval_repeatable", all(p == ppls[0] for p in ppls))
    return samples


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than ten samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has "
                         f"{len(ordered) - rank} beyond it; ten are needed")
    return ordered[rank - 1]


def measure(bench: Bench, seconds: float) -> dict[str, tuple[float, str]]:
    """The untraced run: every end-to-end metric but setup_s and peak_rss_mb."""
    s = run_phases(bench, seconds, MIN_SAMPLES, ROUNDS)
    greedy, beam = s["greedy"], s["beam"]
    return {
        "train_dialogues_per_s": (statistics.median(s["train"]["rates"]), "1/s"),
        "train_loss_final": (s["train"]["losses"][0][-1][0], "nats"),
        "greedy_tokens_per_s": (sum(greedy["tokens"]) / sum(greedy["latencies"]), "1/s"),
        "greedy_ms_p50": (1e3 * percentile(greedy["latencies"], 50), "ms"),
        "greedy_ms_p90": (1e3 * percentile(greedy["latencies"], 90), "ms"),
        "beam_tokens_per_s": (sum(beam["tokens"]) / sum(beam["latencies"]), "1/s"),
        "eval_dialogues_per_s": (statistics.median(s["eval"]["rates"]), "1/s"),
        "eval_ppl": (s["eval"]["ppls"][0], "ppl"),
    }


def trace(bench: Bench) -> dict[str, tuple[float, str]]:
    """The traced run: a fixed pass with wrappers installed, the same pass
    without them for the overhead, and the per-layer metrics."""
    def one_pass():
        records = make_records(bench.workload, bench.seed)
        corpus.build_vocab(records, bench.cfg.min_count)
        corpus.build_roster(records, bench.cfg.z_speakers)
        run_phases(bench, 0.0, TRACE_COUNTS, 1)

    tracer = Tracer()
    originals = [getattr(owner, attr) for owner, attr in tracer.points()]
    start = time.perf_counter()
    with tracer.installed():
        one_pass()
    traced = time.perf_counter() - start
    bench.check("wrappers_restored", all(
        getattr(owner, attr) is original
        for (owner, attr), original in zip(tracer.points(), originals)))
    start = time.perf_counter()
    one_pass()
    untraced = time.perf_counter() - start
    return tracer.layer_metrics(traced, untraced)


def reference_greedy(model: Model, record) -> tuple[list[int], bool]:
    """The benchmark's own greedy loop: argmax over step_distributions."""
    encoded = model.encode(record)
    e_p, s_p = model.mix_inputs(encoded, record)
    ids = [BOS]
    for _ in range(model.cfg.max_len):
        probs = decoder.step_distributions(ids, encoded.h_enc, e_p, s_p,
                                           model.params, model.cfg)
        nxt = int(np.argmax(probs.values[-1]))
        if nxt == EOS:
            return ids[1:], False
        ids.append(nxt)
    return ids[1:], True


def check_decoding(bench: Bench) -> None:
    model = bench.initial
    for record in bench.eval_set[:CHECKED_RECORDS]:
        greedy = model.generate(record)
        ids, truncated = reference_greedy(model, record)
        bench.check("greedy_matches_reference",
                    greedy == (model.vocab.decode(ids), truncated))
        bench.check("beam_width_1_equals_greedy",
                    model.generate(record, strategy="beam", beam_width=1) == greedy)
