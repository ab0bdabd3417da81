"""Automatic evaluation: perplexity, distinct-n, corpus BLEU, weighted F1.

Numbers follow fixed conventions so runs are comparable: perplexity counts
the EOS token, BLEU uses uniform weights up to order 4 with add-one
smoothing on the higher-order precisions, and distinct-n pools n-grams
across all responses before counting.

``evaluate`` runs in one process per CPU that this process may use
(``os.sched_getaffinity``), forked for the call, so ``taskset -c 0`` gives
one; the report does not depend on the process count.
"""
from __future__ import annotations

import dataclasses
import json
import math
import signal
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from . import training
from .corpus import EMOTIONS, DialogueRecord, tokenize
from .decoder import GREEDY_GROUP
from .model import Model


@dataclass
class ClassScores:
    label: str
    precision: float
    recall: float
    f1: float
    support: int
    ppl: float | None = None  # of the gold responses of this emotion; None with none


@dataclass
class EvalReport:
    ppl: float
    dist1: float
    dist2: float
    bleu: float
    emotion_weighted_f1: float
    per_class: list[ClassScores]
    counts: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"ppl: {self.ppl:.6g}",
            f"dist1: {self.dist1:.6f}",
            f"dist2: {self.dist2:.6f}",
            f"bleu: {self.bleu:.6f}",
            f"emotion_weighted_f1: {self.emotion_weighted_f1:.6f}",
        ]
        lines += [f"count_{k}: {v}" for k, v in sorted(self.counts.items())]
        lines.append("per_class: label precision recall f1 support ppl")
        for cs in self.per_class:
            ppl = "null" if cs.ppl is None else f"{cs.ppl:.6g}"
            lines.append(f"  {cs.label} {cs.precision:.4f} {cs.recall:.4f} "
                         f"{cs.f1:.4f} {cs.support} {ppl}")
        return "\n".join(lines)

    def to_json_lines(self) -> str:
        head = {
            "ppl": self.ppl, "dist1": self.dist1, "dist2": self.dist2,
            "bleu": self.bleu, "emotion_weighted_f1": self.emotion_weighted_f1,
            "counts": self.counts,
        }
        rows = [json.dumps(head)]
        rows += [json.dumps({"class": cs.label, "precision": cs.precision,
                             "recall": cs.recall, "f1": cs.f1,
                             "support": cs.support, "ppl": cs.ppl})
                 for cs in self.per_class]
        return "\n".join(rows) + "\n"


def pooled_perplexity(stats) -> float:
    """exp(total NLL / total token count) of ``(nll, tokens)`` pairs, summed
    in their order; NaN with no tokens."""
    total_nll = 0.0
    total_tokens = 0
    for nll, n in stats:
        total_nll += nll
        total_tokens += n
    if total_tokens == 0:
        return float("nan")
    return math.exp(total_nll / total_tokens)


def perplexity(model: Model, records: list[DialogueRecord]) -> float:
    """exp(total teacher-forced NLL / total token count), EOS included."""
    return pooled_perplexity(model.sequence_stats(rec) for rec in records)


def _ngrams(tokens: list[str], n: int):
    return (tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def distinct_n(responses: list[list[str]], n: int) -> float:
    """Distinct n-grams pooled over all responses, over total n-gram count."""
    if n not in (1, 2):
        raise ValueError(f"distinct-n is defined for n in {{1, 2}}, got {n}")
    seen = set()
    total = 0
    for toks in responses:
        for gram in _ngrams(toks, n):
            seen.add(gram)
            total += 1
    return len(seen) / total if total else 0.0


def corpus_bleu(candidates: list[list[str]], references: list[list[str]],
                max_n: int = 4) -> float:
    """Corpus BLEU with brevity penalty; add-one smoothing above order 1.

    Empty candidates stay in the corpus and count as zero matches.
    """
    if len(candidates) != len(references):
        raise ValueError("candidates and references must align")
    cand_len = sum(len(c) for c in candidates)
    ref_len = sum(len(r) for r in references)
    if cand_len == 0:
        return 0.0
    log_precision = 0.0
    for order in range(1, max_n + 1):
        matched = 0
        total = 0
        for cand, ref in zip(candidates, references):
            counts = Counter(_ngrams(cand, order))
            ref_counts = Counter(_ngrams(ref, order))
            total += sum(counts.values())
            matched += sum(min(c, ref_counts[g]) for g, c in counts.items())
        if order == 1:
            if matched == 0:
                return 0.0
            p = matched / total
        else:
            p = (matched + 1) / (total + 1)
        log_precision += math.log(p) / max_n
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_precision)


def emotion_weighted_f1(predictions: list[str], golds: list[str]
                        ) -> tuple[float, list[ClassScores]]:
    """Per-class F1 weighted by gold support; absent classes excluded."""
    if len(predictions) != len(golds):
        raise ValueError("predictions and golds must align")
    per_class = []
    weighted = 0.0
    total = len(golds)
    for label in EMOTIONS:
        support = sum(g == label for g in golds)
        tp = sum(p == label and g == label for p, g in zip(predictions, golds))
        pred_n = sum(p == label for p in predictions)
        precision = tp / pred_n if pred_n else 0.0
        recall = tp / support if support else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_class.append(ClassScores(label, precision, recall, f1, support))
        if support:
            weighted += f1 * support / total
    return weighted, per_class


def evaluate(model: Model, records: list[DialogueRecord]) -> EvalReport:
    """Full report: PPL, diversity and BLEU of greedy responses, and the
    emotion predictor's weighted F1 against the gold next emotions, each
    class with the perplexity of its gold responses.

    ``counts`` also holds how many responses hit the length cap, as a
    number and a rate, and the min, median and max response length in
    tokens (EOS not counted; 0 with no records).

    The records are scored in the fewest consecutive lockstep groups of at
    most ``GREEDY_GROUP``, of near-equal size, that ``Model.generate_many``
    decodes together, in one process per CPU that ``os.sched_getaffinity``
    lets this process use (so ``taskset -c 0`` gives one), no more than
    there are groups: the parent and the processes it forks for this call
    take the groups in turn. The children send back numbers, tokens and
    labels; the error one process would meet first is raised here, with
    its type and message. The parent joins the results in record order and
    sums the NLL as one process does, so the report does not depend on the
    process count. A process that runs other threads evaluates alone."""
    scored = _score(model, records)
    stats = [(s.nll, s.tokens) for s in scored]
    preds = [s.label for s in scored]
    generated = [s.response for s in scored]
    truncated = sum(s.truncated for s in scored)
    lengths = [len(tokens) for tokens in generated] or [0]
    refs = [tokenize(rec.response) for rec in records]
    golds = [rec.response_emotion for rec in records]
    weighted, per_class = emotion_weighted_f1(preds, golds)
    class_ppl = {label: pooled_perplexity(st for st, g in zip(stats, golds) if g == label)
                 for label in set(golds)}
    per_class = [dataclasses.replace(cs, ppl=class_ppl.get(cs.label)) for cs in per_class]
    accuracy = (sum(p == g for p, g in zip(preds, golds)) / len(golds)
                if golds else 0.0)
    return EvalReport(
        ppl=pooled_perplexity(stats),
        dist1=distinct_n(generated, 1),
        dist2=distinct_n(generated, 2),
        bleu=corpus_bleu(generated, refs),
        emotion_weighted_f1=weighted,
        per_class=per_class,
        counts={"dialogues": len(records),
                "generated_tokens": sum(len(g) for g in generated),
                "truncated": truncated,
                "truncation_rate": truncated / len(records) if records else 0.0,
                "response_len_min": min(lengths),
                "response_len_median": statistics.median(lengths),
                "response_len_max": max(lengths),
                "emotion_accuracy": accuracy},
    )


class Scored(NamedTuple):
    """What evaluate keeps of one record."""
    nll: float            # teacher-forced NLL of the gold response
    tokens: int           # its token count, EOS included
    label: str            # predicted emotion
    response: list[str]   # greedy response
    truncated: bool       # whether it hit the length cap


def _score_group(model: Model, group: list[DialogueRecord]) -> list[Scored]:
    """Every record of one lockstep group, scored."""
    stats = [model.sequence_stats(rec) for rec in group]
    labels = [model.predict_label(rec) for rec in group]
    outputs = model.generate_many(group)
    return [Scored(nll, n, label, tokens, cut)
            for (nll, n), label, (tokens, cut) in zip(stats, labels, outputs)]


def _groups(records: list[DialogueRecord]) -> list[list[DialogueRecord]]:
    """``records`` in the fewest consecutive lockstep groups of at most
    ``GREEDY_GROUP``, their sizes differing by at most one, so that the
    processes that take them finish together: 12 records make two groups
    of 6, not 8 and 4."""
    n = len(records)
    count = -(-n // GREEDY_GROUP)
    return [records[n * j // count:n * (j + 1) // count] for j in range(count)]


def _score(model: Model, records: list[DialogueRecord]) -> list[Scored]:
    """Every record scored, in order: group j in process ``j % n_procs``,
    the parent being process 0."""
    groups = _groups(records)
    n_procs = training.process_count(len(groups))
    if n_procs == 1:
        return [row for group in groups for row in _score_group(model, group)]
    import multiprocessing  # a call that forks nothing does not load it

    context = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        for k in range(1, n_procs):
            ours, theirs = context.Pipe(duplex=False)
            proc = context.Process(target=_serve, daemon=True, args=(
                theirs, model, groups[k::n_procs], conns + [ours]))
            conns.append(ours)
            proc.start()
            procs.append(proc)
            theirs.close()  # so that a child's death reads as EOF
        rows = []
        for j, group in enumerate(groups):
            k = j % n_procs
            rows += _take(conns[k - 1], procs[k - 1], k) if k else _score_group(model, group)
        return rows
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(training.WORKER_EXIT_S)
            if proc.exitcode is None:
                proc.kill()
                proc.join()


def _take(conn, proc, k: int) -> list[Scored]:
    """Child k's next group; its exception is raised here."""
    try:
        rows = conn.recv()
    except EOFError:
        proc.join(training.WORKER_EXIT_S)
        raise RuntimeError(f"evaluation process {k} ended (exit code {proc.exitcode}) "
                           f"before its group was scored") from None
    if isinstance(rows, Exception):
        raise rows
    return rows


def _serve(conn, model: Model, groups: list[list[DialogueRecord]], inherited: list) -> None:
    """A child: send each of ``groups`` scored, or the first exception, and return."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt
    for other in inherited:  # the parent's ends
        other.close()
    try:
        for group in groups:
            try:
                rows = _score_group(model, group)
            except Exception as exc:  # the parent raises it in record order
                conn.send(exc)
                return
            conn.send(rows)
    except OSError:
        pass  # the parent closed its end, or died
