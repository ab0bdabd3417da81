"""Automatic evaluation: perplexity, distinct-n, corpus BLEU, weighted F1.

Numbers follow fixed conventions so runs are comparable: perplexity counts
the EOS token, BLEU uses uniform weights up to order 4 with add-one
smoothing on the higher-order precisions, and distinct-n pools n-grams
across all responses before counting.
"""
from __future__ import annotations

import dataclasses
import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from . import training
from .corpus import EMOTIONS, DialogueRecord, tokenize
from .decoder import lockstep_groups
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

    The records are scored in the lockstep groups that
    ``Model.generate_many`` decodes together, in one process per CPU that
    this process may use (``training.process_count``; ``taskset -c 0``
    gives one), forked for this call. A group costs the summed turn counts
    of its records; the groups are dealt heaviest first, each to the
    least-loaded process, the parent first. The report does not depend on
    the process count. Every record is checked against the model's limits
    before any work, so a record the model cannot take raises the first
    ``RecordError`` in record order, with nothing scored and nothing
    forked."""
    cfg = model.cfg
    for rec in records:
        rec.validate(cfg.max_turns, cfg.face_dim, cfg.audio_dim)
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


def _score(model: Model, records: list[DialogueRecord]) -> list[Scored]:
    """Every record scored, in order, its lockstep groups dealt by
    ``_deal``; ``evaluate`` has checked the records. The parent scores its
    own groups, then takes each group's rows in record order; a child's
    exception is raised as the parent reaches that child's next group."""
    groups = lockstep_groups(records)
    n_procs = training.process_count(len(groups))
    if n_procs == 1:
        return [row for group in groups for row in _score_group(model, group)]
    owner = _deal([sum(rec.n_turns for rec in group) for group in groups], n_procs)
    children = training.Forked("evaluation process", _serve,
                               [(model, [g for g, k in zip(groups, owner) if k == child])
                                for child in range(1, n_procs)])
    try:
        own = {j: _score_group(model, group)
               for j, (group, k) in enumerate(zip(groups, owner)) if k == 0}
        rows = []
        for j, k in enumerate(owner):
            rows += children.recv(k) if k else own[j]
        return rows
    finally:
        children.close()


def _deal(costs: list[int], n_procs: int) -> list[int]:
    """The process of each group of ``costs``, the parent being process 0:
    heaviest first, each to the least-loaded process, the lowest-numbered
    of equals (Graham's LPT rule, 1969). It pays where groups differ in
    cost, as records sorted by turn count make them: the parent, which
    starts at once, takes the heaviest, and each child, which starts a
    fork later, a lighter one."""
    owner = [0] * len(costs)
    loads = [0] * n_procs
    for j in sorted(range(len(costs)), key=lambda j: -costs[j]):
        k = loads.index(min(loads))
        owner[j] = k
        loads[k] += costs[j]
    return owner


def _serve(conn, model: Model, groups: list[list[DialogueRecord]]) -> None:
    """A child: send each of ``groups`` scored."""
    for group in groups:
        conn.send(_score_group(model, group))
