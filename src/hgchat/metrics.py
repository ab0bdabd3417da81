"""Automatic evaluation: perplexity, distinct-n, corpus BLEU, weighted F1.

Numbers follow fixed conventions so runs are comparable: perplexity counts
the EOS token, BLEU uses uniform weights up to order 4 with add-one
smoothing on the higher-order precisions, and distinct-n pools n-grams
across all responses before counting.
"""
from __future__ import annotations

import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

from .corpus import EMOTIONS, DialogueRecord, tokenize
from .model import Model


@dataclass
class ClassScores:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


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
        lines.append("per_class: label precision recall f1 support")
        for cs in self.per_class:
            lines.append(f"  {cs.label} {cs.precision:.4f} {cs.recall:.4f} "
                         f"{cs.f1:.4f} {cs.support}")
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
                             "support": cs.support}) for cs in self.per_class]
        return "\n".join(rows) + "\n"


def perplexity(model: Model, records: list[DialogueRecord]) -> float:
    """exp(total teacher-forced NLL / total token count), EOS included."""
    total_nll = 0.0
    total_tokens = 0
    for rec in records:
        nll, n = model.sequence_stats(rec)
        total_nll += nll
        total_tokens += n
    if total_tokens == 0:
        return float("nan")
    return math.exp(total_nll / total_tokens)


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
    emotion predictor's weighted F1 against the gold next emotions.

    ``counts`` also holds how many responses hit the length cap, as a
    number and a rate, and the min, median and max response length in
    tokens (EOS not counted; 0 with no records)."""
    ppl = perplexity(model, records)
    outputs = model.generate_many(records)
    generated = [tokens for tokens, _ in outputs]
    truncated = sum(cut for _, cut in outputs)
    lengths = [len(tokens) for tokens in generated] or [0]
    refs = [tokenize(rec.response) for rec in records]
    preds = [model.predict_label(rec) for rec in records]
    golds = [rec.response_emotion for rec in records]
    weighted, per_class = emotion_weighted_f1(preds, golds)
    accuracy = (sum(p == g for p, g in zip(preds, golds)) / len(golds)
                if golds else 0.0)
    return EvalReport(
        ppl=ppl,
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
