"""Joint optimization of the generation and classification losses."""
from __future__ import annotations

import logging
import mmap
import os
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .corpus import DialogueRecord, RecordError, build_roster, build_vocab
from .diffcore import NumericalError, backward, recording
from .model import Model
from .params import ModelParams, init_model_params

__all__ = ["EpochStats", "TrainResult", "adam_step", "train"]

log = logging.getLogger(__name__)

# Seconds a worker gets to exit once its pipe is closed, before it is killed.
WORKER_EXIT_S = 1.0


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              cfg: TrainConfig, t: int) -> None:
    """Bias-corrected Adam update, in place on the parameter value buffers."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    b1, b2, eps, lr = cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.learning_rate
    for name, tensor in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(tensor.values)
        elif not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {name}; step aborted")
        m = params.adam_m.setdefault(name, np.zeros_like(tensor.values))
        v = params.adam_v.setdefault(name, np.zeros_like(tensor.values))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        tensor.values -= lr * m_hat / (np.sqrt(v_hat) + eps)


@dataclass
class EpochStats:
    epoch: int
    joint: float
    mll: float
    cls: float
    emotion_acc: float
    skipped: int

    def line(self) -> str:
        return (f"epoch {self.epoch:4d}  joint {self.joint:.4f}  "
                f"gen {self.mll:.4f}  cls {self.cls:.4f}  "
                f"emo-acc {self.emotion_acc:.3f}  skipped {self.skipped}")


@dataclass
class TrainResult:
    model: Model
    log: list[EpochStats]


def train(records: list[DialogueRecord], cfg: TrainConfig,
          model: Model | None = None, log_fn=None,
          checkpoint_path=None) -> TrainResult:
    """Minibatch training loop; dialogues are processed one graph at a
    time and the batch gradient is the per-dialogue average.

    The dialogues of a batch are independent work. They run in one process
    per CPU that ``os.sched_getaffinity`` lets this process use (so
    ``taskset -c 0`` gives one), no more than a batch's valid dialogues:
    the parent and the workers it forks for the length of this call take
    the batch positions in turn. The parent adds every dialogue's gradient
    and loss terms in batch order, the sum one process makes. Each dialogue
    draws its dropout masks from a generator of its own, seeded with
    ``(cfg.seed, step, position)``: the Adam step its batch makes and its
    index in the batch. So the results do not depend on the process count.
    A process that runs other threads trains alone: a fork would copy the
    locks those threads hold.

    Pass a previous result's model, or one read back from its checkpoint,
    to continue training on the same records: it goes on from the stored
    shuffle generator state and epoch order, so the run equals one
    uninterrupted run of all the epochs. A model without that state seeds
    its generator with ``cfg.seed + adam_t`` and starts from the records in
    file order. The epoch count always comes from ``cfg.epochs``. Records
    that fail validation are logged once, before epoch 1, and skipped in
    every epoch.
    """
    if not records:
        raise ValueError("training corpus is empty")
    if model is None:
        vocab = build_vocab(records, cfg.min_count)
        roster = build_roster(records, cfg.z_speakers)
        params = init_model_params(cfg, vocab.size, roster.size)
        model = Model(cfg, params, vocab, roster)
    params = model.params
    rng = np.random.default_rng(cfg.seed + params.adam_t)
    order = np.arange(len(records))
    if params.order is not None:
        if len(params.order) != len(records):
            raise ValueError(f"the model's stored epoch order covers {len(params.order)} "
                             f"records, but the corpus has {len(records)}")
        rng.bit_generator.state = params.rng_state
        order = params.order.copy()
    history: list[EpochStats] = []
    bad: set[int] = set()
    for idx, rec in enumerate(records):
        try:
            rec.validate(cfg.max_turns)
        except RecordError as exc:
            bad.add(idx)
            log.warning("skipping record %d: %s", idx, exc)

    n_procs = process_count(cfg.batch_size, len(records) - len(bad))
    workers = _Workers(model, records, n_procs) if n_procs > 1 else None
    try:
        for epoch in range(1, cfg.epochs + 1):
            rng.shuffle(order)
            totals = np.zeros(3)
            hits = 0
            seen = 0
            skipped = 0
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                step = params.adam_t + 1
                jobs = [(int(idx), (cfg.seed, step, position))
                        for position, idx in enumerate(batch) if idx not in bad]
                skipped += len(batch) - len(jobs)
                if not jobs:
                    continue
                params.zero_grads()
                if workers is not None:
                    workers.deal(jobs)
                for j, (idx, key) in enumerate(jobs):
                    if j % n_procs:
                        result = workers.take(j % n_procs)
                    else:
                        result = _dialogue(model, records, idx, key)
                    totals += result[:3]
                    hits += result[3]
                seen += len(jobs)
                grads = {name: t.grad / len(jobs) for name, t in params.items()}
                params.adam_t = step
                adam_step(params, grads, cfg, step)
            if seen == 0:
                raise ValueError("no valid records in the training corpus")
            params.rng_state, params.order = rng.bit_generator.state, order.copy()
            stats = EpochStats(epoch, *(totals / seen), hits / seen, skipped)
            history.append(stats)
            if log_fn is not None:
                log_fn(stats)
    finally:
        if workers is not None:
            workers.close()
    if checkpoint_path:
        model.save(checkpoint_path)
    return TrainResult(model, history)


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity is not None else 1


def process_count(batch_size: int, n_valid: int) -> int:
    """Processes that share each batch: one per usable CPU, no more than a
    batch's valid dialogues, and one while another thread runs, since a
    fork would copy that thread's locks in whatever state they are."""
    if threading.active_count() > 1:
        return 1
    return max(1, min(usable_cpus(), batch_size, n_valid))


def _dialogue(model: Model, records: list[DialogueRecord], idx: int,
              key: tuple[int, int, int]) -> tuple[float, float, float, bool]:
    """Forward and backward pass of record ``idx``, its dropout masks drawn
    from a generator seeded with ``key`` and its gradient added into
    ``.grad``: its joint, generation and classification losses, and
    whether its emotion was predicted right."""
    record = records[idx]
    rng = np.random.default_rng(key)
    with recording():
        out = model.losses(record, training=True, rng=rng)
        value = out.joint.item()
        if not np.isfinite(value):
            raise NumericalError(f"non-finite loss on record {idx}")
        backward(out.joint)
    return value, out.mll.item(), out.cls.item(), out.predicted_emotion == record.response_emotion


def _shared_zeros(shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """Zero float64 arrays of ``shapes`` in one anonymous shared mapping,
    which the processes forked after it share."""
    sizes = [rows * cols for rows, cols in shapes]
    flat = np.frombuffer(mmap.mmap(-1, 8 * max(1, sum(sizes))), dtype=np.float64)
    bounds = np.cumsum([0] + sizes)
    return [flat[a:b].reshape(shape) for a, b, shape in zip(bounds, bounds[1:], shapes)]


class _Workers:
    """The ``n_procs - 1`` forked processes that share each batch with the
    parent: worker k runs the batch's valid dialogues k, k + n_procs, ...

    While they live, the parameters sit in shared memory, where the
    parent's Adam steps update them between batches. A worker hands each
    gradient over in a shared slot of its own, which it refills only after
    the parent has taken the previous gradient, and all else through a
    pipe: no parameter or gradient is pickled."""

    def __init__(self, model: Model, records: list[DialogueRecord], n_procs: int):
        import multiprocessing  # a run that forks nothing does not load it

        self.params = model.params
        self.conns, self.procs, self.slots = [], [], []
        try:
            shapes = [t.shape for t in self.params.values()]
            for t, shared in zip(self.params.values(), _shared_zeros(shapes)):
                shared[...] = t.values
                t.values = shared
            context = multiprocessing.get_context("fork")
            for _ in range(1, n_procs):
                ours, theirs = context.Pipe()
                slot = _shared_zeros(shapes)
                proc = context.Process(target=_serve, daemon=True, args=(
                    theirs, slot, model, records, self.conns + [ours]))
                self.conns.append(ours)
                self.slots.append(slot)
                proc.start()
                self.procs.append(proc)
                theirs.close()  # so that a worker's death reads as EOF
        except BaseException:
            self.close()
            raise

    def deal(self, jobs: list[tuple[int, tuple]]) -> None:
        """Send each worker its share of a batch's ``(record, key)`` jobs."""
        n_procs = len(self.conns) + 1
        for k, conn in enumerate(self.conns, 1):
            if jobs[k::n_procs]:
                conn.send(jobs[k::n_procs])

    def take(self, k: int) -> tuple[float, float, float, bool]:
        """The result of worker k's next dialogue, its gradient added into
        ``.grad``; a worker's exception is raised here."""
        conn, proc = self.conns[k - 1], self.procs[k - 1]
        try:
            result = conn.recv()
        except EOFError:
            proc.join(WORKER_EXIT_S)
            raise RuntimeError(f"training worker {k} ended (exit code {proc.exitcode}) "
                               f"before its dialogue was done") from None
        if isinstance(result, Exception):
            raise result
        for t, grad in zip(self.params.values(), self.slots[k - 1]):
            t.grad += grad
        conn.send(None)  # the slot is free
        return result

    def close(self) -> None:
        """End and reap every worker, and give the parameters private
        arrays again."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(WORKER_EXIT_S)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
        for t in self.params.values():
            t.values = t.values.copy()


def _serve(conn, slot: list[np.ndarray], model: Model, records: list[DialogueRecord],
           inherited: list) -> None:
    """A worker: run the dialogues the parent deals, copying each gradient
    into ``slot`` once the parent has taken the last; return when the
    parent closes its end of ``conn`` or dies."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt
    for other in inherited:  # the parent's ends: theirs must be its alone
        other.close()
    params = model.params
    try:
        while True:
            jobs = conn.recv()
            for j, (idx, key) in enumerate(jobs):
                params.zero_grads()
                try:
                    result = _dialogue(model, records, idx, key)
                except Exception as exc:  # the parent raises it in batch order
                    conn.send(exc)
                    while True:
                        conn.recv()  # until the parent closes the pipe
                if j:
                    conn.recv()  # the parent has taken the previous gradient
                for t, shared in zip(params.values(), slot):
                    np.copyto(shared, t.grad)
                conn.send(result)
            conn.recv()  # the parent has taken the batch's last gradient
    except (EOFError, OSError):
        pass  # the parent closed the pipe, or died
