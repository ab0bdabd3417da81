"""Joint optimization of the generation and classification losses."""
from __future__ import annotations

import dataclasses
import functools
import logging
import mmap
import os
import signal
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .corpus import DialogueRecord, RecordError, build_roster, build_vocab
from .diffcore import NumericalError, backward, recording
from .model import Model
from .params import ModelParams, init_model_params

log = logging.getLogger(__name__)

# Seconds a worker gets to exit once its pipe is closed, before it is killed.
WORKER_EXIT_S = 1.0


def adam_step(params: ModelParams, cfg: TrainConfig, t: int) -> None:
    """Bias-corrected Adam update of ``params.flat`` by the gradient in
    ``params.flat_grad``, in place over the whole buffer. Its temporaries go
    into two scratch rows that live only for the step, not for the model's
    life. A non-finite gradient entry aborts the step before anything
    changes, naming the tensor that holds it."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    g = params.flat_grad
    finite = np.isfinite(g)
    if not finite.all():
        name = params.name_at(int(np.argmin(finite)))  # of the first non-finite entry
        raise NumericalError(f"non-finite gradient for {name}; step aborted")
    b1, b2, eps, lr = cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.learning_rate
    m, v, (a, b) = params.adam_m, params.adam_v, np.empty((2, g.size))
    np.multiply(g, 1.0 - b1, out=a)
    m *= b1
    m += a
    np.multiply(g, 1.0 - b2, out=a)
    a *= g
    v *= b2
    v += a
    np.divide(v, 1.0 - b2 ** t, out=a)  # the denominator: sqrt(v_hat) + eps
    np.sqrt(a, out=a)
    a += eps
    np.divide(m, 1.0 - b1 ** t, out=b)  # the step: lr * m_hat / denominator
    b *= lr
    b /= a
    params.flat -= b


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
          model: Model | None = None, log_fn=None) -> TrainResult:
    """Minibatch training loop; dialogues are processed one graph at a
    time and the batch gradient is the per-dialogue average.

    A batch's dialogues run in one process per CPU that this process may
    use (``process_count``; ``taskset -c 0`` gives one), forked for this
    call. The parent adds their gradients and loss terms in batch order,
    and each dialogue draws its dropout masks from a generator seeded with
    ``(cfg.seed, step, position)``: the Adam step its batch makes and its
    index in the batch. So the results do not depend on the process count.

    Pass a previous result's model, or one read back from its checkpoint,
    to continue training: it must have been built under ``cfg``, but for
    the epoch count. Each epoch visits the records in an order drawn from a
    generator seeded with ``(cfg.seed, t, 0, 1)``, t the step count at the
    epoch's start, so a resumed run equals one uninterrupted run of all the
    epochs. (numpy reads a key of under four words as if padded with zeros:
    the last word keeps this key apart from every dropout key.) Records
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
    differ = [f.name for f in dataclasses.fields(cfg)
              if f.name != "epochs" and getattr(cfg, f.name) != getattr(model.cfg, f.name)]
    if differ:
        raise ValueError(f"the model was built under other settings: {', '.join(differ)}")
    params = model.params
    history: list[EpochStats] = []
    bad: set[int] = set()
    for idx, rec in enumerate(records):
        try:
            rec.validate(cfg.max_turns, cfg.face_dim, cfg.audio_dim)
        except RecordError as exc:
            bad.add(idx)
            log.warning("skipping record %d: %s", idx, exc)

    n_procs = process_count(cfg.batch_size, len(records) - len(bad))
    workers = _Workers(model, records, n_procs) if n_procs > 1 else None
    try:
        for epoch in range(1, cfg.epochs + 1):
            # every epoch takes a step, or raises: no two share a key
            rng = np.random.default_rng((cfg.seed, params.adam_t, 0, 1))
            order = rng.permutation(len(records))
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
                params.flat_grad /= len(jobs)
                adam_step(params, cfg, step)
                params.adam_t = step  # only once the step is taken
            if seen == 0:
                raise ValueError("no valid records in the training corpus")
            stats = EpochStats(epoch, *(totals / seen), hits / seen, skipped)
            history.append(stats)
            if log_fn is not None:
                log_fn(stats)
    finally:
        if workers is not None:
            workers.close()
    return TrainResult(model, history)


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity is not None else 1


def process_count(*caps: int) -> int:
    """Processes that share a piece of independent work (a batch's
    dialogues in ``train``, the lockstep groups in ``metrics.evaluate``):
    one per usable CPU, no more than the least of ``caps``, and one while
    another thread runs, since a fork would copy that thread's locks in
    whatever state they are."""
    if threading.active_count() > 1:
        return 1
    return max(1, min(usable_cpus(), *caps))


class Forked:
    """The processes that one call forks to share its work with the parent.

    Child k, for k = 1 .. len(args), is forked from a ``fork`` context and
    runs ``serve(conn, *args[k - 1])`` on its end of a pipe of its own;
    ``conns[k - 1]`` is the parent's end. The child ignores SIGINT, which
    the parent handles, and closes the parent's ends, so that its death
    reads as EOF. It sends an exception from ``serve`` in place of its next
    reply, then waits for the parent to close the pipe, so that no send of
    the parent's meets a closed end. It returns once its pipe reads EOF or
    fails: the parent closed it, or died.

    ``recv(k)`` returns child k's next reply. It raises the exception the
    child sent, and ``RuntimeError("<what> k ended (exit code X) ...")``
    once the child has gone. ``close()`` closes every pipe, gives each child
    ``WORKER_EXIT_S`` to exit, kills it if it has not, and reaps it. While
    the children live, every process runs one BLAS thread, and ``close()``
    restores the parent's count."""

    def __init__(self, what: str, serve, args: list[tuple]):
        import multiprocessing  # a call that forks nothing does not load it

        self.what = what
        self.conns, self.procs = [], []
        self.blas_threads = _set_blas_threads(1)
        try:
            context = multiprocessing.get_context("fork")
            for child_args in args:
                ours, theirs = context.Pipe()
                self.conns.append(ours)
                proc = context.Process(target=self._child, daemon=True,
                                       args=(theirs, serve, child_args))
                proc.start()
                self.procs.append(proc)
                theirs.close()  # so that the child's death reads as EOF
        except BaseException:
            self.close()
            raise

    def recv(self, k: int):
        conn, proc = self.conns[k - 1], self.procs[k - 1]
        try:
            message = conn.recv()
        except EOFError:
            proc.join(WORKER_EXIT_S)
            raise RuntimeError(f"{self.what} {k} ended (exit code {proc.exitcode}) "
                               f"before it replied") from None
        if isinstance(message, Exception):
            raise message
        return message

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(WORKER_EXIT_S)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
        _set_blas_threads(self.blas_threads)

    def _child(self, conn, serve, args: tuple) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt
        for end in self.conns:  # the parent's ends: theirs must be its alone
            end.close()
        try:
            try:
                serve(conn, *args)
            except Exception as exc:  # the parent raises it where it reads the reply
                conn.send(exc)
                while True:
                    conn.recv()  # until the parent closes the pipe
        except (EOFError, OSError):
            pass  # the parent closed the pipe, or died


def _set_blas_threads(count: int | None) -> int | None:
    """Give the OpenBLAS that a numpy wheel bundles in ``numpy.libs``
    ``count`` threads and return the count it had; None, with nothing done,
    for a ``count`` of None or where that library or its setter is missing."""
    functions = None if count is None else _blas_thread_functions()
    if functions is None:
        return None
    get, set_ = functions
    old = get()
    set_(count)
    return old


@functools.cache
def _blas_thread_functions():
    """The thread-count getter and setter of the bundled OpenBLAS, or None
    where that library or its setter is missing; resolved once per process."""
    import ctypes

    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _dialogue(model: Model, records: list[DialogueRecord], idx: int,
              key: tuple[int, int, int]) -> tuple[float, float, float, bool]:
    """Forward and backward pass of record ``idx``, its dropout masks drawn
    from a generator seeded with ``key`` and its gradient added into
    ``.grad``: its joint, generation and classification losses, and
    whether its emotion was predicted right."""
    record = records[idx]
    rng = np.random.default_rng(key)
    with recording():
        out = model.losses(record, rng)
        value = out.joint.item()
        if not np.isfinite(value):
            raise NumericalError(f"non-finite loss on record {idx}")
        backward(out.joint)
    return value, out.mll.item(), out.cls.item(), out.predicted_emotion == record.response_emotion


def _shared_zeros(size: int) -> np.ndarray:
    """``size`` float64 zeros in an anonymous shared mapping, which the
    processes forked after it share."""
    return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64)


class _Workers(Forked):
    """The ``n_procs - 1`` forked processes that share each batch with the
    parent: worker k runs the batch's valid dialogues k, k + n_procs, ...

    While they live, the parameters sit in shared memory, where the
    parent's Adam steps update them between batches. A worker hands each
    gradient over in a shared slot of its own, which it refills only after
    the parent has taken the previous gradient, and all else through its
    pipe: no parameter or gradient is pickled."""

    def __init__(self, model: Model, records: list[DialogueRecord], n_procs: int):
        self.params = params = model.params
        shared, *self.slots = [_shared_zeros(params.flat.size) for _ in range(n_procs)]
        np.copyto(shared, params.flat)
        params._place(shared)
        super().__init__("training worker", _serve,
                         [(slot, model, records) for slot in self.slots])

    def deal(self, jobs: list[tuple[int, tuple]]) -> None:
        """Send each worker its share of a batch's ``(record, key)`` jobs."""
        n_procs = len(self.conns) + 1
        for k, conn in enumerate(self.conns, 1):
            if jobs[k::n_procs]:
                conn.send(jobs[k::n_procs])

    def take(self, k: int) -> tuple[float, float, float, bool]:
        """The result of worker k's next dialogue, its gradient added into
        ``params.flat_grad``."""
        result = self.recv(k)
        self.params.flat_grad += self.slots[k - 1]
        self.conns[k - 1].send(None)  # the slot is free
        return result

    def close(self) -> None:
        """End and reap every worker, and give the parameters private
        arrays again."""
        super().close()
        self.params._place(self.params.flat.copy())


def _serve(conn, slot: np.ndarray, model: Model, records: list[DialogueRecord]) -> None:
    """A worker: run the dialogues the parent deals, copying each gradient
    into ``slot`` once the parent has taken the last."""
    params = model.params
    while True:
        jobs = conn.recv()
        for j, (idx, key) in enumerate(jobs):
            params.zero_grads()
            result = _dialogue(model, records, idx, key)
            if j:
                conn.recv()  # the parent has taken the previous gradient
            np.copyto(slot, params.flat_grad)
            conn.send(result)
        conn.recv()  # the parent has taken the batch's last gradient
