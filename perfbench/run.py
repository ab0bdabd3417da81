"""Run one workload of the hgchat benchmark and print its metrics.

    python3 perfbench/run.py --workload train_desk_long --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree that holds ``src/hgchat``. With
``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric; with ``--trace 1`` it holds every per-layer
metric of a traced pass instead. The line before it records the machine,
library versions, seed and a digest of the program's sources. The exit
code is 0 only when every output check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# Set-up is timed in this many fresh processes; the median is reported.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def source_digest() -> str:
    """sha256 over the program's sources; the tree need not be a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hgchat").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "source_sha256": source_digest()}


def time_setup(args) -> list[float]:
    """Seconds from starting a fresh interpreter to the end of set-up, per probe."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline().strip()
                samples.append(time.perf_counter() - start)
                child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    # Single-threaded BLAS and OpenMP, set before numpy is first imported,
    # so that timings do not depend on how many threads the libraries pick.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "hgchat" / "__init__.py").is_file():
        print(f"perfbench: no hgchat sources under {SRC}; run from the source tree root",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import workloads

    # Every untrained response hits the length cap; a warning per response
    # on stderr would be timed along with the decoding.
    logging.getLogger("hgchat").setLevel(logging.ERROR)

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.setup_probe:
            workloads.setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup_samples = [] if args.trace else time_setup(args)
        bench = workloads.setup(args.workload, args.seed, workdir)
        if args.trace:
            metrics = workloads.trace(bench)
        else:
            metrics = workloads.measure(bench, args.seconds)
            metrics["setup_s"] = (statistics.median(setup_samples), "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        workloads.check_decoding(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    correct = all(bench.checks.values())
    print("meta " + json.dumps({**environment(args), "checks": bench.checks}))
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0 if correct and bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
