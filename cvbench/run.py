#!/usr/bin/env python3
"""End-to-end benchmark of `cvdistill run`.

    python3 cvbench/run.py --workload sweep_mc --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
Set-up is timed in fresh interpreter processes (start until the first
operation could begin, ``import cvdistill`` included) and its median is
reported. Then whole operations run until ``--seconds`` have passed; each
calls ``cvdistill.cli.main(["run", ...])`` once per case of the workload
and is checked by ``checks.py``. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``. A traced run alternates untraced and traced operations, so
that it also reports the tracing overhead. Results and traces are written
under ``cvbench/out/``. ``--quick`` shrinks the inputs for the tests.

Every timing is reported at a fixed reference host speed. The shared host's
speed drifts by up to 2x within minutes, in CPU time as much as in wall
time, so raw timings of the same code spread wider between runs than any
useful bound. A fixed computation that belongs to the benchmark, not to the
program (``reference_s``), is therefore timed before the first measurement
and after each operation and each set-up probe. Each operation's times are
multiplied by ``REF_S`` over the mean of the reference times just before
and just after it; the set-up times, by ``REF_S`` over the mean of all the
run's reference times. Raw times, reference times and factors are kept in
the result file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
# Set-up probes per run: a few before the first operation, then one after
# each operation, so that they sample the whole run, and the rest at the end.
SETUP_PROBES = {False: 9, True: 2}
FIRST_PROBES = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MB = 1 << 20
# Reported timings are scaled to the host speed at which the reference
# computation takes this long: about its mean time on a 2-core shared host.
REF_S = 0.15


def reference_s() -> float:
    """Time a fixed mix of interpreter work, small linear algebra and array math.

    The mix resembles the program's own work and calls no BLAS routine that
    could start threads. It uses numpy only, never the program.
    """
    import numpy as np

    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(400_000):
        acc += (i * 0.5) % 7.0
        table[i & 1023] = acc
    m = np.eye(4)
    for _ in range(8_000):
        m = np.linalg.inv(m + 0.0)
    x = np.random.default_rng(0).standard_normal(20_000)
    for _ in range(200):
        acc += float(np.exp(-0.5 * x * x).sum())
    return time.perf_counter() - start


class HostSpeed:
    """Reference timings taken between measurements, and the factors they give."""

    def __init__(self):
        reference_s()  # warm-up: the first call pays numpy's lazy set-up
        self.ref_s = [reference_s()]

    def sample(self) -> float:
        """Time the reference again; return the multiplier to the reference
        host speed for the measurement that just ended, from the reference
        times just before and just after it.

        Per operation, not per run: the host flips between a fast and a
        slow state every few seconds, so a run's median operation may come
        from one state while the run's mean reference time mixes both."""
        self.ref_s.append(reference_s())
        return REF_S / ((self.ref_s[-2] + self.ref_s[-1]) / 2)

    def run_factor(self) -> float:
        """Multiplier to the reference host speed from all the run's samples.

        For the set-up probes: each lasts about as long as two reference
        samples, too short for its own neighbours to measure the host's
        state, while the probes together are spread over the whole run."""
        return REF_S / statistics.mean(self.ref_s)


def _import_program():
    """Import cvdistill from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import cvdistill
    import cvdistill.cli

    if Path(cvdistill.__file__).resolve().parent != SRC / "cvdistill":
        raise ImportError(f"cvdistill imported from {cvdistill.__file__}, not {SRC}")
    return cvdistill


def _probe(args) -> int:
    """Set-up as a fresh process does it; prints the import time when ready."""
    start = time.perf_counter()
    _import_program()
    import_s = time.perf_counter() - start
    for case in workloads.build(args.workload, args.seed, args.quick):
        json.dumps(case.config)
    print(f"ready {import_s!r}", flush=True)
    return 0


def probe_setup(args, speed: HostSpeed) -> tuple:
    """Time one fresh process from start to ready: (set-up s, import s)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    speed.sample()
    return ready - start, float(line.split()[1])


def environment() -> dict:
    import numpy
    import scipy

    blas = None
    with contextlib.suppress(KeyError, TypeError):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    import cvdistill

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "kernel_backend": getattr(cvdistill, "kernel_backend", lambda: None)(),
        "python": sys.version.split()[0],
    }


def _cpu_s() -> float:
    """User and system time of this process and of its reaped children."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                  resource.getrusage(resource.RUSAGE_CHILDREN)))


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_operation(cases, paths, work: Path, speed: HostSpeed, tracer=None) -> dict:
    """One operation: every case through `cvdistill run`, then the checks."""
    import checks
    import cvdistill.cli as cli

    out = work / "op"
    shutil.rmtree(out, ignore_errors=True)
    codes = []
    if tracer is not None:
        tracer.install()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        for case, path in zip(cases, paths):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(cli.main(["run", "--config", str(path),
                                           "--out", str(out / case.label)]))
            except Exception:  # a crash of the program is a failed operation
                traceback.print_exc()
                codes.append(None)
    finally:
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        if tracer is not None:
            tracer.remove()
    result = {"wall_s": wall, "cpu_s": cpu, "factor": speed.sample(),
              "output_bytes": _tree_bytes(out),
              "failed": any(rc != 0 for rc in codes), "error": None}
    if not result["failed"]:
        try:
            for case, rc in zip(cases, codes):
                checks.check_output(rc, str(out / case.label), case)
        except checks.CheckFailed as exc:
            result["error"] = str(exc)
    else:
        result["error"] = f"exit codes {codes}"
    shutil.rmtree(out, ignore_errors=True)
    return result


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / MB


def _median(ops, key):
    return statistics.median(op[key] for op in ops)


def _median_scaled(ops, key):
    """Median of a timing at the reference host speed."""
    return statistics.median(op[key] * op["factor"] for op in ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, for the tests")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cvdistill" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/cvdistill", file=sys.stderr)
        return 2
    if args.probe:
        return _probe(args)

    for name, value in workloads.ENV.get(args.workload, {}).items():
        os.environ.setdefault(name, value)
    load_start = os.getloadavg()
    speed = HostSpeed()
    probes = [probe_setup(args, speed)
              for _ in range(min(FIRST_PROBES, SETUP_PROBES[args.quick]))]
    _import_program()
    env = environment()
    cases = workloads.build(args.workload, args.seed, args.quick)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = work / f"{case.label}.json"
        path.write_text(json.dumps(case.config, indent=2) + "\n")
        paths.append(path)

    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    start = time.perf_counter()
    try:
        while not plain or time.perf_counter() - start < args.seconds:
            plain.append(run_operation(cases, paths, work, speed))
            if len(probes) < SETUP_PROBES[args.quick]:
                probes.append(probe_setup(args, speed))
            if tracer is not None:
                if traced:
                    tracer.keep_spans = False
                traced.append(run_operation(cases, paths, work, speed, tracer))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    while len(probes) < SETUP_PROBES[args.quick]:
        probes.append(probe_setup(args, speed))

    ops = plain + traced
    setup, imports = zip(*probes)
    setup_factor = speed.run_factor()
    errors = [op["error"] for op in ops if op["error"]]
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    # A failed operation is never timed as if it were a result.
    good = [op for op in plain if not op["failed"]]
    good_traced = [op for op in traced if not op["failed"]]
    if not good or (tracer is not None and not good_traced):
        print("error: every operation failed, so there is nothing to time", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup) * setup_factor, "s"),
            "op_s": (_median_scaled(good, "wall_s"), "s"),
            "cpu_s": (_median_scaled(good, "cpu_s"), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "output_mb": (_median(good, "output_bytes") / MB, "MB"),
        }
    else:
        # Per-layer times and rates at the reference host speed, like op_s;
        # the spans of all traced operations are summed, so their mean factor.
        factor = statistics.mean(op["factor"] for op in traced)
        scale = {"s": factor, "1/s": 1 / factor}
        metrics = {k: (v * scale.get(u, 1), u)
                   for k, (v, u) in tracer.layer_metrics(len(traced)).items()}
        metrics["import.s"] = (statistics.median(imports) * setup_factor, "s")
        metrics["trace.overhead_s"] = (_median_scaled(good_traced, "wall_s")
                                       - _median_scaled(good, "wall_s"), "s")

    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quick": args.quick,
              "environment": {**env, "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
              "setup_s": list(setup), "import_s": list(imports),
              "setup_factor": setup_factor, "reference_s": speed.ref_s,
              "operations": ops, **result}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(
            {"missing": tracer.missing, "spans": tracer.spans}) + "\n")
        for name in tracer.missing:
            print(f"trace: {name} is missing", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
