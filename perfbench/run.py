"""Benchmark of shadowipw, run from the root of a checkout:

    python3 perfbench/run.py --workload search-mc --seed 1 --seconds 20 --trace 0

It sets the workload up three times (a fresh interpreter importing the
package, then the workload's inputs) and reports the median as setup_s.
It then runs operations one at a time, until they have taken ``--seconds``
(calibrated, see ``calibrated``), in a process forked after set-up, so that
set-up allocations do not count towards peak_rss_mb, and checks every
operation's outputs. The last line of standard output is
one JSON object: correct, attempted, failed and metrics; the end-to-end
metrics with ``--trace 0``, the per-layer ones from a traced run with
``--trace 1``. Results and spans are also written under .perfbench/.
"""

from __future__ import annotations

import os

# one BLAS thread, set before NumPy loads: one client, one core's worth of
# work per operation, so the numbers measure the program, not the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
KERNEL_NOMINAL_S = 0.014
SETUP_KERNELS = 3


class Kernel:
    """Fixed work timed next to the work the benchmark measures, so that
    times can be calibrated for the host's drifting speed (see
    ``calibrated``). It has two parts: NumPy (four logistic fits on 10^4
    fixed rows) and plain Python (parsing 3000 lines of numbers)."""

    def __init__(self):
        import numpy as np
        import reference

        rng = np.random.default_rng(0)
        self._X = np.column_stack([np.ones(10_000),
                                   rng.normal(size=(10_000, 3))])
        eta = self._X @ np.array([0.2, 1.0, -1.0, 0.5])
        self._y = (rng.uniform(size=10_000) < 1 / (1 + np.exp(-eta))
                   ).astype(float)
        self._lines = [",".join(repr(float(v)) for v in row)
                       for row in rng.normal(size=(3000, 8))]
        self._fit = reference.logistic_max_loglik
        for _ in range(3):
            self.time()

    def time(self) -> tuple[float, float]:
        """Seconds of the NumPy part and of the plain-Python part."""
        start = time.perf_counter()
        for _ in range(4):
            self._fit(self._y, self._X)
        mid = time.perf_counter()
        for line in self._lines:
            [float(x) for x in line.split(",")]
        return mid - start, time.perf_counter() - mid


def calibrated(seconds, kernels, parts):
    """``seconds`` as they would read on a host where the kernel's
    ``parts`` (0 NumPy, 1 Python) take KERNEL_NOMINAL_S each: scaled by
    the mean of the kernel times taken in the same stretch of the run.
    The same work can take a quarter longer or shorter from one minute to
    the next on a shared host, and within a second it runs in a fast or a
    slow state; one kernel time says little, their mean over a run says
    how fast the run's host was."""
    kernel_s = statistics.fmean(sum(k[p] for p in parts) for k in kernels)
    factor = KERNEL_NOMINAL_S * len(parts) / kernel_s
    return [t * factor for t in seconds]


def fresh_import_s(statement: str, inner: bool = False) -> float:
    """Wall time of a fresh interpreter that runs ``statement``, or with
    ``inner`` the time of the statement alone, measured inside it."""
    code = (f"import time; t = time.perf_counter(); {statement}; "
            f"print(time.perf_counter() - t)") if inner else statement
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout) if inner else time.perf_counter() - start


def run_op(op, probe, workloads):
    """Time one operation, then check it: (seconds, raised, Check). The
    check runs outside the timed span."""
    probe.captured.clear()
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception:
        error = traceback.format_exc(limit=3)
        return time.perf_counter() - start, error, workloads.Check([], [], [])
    seconds = time.perf_counter() - start
    try:
        return seconds, None, op.check(out, probe.captured)
    except Exception:
        return seconds, None, workloads.Check(
            [f"check raised: {traceback.format_exc(limit=3)}"], [], [])


def measure(wl, state, seconds, trace, kernel):
    """The timed loop, in the forked process: whole rounds until the
    operations have taken ``seconds``, calibrated, and at least
    ``wl.min_rounds`` are done. Calibrated, a run holds about the same
    number of operations whether the host is in a fast or a slow phase."""
    import probe as probe_mod
    import workloads

    probe = probe_mod.Probe(trace)
    probe.install(workloads.SITES, wl.capture)
    wl.in_process = trace
    ops = []            # (round, seconds, raised, check)
    kernels = []
    r = 0
    while r < wl.min_rounds or sum(calibrated(
            [op[1] for op in ops], kernels, wl.kernel_parts)) < seconds:
        for op in wl.round_ops(state, r):
            probe.op = len(ops)
            kernels.append(kernel.time())
            ops.append((r, *run_op(op, probe, workloads)))
        r += 1
    kernels.append(kernel.time())
    probe.captured.clear()

    times = [dt for _, dt, _, _ in ops]
    ref = [c for rnd, _, _, c in ops if rnd < wl.min_rounds]
    ref_errors = [e for c in ref for e in c.ace_errors]
    result = {
        "attempted": len(ops),
        "failed": sum(bool(error or c.problems) for _, _, error, c in ops),
        "errors": [error for _, _, error, _ in ops if error][:5],
        "problems": [p for *_, c in ops for p in c.problems][:20],
        "op_s": times,
        "kernel_s": kernels,
        "rounds": r,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    if trace:
        metrics = probe_mod.layer_metrics(probe.spans, len(ref))
        metrics.update({
            "ref.ops": len(ref),
            "ref.correct_verdicts": sum(sum(c.verdicts) for c in ref),
            "ref.ace_abs_err": (statistics.median(ref_errors)
                                if ref_errors else 0.0),
            "trace.spans": len(probe.spans),
            "trace.overhead_s":
                probe.overhead_per_span() * len(probe.spans),
            "trace.op_s.p50": statistics.median(times),
            "trace.kernel_s": statistics.median(sum(k) for k in kernels),
            "cli.import_s": (statistics.median(
                fresh_import_s("import shadowipw.cli", inner=True)
                for _ in range(IMPORT_REPEATS))
                if wl.name == "pipeline-csv" else 0.0),
        })
        result["metrics"] = metrics
        with open(OUT / f"{wl.name}-s{state['seed']}.trace.jsonl", "w") as fh:
            for s in probe.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent,
                                     "op": s.op, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     **(s.info or {})}) + "\n")
    probe.restore()
    return result


def _exit_on_signal(signum, frame):
    sys.exit(128 + signum)


def run_forked(fn):
    """Run ``fn`` in a forked child, in a process group of its own, and
    return what it returns (through JSON). If this process is interrupted
    or terminated, the child's whole group is killed and waited for."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.setpgid(0, 0)
        os.close(read_fd)
        try:
            payload = json.dumps(fn())
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc()})
        with os.fdopen(write_fd, "w") as fh:
            fh.write(payload)
        os._exit(0)
    os.setpgid(pid, pid)
    os.close(write_fd)
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        with os.fdopen(read_fd) as fh:
            payload = fh.read()
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
        signal.signal(signal.SIGTERM, previous)
    return json.loads(payload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shadowipw" / "__init__.py").is_file():
        print(f"perfbench: no shadowipw package under {SRC}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    run_dir = OUT / f"{args.workload}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # one CPU for the benchmark and every process it starts, so that the
    # kernel and the operation it calibrates see the same processor
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    kernel = Kernel()
    try:
        setup_s, setup_layers = [], []
        setup_kernels = [kernel.time() for _ in range(SETUP_KERNELS)]
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            fresh_import_s("import shadowipw")
            state, layers, setup_problems = wl.setup(args.seed, run_dir)
            setup_s.append(time.perf_counter() - start)
            setup_kernels += [kernel.time() for _ in range(SETUP_KERNELS)]
            setup_layers.append(layers)
        loop = run_forked(lambda: measure(wl, state, args.seconds,
                                          bool(args.trace), kernel))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if "error" in loop:
        print(loop["error"], file=sys.stderr)
        return 1

    problems = setup_problems + loop["problems"]
    for p in loop["errors"] + problems:
        print(f"perfbench: {p}", file=sys.stderr)
    times = loop["op_s"]
    op_cal = calibrated(times, loop["kernel_s"], wl.kernel_parts)
    setup_cal = calibrated(setup_s, setup_kernels, (0, 1))
    if args.trace:
        metrics = dict(loop["metrics"])
        for name in ("simulate.true_ace.s", "data.write_csv.s"):
            metrics[name] = statistics.median(
                layers.get(name, 0.0) for layers in setup_layers)
        kind = "per_layer"
    else:
        metrics = {"setup_s": statistics.median(setup_cal),
                   "op_s.p50": statistics.median(op_cal),
                   "peak_rss_mb": loop["peak_rss_mb"]}
        kind = "end_to_end"
    result = {
        "correct": not problems,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in _benchmark()[kind]},
    }
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**result, "errors": loop["errors"], "problems": problems,
                    "rounds": loop["rounds"], "setup_s": setup_s,
                    "setup_kernel_s": setup_kernels, "op_s": times,
                    "kernel_s": loop["kernel_s"]}, indent=1))
    print(f"{args.workload} seed {args.seed}: {len(times)} operations, "
          f"{sum(times):.2f} s, {len(times) / sum(times):.3f}/s; "
          f"p50 {statistics.median(times):.4f} s, calibrated "
          f"{statistics.median(op_cal):.4f} s; set-up "
          f"{statistics.median(setup_s):.3f} s, calibrated "
          f"{statistics.median(setup_cal):.3f} s")
    print(json.dumps(result))
    return 0


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
