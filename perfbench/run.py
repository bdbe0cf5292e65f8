"""Benchmark of `prescurv solve` on seeded workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sphere2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop: it solves the generated case,
checks the outputs, and starts the next solve of the same case, until
`--seconds` would be exceeded by one more median solve (at least 3 solves).
A cheaper input of the same workload is solved first and not timed, so lazy
imports and first-call costs stay out of the numbers.  BLAS runs on one
thread.  Inputs and outputs go under `.perfbench_out/` in the working
directory.

Workloads (see workloads.py for how each seed becomes an input):

- sphere2d: a non-axisymmetric prescription on a full 16x8 mesh, euclidean
  warp.  The dense finite-difference Jacobian and the residual kernel do
  nearly all the work.
- custom_manufactured: the polynomial warp lambda = r + r^3/6 on a reduced
  16-node mesh with an exact node-defined target.  The custom-warp
  antiderivative does nearly all the work.
- round_io: the closed-form round case on a 128x64 mesh.  No Jacobian is
  built; geometry on a large mesh, monitors and the CSV writers do the work.

With `--trace 0` the run prints, by name and unit:

- solve_s: median wall time of one `prescurv solve`, argv to exit code;
- solve_s_tail: the highest percentile of solve_s with at least ten samples
  beyond it (the maximum when there are fewer than 11 samples), with the
  percentile and the sample count;
- solve_ref: the median over solves of the solve's wall time divided by the
  mean wall time of a block of the fixed reference kernel (reference.py), run
  in a burst just before and just after that solve; it moves with the
  program's speed but hardly with the machine's drifting speed;
- setup_s: the time of a fresh process to import prescurv, parse the config
  and build the mesh and problem, at the nominal machine speed: the median
  over SETUP_REPEATS fresh processes, divided by the median time of a fresh
  process importing a fixed set of standard-library modules (setup_probe.py),
  run before and after each of them, and multiplied by that reference's
  nominal time SETUP_REF_S; this follows the program's set-up cost but
  hardly the machine's drifting speed.  setup_s_raw, the plain median, is
  printed with it;
- peak_rss_mb: peak resident memory of the process that ran the workload;
- fail_rate: failed solves over attempted ones.

The last stdout line carries solve_ref, setup_s and peak_rss_mb, the metrics
steady enough to gate a change on: solve_s and its tail drift by 10-30 %
between runs of the same code on a shared machine.  Failed solves are counted
in `failed` out of `attempted`.  With `--trace 1`
half of the time runs untraced solves and half runs solves with every public
prescurv function wrapped (see tracing.py); the last line carries the
per-layer metrics of layers.py, and the spans are saved to spans.npz.
The exit code is 1 when any output check fails.
"""

import os

# one BLAS thread: the plain single-threaded baseline (set before numpy loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import reference  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_case  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"
SETUP_REPEATS = 5
SETUP_REF_S = 0.1   # nominal time of the set-up reference probe, in seconds
MIN_SOLVES = 3
TAIL_BEYOND = 10
REF_SHARE = 0.1   # reference-kernel time after a solve, as a share of that solve


def _die(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_prescurv(root: str) -> str:
    """Import prescurv from `root/src`, never from an installed copy."""
    src = os.path.join(root, "src")
    pkg = os.path.join(src, "prescurv")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        _die(f"no prescurv sources in {pkg}; run from the repository root")
    sys.path.insert(0, src)
    import prescurv

    if os.path.dirname(os.path.abspath(prescurv.__file__)) != pkg:
        _die(f"imported prescurv from {prescurv.__file__}, expected {pkg}")
    return src


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def tail(durations):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(durations)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n


def solve_ref(durations, bursts):
    """Median over solves of: solve time / mean reference block of the two bursts around it.

    Normalising each solve by the blocks run just before and just after it
    follows the machine's speed as it drifts during a run.
    """
    return statistics.median(d / statistics.mean(bursts[i] + bursts[i + 1])
                             for i, d in enumerate(durations))


class Runner:
    """Solves one case in-process, in a closed loop."""

    def __init__(self, case, out_dir):
        import prescurv
        from checks import Tally
        from prescurv import cli

        self.package, self.cli = prescurv, cli
        self.case = case
        self.out_dir = out_dir
        self.tally = Tally(case)
        self.count = 0
        self.bursts = []   # reference block times; burst i precedes solve i

    def solve(self, config, out_dir):
        """One `prescurv solve`: (exit code, seconds, error message or None)."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = self.cli.main(["--config", config, "--out", out_dir, "solve"])
            error = None
        except Exception as exc:  # a raw exception is a failed solve, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        return code, time.perf_counter() - t0, error

    def check_assumptions(self, config):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = self.cli.main(["--config", config, "check-assumptions"])
        if code != 0:
            _die(f"generated input {config} fails check-assumptions:\n{buf.getvalue()}", 3)

    def warm_up(self, warm_case):
        code, _, error = self.solve(warm_case.config, os.path.join(self.out_dir, "warmup-out"))
        if code != 0 or error is not None:
            self.tally.attempted += 1
            self.tally.failed += 1
            self.tally.messages.append(f"warm-up solve: exit {code} {error or ''}")

    def burst(self, target):
        """Reference blocks until they add up to `target` seconds, at least one."""
        times = []
        while not times or sum(times) < target:
            t0 = time.perf_counter()
            reference.block()
            times.append(time.perf_counter() - t0)
        self.bursts.append(times)

    def loop(self, seconds, min_solves, tracer=None, with_reference=False):
        """Solve until one more median solve would pass `seconds`; per-solve times.

        `with_reference` brackets every solve with bursts of reference blocks:
        one before the first solve, and after each solve one of REF_SHARE of
        its time.
        """
        if with_reference:
            self.burst(0.0)
        durations = []
        begin = time.perf_counter()
        while True:
            solve_dir = os.path.join(self.out_dir, f"solve-{self.count:06d}")
            if tracer is not None:
                tracer.install(self.package)
            try:
                code, seconds_taken, error = self.solve(self.case.config, solve_dir)
            finally:
                if tracer is not None:
                    tracer.remove()
            durations.append(seconds_taken)
            if with_reference:
                self.burst(REF_SHARE * seconds_taken)
            self.tally.record(solve_dir, code, error)
            if self.count > 0:
                shutil.rmtree(solve_dir, ignore_errors=True)
            self.count += 1
            elapsed = time.perf_counter() - begin
            if len(durations) >= min_solves and elapsed + statistics.median(durations) > seconds:
                return durations


def _probe(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), *args],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        _die(f"set-up probe failed:\n{proc.stderr}")
    return next(iter(json.loads(proc.stdout.strip().splitlines()[-1]).values()))


def setup_times(src, config):
    """(set-up probe times, reference probe times): a reference probe before and after each."""
    times, refs = [], [_probe()]
    for _ in range(SETUP_REPEATS):
        times.append(_probe(src, config))
        refs.append(_probe())
    return times, refs


def run_workload(workload, seed, seconds, trace):
    root = os.getcwd()
    src = _import_prescurv(root)

    out_dir = os.path.join(OUT_ROOT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    case = make_case(workload, seed, os.path.join(out_dir, "input"))
    warm = make_case(workload, seed, os.path.join(out_dir, "warmup"), warmup=True)
    runner = Runner(case, out_dir)
    runner.check_assumptions(case.config)
    runner.check_assumptions(warm.config)
    env = environment()
    print("env " + json.dumps(env))
    print("case " + json.dumps({"workload": workload, "seed": seed, "params": case.params,
                                "n_nodes": case.n_nodes}))

    summary = {"env": env, "workload": workload, "seed": seed, "params": case.params}
    if trace:
        runner.warm_up(warm)
        untraced = runner.loop(seconds / 2.0, 1)
        tracer = Tracer()
        traced = runner.loop(seconds / 2.0, 1, tracer)
        metrics = layer_metrics(tracer.arrays(), tracer.results, case.n_nodes,
                                traced, untraced, runner.tally.bytes or 0)
        tracer.save(os.path.join(out_dir, "spans.npz"))
        summary.update(untraced_s=untraced, traced_s=traced)
        print(f"solves: {len(untraced)} untraced, {len(traced)} traced; "
              f"busy times also as a share of the traced solve_s")
        per_solve = statistics.mean(traced)
    else:
        setup, setup_refs = setup_times(src, case.config)
        runner.warm_up(warm)
        durations = runner.loop(seconds, MIN_SOLVES, with_reference=True)
        bursts = runner.bursts
        refs = [t for b in bursts for t in b]
        tail_s, pct = tail(durations)
        metrics = {
            "solve_ref": (solve_ref(durations, bursts), "ref"),
            "setup_s": (SETUP_REF_S * statistics.median(setup) / statistics.median(setup_refs),
                        "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        summary.update(solve_s=durations, setup_raw_s=setup, setup_ref_s=setup_refs,
                       ref_bursts_s=bursts)
        per_solve = None
        print(f"solves: {len(durations)}, reference blocks: {len(refs)}")
        print(f"  {'solve_s (median)':48s} {statistics.median(durations):14.6g} s")
        print(f"  {'solve_s_tail (p%.1f of %d)' % (pct, len(durations)):48s} {tail_s:14.6g} s")
        print(f"  {'reference block (mean)':48s} {statistics.mean(refs):14.6g} s")
        print(f"  {'setup_s_raw (median)':48s} {statistics.median(setup):14.6g} s")
        print(f"  {'set-up reference probe (median)':48s} "
              f"{statistics.median(setup_refs):14.6g} s")

    tally = runner.tally
    for name, (value, unit) in metrics.items():
        share = f"  {100.0 * value / per_solve:5.1f}%" if per_solve and name.endswith("_s") else ""
        print(f"  {name:48s} {value:14.6g} {unit}{share}")
    print(f"  {'fail_rate':48s} {tally.failed / max(tally.attempted, 1):14.6g} "
          f"({tally.failed}/{tally.attempted})")
    for msg in tally.messages[:10]:
        print(f"FAILED {msg}")
    summary.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                   failures=tally.messages)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(seed, seconds, trace):
    """Each workload in its own fresh process; prints each one's metric table."""
    worst = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        print(f"{workload}: exit {proc.returncode}")
        for line in proc.stdout.splitlines():
            if line.startswith("  ") or line.startswith("FAILED"):
                print(line)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _die("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
