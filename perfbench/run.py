"""End-to-end benchmark of twlab, with a traced run for per-layer numbers.

    python3 perfbench/run.py --workload verify-bf --seed 1 --seconds 30 --trace 0

The benchmark imports twlab from the checkout's `src/` and drives its public
API from outside, in one process, with whatever kernel backend imports.  It
prints every metric by name and unit, then one JSON result line.  It also
writes that result, with the environment (kernel backend, Python version,
nproc, seed), to perfbench/results/; compare results with compare.py.

Workloads (closed loop, one caller; the seed picks which pool entries run and
in what order, and each operation's output is checked against the committed
verdict reference, reference.json):

  verify-bf    one op = verify_reduction(cases=1, solver=bf) on one of six
               pipelines near their guards: pc-lc k=4 n=3 p=0.5, lc-pce k=6
               n=10, clique-gensat k=4 n=8 p=0.6, chosen-minmax n=8
               rho_max=8, pc-chosen k=3 n=3, pc-minmax k=2 n=2 p=0.3.  The
               problems oracles and kernels searches take most of the time and
               DP takes none.  Yes-instances stop the search early, no-instances
               exhaust it, and pc-lc no-cases set the tail.  rho_max is raised
               above its default because the default gives about 5 yes in 100.
  verify-dp    one op = verify_reduction(cases=1, solver=dp): pc-chosen k=2
               n=3 and k=3 n=2, pc-minmax k=2 n=2 p=0.25, chosen-minmax n=8
               p=0.4 rho_max=10, pc-lc k=4 n=3.  dp_chosen_outdegree takes most
               of the time and min-fill, to_nice, validate and check_nice on
               many small gadgets most of the rest; brute force is limited to
               the cheap source oracle.
  graph-scale  one op = one standalone graph through the tw/solve path, no
               reductions and no brute force: grids of 3-6 rows and sparse
               random graphs of n=100-600 through min-fill, to_nice and the
               list-colouring DP with random 2-3-colour lists;
               flow_min_max_uniform on sparse random graphs; exact_treewidth
               on random graphs of n=13-16.  It uses treewidth with few large
               inputs instead of many tiny ones, where the quadratic min-fill,
               to_nice and flow show, and it is the only home of
               exact_treewidth and the flow solver.

Left out of the timed workloads, because they hang or cannot run steadily:
pc-lc with solver=bf at k=4, n>=4 (inside GUARDS; single cases take seconds
to minutes); pc-chosen k=3 n=3 with solver=dp (cases run past 60 s); and
--jobs > 1 on two cores.  They belong here once the searches run under a
work budget.

End-to-end metrics (--trace 0): ops_per_s (succeeded ops per second spent
inside ops), op_ms_p50 and op_ms_p90 (wall time per op, sample count
printed), setup_s (median of five set-ups, each import plus input
generation in a fresh process and scaled by a calibration right after it),
peak_rss_mb, and td_width_sum (the sum of the min-fill widths on graph-scale;
of the certified witness widths on the verify workloads), summed over the
first pass of a run.  failed_frac is printed too; the result line carries
it as `failed` of `attempted`.  An op fails if it raises, if the harness
reports disagreement or bound_ok false, if its output differs from the
reference, or if it runs past its wall-clock budget (SIGALRM).

Timings are reported at a nominal machine speed.  On shared cores the speed
of this machine drifts by a quarter within seconds and over minutes, so a
fixed calibration loop (class Calibration) runs after every op for 5% of its
time, and each op's time is scaled by the calibration rate measured around
it.  The timings as measured, and the calibration speed, are printed and
written to the result file next to the scaled ones.

The traced run (--trace 1) runs one fixed pass untraced and then traced, and
reports self time and call counts per layer, wrapped from this directory
(tracer.py), plus the trace overhead.  Counters inside the program (search
nodes, DP states against (rho+1)^|bag|) are a later change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"
BUDGET_S = 10.0  # per op; the slowest op takes about 1.5 s
HARD_STOP_S = 120.0  # no op starts after this, so a run ends within 180 s
SETUP_REPEATS = 5
CAL_SHARE = 0.05  # calibration time after each op, as a share of the op's time
CAL_UNITS_PER_S = 6000.0  # calibration rate of the nominal machine
CAL_WINDOW = 25  # ops either side whose calibration rate scales an op's time


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded(f"over the {BUDGET_S} s budget")


def use_checkout_source() -> None:
    """Import twlab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "twlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no twlab sources under {src}")
    sys.path.insert(0, str(src))


def setup(workload_name: str):
    """Import twlab and build every input; returns (workload, inputs, seconds)."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS, prepare_inputs

    workload = WORKLOADS[workload_name]
    inputs = prepare_inputs(workload)
    return workload, inputs, time.perf_counter() - t0


def probe_setup(workload_name: str) -> tuple[float, float]:
    """(seconds, calibration speed) of one set-up in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload_name, "--probe-setup"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, speed = out.stdout.split()[-2:]
    return float(seconds), float(speed)


def setup_speed(seconds: float) -> float:
    """Calibration speed right after a set-up, sampled for a fifth of its
    time."""
    cal = Calibration()
    cal.after_op(4 * seconds)
    return cal.speed()


class Calibration:
    """Fixed pure-Python work (set lookups and list updates, the kind of
    work twlab does) run after every op for CAL_SHARE of its time.

    On shared cores this machine's speed drifts by a quarter within seconds
    and over minutes, which swamps run-to-run comparisons.  The calibration
    rate, sampled in step with the ops, tracks that drift: each op's time is
    scaled by the rate measured around it (CAL_WINDOW ops either side) to a
    nominal machine on which the rate is CAL_UNITS_PER_S.
    """

    def __init__(self):
        rng = random.Random(1)
        self.graph = [set(rng.sample(range(200), 8)) for _ in range(200)]
        self.slots = [0] * 37
        self.units = [0]  # prefix sums over ops
        self.seconds = [0.0]

    def unit(self) -> int:
        # creates no containers, so it never triggers the garbage collector,
        # whose cost would depend on what the op left behind
        g, slots = self.graph, self.slots
        total = 0
        for v in range(0, 200, 8):
            gv = g[v]
            for u in gv:
                for w in g[u]:
                    if w in gv:
                        total += 1
        for i in range(300):
            slots[i % 37] ^= i
        return total

    def after_op(self, op_seconds: float) -> None:
        units = max(1, round(op_seconds * CAL_SHARE * CAL_UNITS_PER_S))
        self.unit()  # untimed: refills the caches the op evicted
        t0 = time.perf_counter()
        for _ in range(units):
            self.unit()
        self.seconds.append(self.seconds[-1] + time.perf_counter() - t0)
        self.units.append(self.units[-1] + units)

    def speed(self, lo: int = 0, hi: int | None = None) -> float:
        """Measured rate over the nominal one for ops lo..hi-1 (all by
        default); above 1 on a faster machine."""
        hi = len(self.units) - 1 if hi is None else hi
        return (self.units[hi] - self.units[lo]) / (self.seconds[hi] - self.seconds[lo]) / CAL_UNITS_PER_S

    def scaled(self, times: list[float]) -> list[float]:
        """Each op's time on the nominal machine."""
        n = len(times)
        return [
            t * self.speed(max(0, i - CAL_WINDOW), min(n, i + CAL_WINDOW + 1))
            for i, t in enumerate(times)
        ]


class Tally:
    """Per-op times, failures, yes/no answers and the width sum of a run."""

    def __init__(self):
        self.cal = Calibration()
        self.times: list[float] = []
        self.failures: list[str] = []
        self.answers: Counter = Counter()
        self.width_sum = 0

    def run_op(self, workload, reference, setting, j, inp, tracer=None) -> None:
        """Run one op under the wall-clock budget, time it and check it."""
        if tracer is not None:
            tracer.begin_op()
        problem = None
        signal.signal(signal.SIGALRM, _on_alarm)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        try:
            result = workload.run(inp)
        except BudgetExceeded as exc:
            problem = str(exc)
        except Exception as exc:  # an op that raises is a counted failure
            problem = f"raised {type(exc).__name__}: {exc}"
            if len(self.failures) < 3:
                traceback.print_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.times.append(time.perf_counter() - t0)
        self.cal.after_op(self.times[-1])
        if problem is None:
            out = workload.outcome(setting, inp, result)
            expected = reference[setting.label][j]
            if out.problem:
                problem = out.problem
            elif out.row != expected:
                problem = f"got {out.row!r}, reference {expected!r}"
            if out.answer:
                self.answers[setting.group, out.answer] += 1
                self.answers[None, out.answer] += 1
            if len(self.times) <= workload.pass_ops:
                self.width_sum += out.width
        if problem:
            self.failures.append(f"{setting.label} #{j}: {problem}")


def run_ops(workload, stream, reference, seconds) -> Tally:
    """Run ops from `stream` until `seconds` have passed and at least one
    pass ran, stopping only between whole rounds so that every run has the
    same op mix."""
    round_len = sum(s.weight for s in workload.settings)
    tally = Tally()
    start = time.perf_counter()
    for i, (setting, j, inp) in enumerate(stream):
        elapsed = time.perf_counter() - start
        if (i >= workload.pass_ops and i % round_len == 0 and elapsed >= seconds) or elapsed >= HARD_STOP_S:
            break
        tally.run_op(workload, reference, setting, j, inp)
    return tally


def trace_pass(workload, ops, reference):
    """Run each op untraced and traced, alternating which goes first so that
    drifts in machine speed cancel out of the overhead."""
    from tracer import Tracer

    plain, traced, tracer = Tally(), Tally(), Tracer()
    for n, (setting, j, inp) in enumerate(ops):
        for traced_now in ((False, True) if n % 2 == 0 else (True, False)):
            if traced_now:
                with tracer:
                    traced.run_op(workload, reference, setting, j, inp, tracer)
            else:
                plain.run_op(workload, reference, setting, j, inp)
    return plain, traced, tracer


def environment(seed: int) -> dict:
    from twlab.kernels import BACKEND

    return {
        "backend": BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def e2e_metrics(run: Tally, setup_s: float, times: list[float]) -> dict:
    """End-to-end metrics from per-op `times`."""
    ok = len(times) - len(run.failures)
    return {
        "ops_per_s": (ok / sum(times), "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(times, n=10)[-1] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "td_width_sum": (run.width_sum, "count"),
    }


def load_reference(workload_name: str) -> dict:
    """Reference rows by setting label; reference.json keys are
    "<workload>|<setting label>"."""
    with open(REFERENCE, encoding="utf-8") as fh:
        data = json.load(fh)
    prefix = workload_name + "|"
    return {k[len(prefix):]: rows for k, rows in data.items() if k.startswith(prefix)}


def write_reference() -> int:
    """Recompute reference.json from every pool entry of every workload;
    refuses if any op fails its own checks."""
    from workloads import WORKLOADS, prepare_inputs

    lines = []
    for name, workload in WORKLOADS.items():
        inputs = prepare_inputs(workload)
        for setting in workload.settings:
            rows = []
            for j, inp in enumerate(inputs[setting.label]):
                out = workload.outcome(setting, inp, workload.run(inp))
                if out.problem:
                    print(f"{name} {setting.label} #{j}: {out.problem}", file=sys.stderr)
                    return 1
                rows.append(out.row)
            key = json.dumps(f"{name}|{setting.label}")
            lines.append(f"{key}: {json.dumps(rows, separators=(',', ':'))}")
            print(f"{name} {setting.label}: {len(rows)} rows", flush=True)
    # one line per setting keeps the file small and its diffs readable
    tmp = REFERENCE.with_suffix(".tmp")
    tmp.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    tmp.replace(REFERENCE)
    return 0


def report(args, env, metrics, run: Tally, attempted, path_stem, speed, raw) -> None:
    failed = len(run.failures)
    answer_key = "source" if args.workload.startswith("verify") else "dp"
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()) + f" workload={args.workload} trace={args.trace}")
    for group in sorted({g for g, _ in run.answers}, key=lambda g: (g is not None, g)):
        label = args.workload if group is None else group
        print(f"balance {label}: yes_{answer_key}={run.answers[group, 'yes']} "
              f"no_{answer_key}={run.answers[group, 'no']}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"calibration speed = {speed!r} of nominal; timings as measured: "
          + ", ".join(f"{k} = {v!r} {u}" for k, (v, u) in raw.items() if u in ("s", "ms", "1/s")))
    print(f"samples {len(run.times)} ops; failed_frac = {failed / attempted!r} ({failed}/{attempted})")
    for line in run.failures[:10]:
        print("failure " + line)
    record = {
        "workload": args.workload, "trace": args.trace, "env": env,
        "attempted": attempted, "failed": failed, "samples": len(run.times),
        "balance": {f"{g or args.workload}:{a}": c for (g, a), c in run.answers.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "calibration_speed": speed,
        "as_measured": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "failures": run.failures[:50],
    }
    (RESULTS / f"{path_stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("verify-bf", "verify-dp", "graph-scale"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help="recompute reference.json from the current program (minutes)")
    args = ap.parse_args(argv)
    use_checkout_source()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")

    workload, inputs, setup_s = setup(args.workload)
    if args.probe_setup:
        print(setup_s, setup_speed(setup_s))
        return 0
    reference = load_reference(args.workload)
    env = environment(args.seed)

    from workloads import op_stream

    stream = op_stream(workload, args.seed, inputs)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    if not args.trace:
        setups = [(setup_s, setup_speed(setup_s))]
        setups += [probe_setup(args.workload) for _ in range(SETUP_REPEATS - 1)]
        run = run_ops(workload, stream, reference, args.seconds)
        speed = run.cal.speed()
        scaled_setup = statistics.median(sec * k for sec, k in setups)
        metrics = e2e_metrics(run, scaled_setup, run.cal.scaled(run.times))
        raw = e2e_metrics(run, statistics.median(sec for sec, _ in setups), run.times)
        report(args, env, metrics, run, len(run.times), stem, speed, raw)
        return 0

    ops = list(islice(stream, workload.pass_ops))
    plain, traced, tracer = trace_pass(workload, ops, reference)
    raw = tracer.layer_metrics(len(ops))
    speed = traced.cal.speed()
    metrics = {k: (v * speed if unit == "s" else v, unit) for k, (v, unit) in raw.items()}
    metrics["trace.overhead_frac"] = (sum(traced.times) / sum(plain.times) - 1, "frac")
    tracer.write(str(RESULTS / f"spans-{stem}.json"))
    traced.failures += plain.failures
    report(args, env, metrics, traced, 2 * len(ops), stem, speed, raw)
    return 0


if __name__ == "__main__":
    sys.exit(main())
