"""quivergrass benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --profile TOP

Workloads: enumerate, checkers, algebra, cli (see BENCHMARK.json for why
each exists).  The library is imported from the source tree at src/, as the
Tier-1 tests do, and the CLI children run with PYTHONPATH=src.  Load is one
caller in a closed loop: the next op starts when the previous one returned,
and CLI children run one at a time.

A run starts with one full pass over the workload's fixed op list and then
reruns its ops, except the few long ones marked to run once, until --seconds
have passed (see run_untraced).  Every op's answer is compared with a frozen
value; a mismatch or an exception is a failed op.

An op's latency is its fastest time in the run: on a shared host the CPU
speed can drift by tens of percent for seconds at a time, and the fastest of
an op's repeats is the least disturbed by that.

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh processes (SETUP_REPEATS, and more while
               SETUP_BUDGET_S lasts) of the time from process start to the
               point where the first op would be timed (importing
               quivergrass, generating the seeded inputs, witnesses and JSON
               files); the samples are in the report line
  wall_s       time of one pass over the op list, as the sum of each op's
               latency
  op_p50_ms,   median and 90th percentile of the op latencies over the op
  op_p90_ms    list; the sample count (the number of ops) is in the report
               line
  peak_rss_mb  peak resident memory of this process; for cli, of the largest
               CLI child
--trace 1 makes untraced op runs for a quarter of --seconds, installs the
layer tracer (tracer.py), makes traced passes for the rest of --seconds and
reports the per-layer metrics per traced pass, plus trace.overhead_ratio, the
traced pass time over the untraced one (each the sum of the ops' fastest
times).  Spans go to .bench_work/.
--profile TOP runs one pass under cProfile (CLI children under
``python -m cProfile``) and prints the TOP entries by cumulative time; it
reports no metrics.

Before the final result line, stdout carries one JSON line with the run's
metadata, failures and per-op breakdown; a traced enumerate run also prints
the engine table to stderr.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("enumerate", "checkers", "algebra", "cli")
SETUP_REPEATS = 5
SETUP_BUDGET_S = 3.0   # fast set-ups get more samples, up to this much time
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", type=int, default=0, metavar="TOP",
                    help="print the TOP cProfile entries of one pass instead "
                         "of measuring")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)   # a setup_s sample process
    return ap.parse_args(argv)


def git_sha() -> Optional[str]:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(args) -> List[float]:
    """Set-up times of fresh processes: at least SETUP_REPEATS, and more
    until SETUP_BUDGET_S has passed."""
    import workloads
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_BUDGET_S:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
        code, _ = workloads.wait_child(proc, SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"setup process exited with code {code}")
    return times


class Passes:
    """Op outcomes of repeated passes over one op list."""

    def __init__(self, ops) -> None:
        self.pass_s: List[float] = []
        self.op_s: dict = {op.name: [] for op in ops}
        self.answers: dict = {}
        self.engines: dict = {}
        self.attempted = 0
        self.failures: list = []

    def latencies_s(self) -> List[float]:
        """Each op's fastest time in the run."""
        return [min(ts) for ts in self.op_s.values()]

    def best_pass_s(self) -> float:
        return sum(self.latencies_s())


def run_op(op, res: Passes, first: bool, tracer=None) -> None:
    """Time one op and record its outcome."""
    import workloads
    if tracer is not None:
        tracer.engines = []
    t0 = time.perf_counter()
    ok, got = workloads.execute(op)
    res.op_s[op.name].append(time.perf_counter() - t0)
    res.attempted += 1
    if not ok:
        res.failures.append({"op": op.name, "expected": op.expected, "got": got})
    if first:
        res.answers[op.name] = got
        if tracer is not None and tracer.engines:
            res.engines[op.name] = "+".join(tracer.engines)


def run_pass(ops, res: Passes, tracer=None) -> None:
    first = not res.pass_s
    t_pass = time.perf_counter()
    for op in ops:
        run_op(op, res, first, tracer)
    res.pass_s.append(time.perf_counter() - t_pass)


def run_untraced(ops, res: Passes, deadline: float) -> None:
    """One pass over ops, then reruns of the ops not marked once until
    deadline.

    Each once op of the pass is followed by a rerun of the other ops run
    before it, and after the pass those ops run in turn until the first one
    whose first run would not end before the deadline.  On a workload with
    ops that run for seconds, the short ops then get a sample every second or
    so across the whole run rather than one per pass, so their fastest time
    is less exposed to slow spells of the host.  The pass time includes the
    reruns inside it.
    """
    reruns = []
    t_pass = time.perf_counter()
    for op in ops:
        run_op(op, res, first=True)
        if op.once:
            for rerun in reruns:
                run_op(rerun, res, first=False)
        else:
            reruns.append(op)
    res.pass_s.append(time.perf_counter() - t_pass)
    while reruns:
        for op in reruns:
            if time.perf_counter() + res.op_s[op.name][0] > deadline:
                return
            run_op(op, res, first=False)


def run_passes(ops, seconds: float, tracer=None) -> Passes:
    """Op runs for about seconds, starting with one full pass over ops.

    Traced runs make whole passes, each op once, so that their counters are
    per pass over the op list; they end with the pass that crosses the
    deadline.  Untraced runs are laid out by run_untraced.
    """
    res = Passes(ops)
    deadline = time.perf_counter() + seconds
    if tracer is None:
        run_untraced(ops, res, deadline)
        return res
    run_pass(ops, res, tracer)
    while time.perf_counter() < deadline:
        run_pass(ops, res, tracer)
    return res


def percentiles_ms(latencies_s: List[float]):
    cuts = statistics.quantiles(latencies_s, n=10, method="inclusive")
    return cuts[4] * 1e3, cuts[8] * 1e3


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, res: Passes, setup_samples: List[float]) -> dict:
    p50, p90 = percentiles_ms(res.latencies_s())
    if wl.children is not None:
        rss_kb = wl.children.max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "wall_s": metric(res.best_pass_s(), "s"),
        "op_p50_ms": metric(p50, "ms"),
        "op_p90_ms": metric(p90, "ms"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "per_row_space")):
        return "ratio"
    return "count"


def traced(wl, seconds: float):
    """Per-layer metrics per traced pass, the untraced and traced passes."""
    import tracer as tracing
    start = time.perf_counter()
    untraced = run_passes(wl.ops, seconds / 4)
    tr = tracing.Tracer()
    tracing.install(tr)
    import_s: List[float] = []
    if wl.children is not None:
        child_trace = WORKDIR / "child-trace.json"
        wl.children.prefix = [sys.executable, str(BENCH_DIR / "cli_entry.py"),
                              str(child_trace)]

        child_trace.unlink(missing_ok=True)

        def merge_child():
            # each child's trace is read once and removed, so a child that
            # dies before writing its own fails its op instead of leaving
            # the previous child's trace to be merged again
            try:
                text = child_trace.read_text(encoding="utf-8")
            except FileNotFoundError:
                raise RuntimeError("traced CLI child wrote no trace") from None
            child_trace.unlink()
            data = json.loads(text)
            tr.merge(data["summary"])
            import_s.append(data["import_s"])
            base = len(tr.spans)
            room = tracing.SPAN_CAP - base
            tr.spans.extend([n, s, e, p + base if p >= 0 else -1]
                            for n, s, e, p in data["spans"][:max(room, 0)])
            tr.dropped += data["dropped"] + max(len(data["spans"]) - room, 0)
        wl.children.on_exit = merge_child
    res = run_passes(wl.ops, seconds - (time.perf_counter() - start), tr)
    npass = len(res.pass_s)
    values = {name: val / npass if not name.endswith(("import_s", "per_row_space"))
              else val
              for name, val in tracing.layer_metrics(tr, import_s).items()}
    values["trace.overhead_ratio"] = res.best_pass_s() / untraced.best_pass_s()
    metrics = {name: metric(val, layer_unit(name)) for name, val in values.items()}
    return metrics, untraced, res, tr


def engine_table(ops, untraced: Passes, res: Passes) -> str:
    lines = ["| op | answer | engine | untraced s | traced s |",
             "|---|---|---|---|---|"]
    for op in ops:
        lines.append(f"| {op.name} | {res.answers[op.name]} | "
                     f"{res.engines.get(op.name, '-')} | "
                     f"{untraced.op_s[op.name][0]:.3f} | "
                     f"{statistics.median(res.op_s[op.name]):.3f} |")
    return "\n".join(lines)


def profile(wl, top: int) -> int:
    stats = None
    res = Passes(wl.ops)
    if wl.children is not None:
        prof_path = WORKDIR / "child.prof"
        wl.children.prefix = [sys.executable, "-m", "cProfile", "-o", str(prof_path),
                              "-m", "quivergrass.cli"]

        def add_child():
            nonlocal stats
            if stats is None:
                stats = pstats.Stats(str(prof_path))
            else:
                stats.add(str(prof_path))
        wl.children.on_exit = add_child
        run_pass(wl.ops, res)
    else:
        prof = cProfile.Profile()
        prof.enable()
        run_pass(wl.ops, res)
        prof.disable()
        stats = pstats.Stats(prof)
    stats.sort_stats("cumulative").print_stats(top)
    for fail in res.failures:
        print(f"failed op: {json.dumps(fail, default=str)}", file=sys.stderr)
    return 1 if res.failures else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "quivergrass" / "__init__.py").is_file():
        print(f"error: no quivergrass source tree at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    WORKDIR.mkdir(exist_ok=True)
    setup_samples: List[float] = []
    if not (args.trace or args.profile or args.setup_only):
        setup_samples = measure_setup(args)
    import workloads
    wl = workloads.build(args.workload, args.seed, ROOT, WORKDIR)
    if args.setup_only:
        return 0
    if args.profile:
        return profile(wl, args.profile)
    # setup garbage is not the measured ops' to collect, and the inputs that
    # live through the run are not theirs to scan
    gc.collect()
    gc.freeze()

    trace_path = WORKDIR / f"trace-{args.workload}-{args.seed}.json"
    if args.trace:
        metrics, untraced, res, tr = traced(wl, args.seconds)
        runs = (untraced, res)
    else:
        res = run_passes(wl.ops, args.seconds)
        metrics = end_to_end(wl, res, setup_samples)
        runs = (res,)
    # a traced run's untraced part counts too
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    failed = len(failures)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "command": [Path(sys.executable).name] + sys.argv,
        "source": "src (PYTHONPATH=src)",
        "setup_samples_s": setup_samples,
        "passes": len(res.pass_s), "pass_s": res.pass_s, "op_runs": attempted,
        "percentile_samples": len(wl.ops),
        "failed_ratio": failed / attempted,
        "failures": failures[:10],
        "ops": [{"name": op.name, "answer": res.answers[op.name],
                 "runs": len(res.op_s[op.name]),
                 "fastest_ms": min(res.op_s[op.name]) * 1e3,
                 "median_ms": statistics.median(res.op_s[op.name]) * 1e3,
                 **({"engine": res.engines[op.name]} if op.name in res.engines else {})}
                for op in wl.ops],
    }
    if args.trace:
        tr.write(trace_path, {"report": report})
        if args.workload == "enumerate":
            print(engine_table(wl.ops, untraced, res), file=sys.stderr)
    for fail in failures[:10]:
        print(f"failed op: {json.dumps(fail, default=str)}", file=sys.stderr)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
