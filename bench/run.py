"""omegalie benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload paper|classify|forms --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N [--seconds S] [--trace 0|1]

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of one
traced suite run and TRACE_BATCHES traced batches.  ``--workload all`` runs each workload
in its own fresh process, one after the other, and prints one table.  The exit
code is nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import queue
import resource
import statistics
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MODULES = ("fields", "linalg", "groebner", "omega", "report", "variety", "classify3", "cli")

SETUP_REPS = 3        # set-ups per run; setup_s is their median
TRACE_BATCHES = 3     # batches with and without tracing in a traced run
SWITCH_S = 0.001      # how often a run and its twin trade the interpreter lock
PINNED = BENCH / "pinned" / "omegalie"
REFERENCE_SEED = 0    # the pinned copy's items are drawn from this seed on every run
# Statistics of the pinned copy's twins (items drawn from REFERENCE_SEED, the
# suite, the set-up) on the reference box: 2 shared cores, Python 3.11.7,
# medians over five runs.  A run reports each time statistic of the library
# under test times REFERENCE[workload][metric] / (the same statistic of the
# twins in that run), which cancels the host's changes in speed.
REFERENCE = {
    "paper": {"setup_s": 0.228, "job_s": 0.132, "suite_s": 10.4,
              "item_p50_ms": 0.547, "item_p90_ms": 0.772},
    "classify": {"setup_s": 0.356, "job_s": 2.23, "suite_s": 1.11,
                 "item_p50_ms": 7.86, "item_p90_ms": 22.6},
    "forms": {"setup_s": 0.631, "job_s": 4.69, "suite_s": 1.07,
              "item_p50_ms": 7.01, "item_p90_ms": 69.6},
}

END_TO_END = {
    "setup_s": "s", "job_s": "s", "suite_s": "s", "item_p50_ms": "ms",
    "item_p90_ms": "ms", "ok_frac": "frac", "peak_rss_mb": "MB",
}


def fresh_import(name, path=None):
    """A fresh import of the package `name`, from sys.path or, given `path`,
    from that directory; earlier imports of it are dropped."""
    for module in [n for n in sys.modules if n == name or n.startswith(name + ".")]:
        del sys.modules[module]
    if path is None:
        importlib.import_module(name)
    else:
        spec = importlib.util.spec_from_file_location(
            name, path / "__init__.py", submodule_search_locations=[str(path)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
    return types.SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                                    for m in MODULES})


def load_library():
    """omegalie from src/."""
    return fresh_import("omegalie")


def load_pinned():
    """The pinned copy under bench/pinned/, imported as the package
    omegalie_pinned so that it lives beside the one from src/."""
    return fresh_import("omegalie_pinned", PINNED)


def git_sha():
    """The checked-out commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "omegalie").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def run_batch(items, tally, best, twins=None, twin_best=None, companion=None):
    """One closed-loop pass: each item is called, timed, then checked before
    the next starts, and its fastest time kept in `best`.  With `twins`, item
    i runs at the same time as twins[i], the pinned copy's item from the same
    place, in the companion thread; the twin's fastest time goes to
    `twin_best`.  Times are CPU seconds of the thread that ran the call."""
    for index, item in enumerate(items):
        if twins is None:
            out, error, seconds = timed(item.call)
        else:
            (out, error, seconds), (_, twin_error, twin_seconds) = companion.together(
                lambda: timed(item.call), lambda: timed(twins[index].call))
            if twin_error is not None:
                raise RuntimeError(f"the pinned copy failed: {twin_error!r}")
            twin_best[index] = min(twin_best[index], twin_seconds)
        best[index] = min(best[index], seconds)
        if error is None:
            try:
                item.check(out)
            except Exception as exc:
                error = exc
        tally.record(item.kind, error)


def timed(call):
    """(result, exception raised or None, CPU seconds of this thread)."""
    start = time.thread_time()
    try:
        out, error = call(), None
    except Exception as exc:  # a raising item is a failed item; keep going
        out, error = None, exc
    return out, error, time.thread_time() - start


class Companion:
    """A second thread that runs the pinned copy's calls at the same time as
    the calling thread runs the library's.  The two threads take turns
    holding the interpreter lock every SWITCH_S seconds, so both see the
    host's speed of the same moments; calls time themselves in CPU time of
    their own thread.  One long-lived thread, rather than one per call, keeps
    the process's memory the same from run to run."""

    def __init__(self):
        self.jobs = queue.Queue()
        self.results = queue.Queue()
        self.thread = threading.Thread(target=self._serve, name="pinned-twin")
        self.thread.start()

    def _serve(self):
        while (job := self.jobs.get()) is not None:
            try:
                self.results.put((job(), None))
            except BaseException as exc:  # handed to the caller in together()
                self.results.put((None, exc))

    def together(self, mine, twin):
        """(mine(), twin()), with twin() run in the companion thread."""
        self.jobs.put(twin)
        try:
            out = mine()
        finally:
            twin_out, error = self.results.get()
        if error is not None:
            raise error
        return out, twin_out

    def close(self):
        self.jobs.put(None)
        self.thread.join()


def quantile(values, q):
    """The Harrell-Davis estimate of the q-th percentile: a mean of all order
    statistics, weighted by the Beta(q(n+1)/100, (100-q)(n+1)/100) mass over
    each rank's slice of [0, 1].  Its weight lies on the ranks near q, so it
    reads like the nearest-rank percentile, but it does not jump when the
    item at that rank changes."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1) / 100, (100 - q) * (n + 1) / 100
    steps = 16  # midpoint rule within each rank's slice
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def set_up_once(workloads, name, load, seed):
    """Import, build the fields and rings, generate the inputs from `seed`
    and warm up: (workload, CPU seconds of the calling thread)."""
    start = time.thread_time()
    workload = workloads[name](load(), seed)
    workload.warm_up()
    return workload, time.thread_time() - start


def set_up(workloads, name, seed, reps):
    """`reps` set-ups of the library under test: the last workload and the
    set-up times."""
    times = []
    for _ in range(reps):
        workload, seconds = set_up_once(workloads, name, load_library, seed)
        times.append(seconds)
    return workload, times


def set_up_with_twin(workloads, name, seed, reps, companion):
    """`reps` set-ups of the library under test, each at the same time as one
    of the pinned copy from REFERENCE_SEED in the companion thread: the last
    workload and set-up times of each."""
    times, twin_times = [], []
    for _ in range(reps):
        (workload, seconds), (twin, twin_seconds) = companion.together(
            lambda: set_up_once(workloads, name, load_library, seed),
            lambda: set_up_once(workloads, name, load_pinned, REFERENCE_SEED))
        times.append(seconds)
        twin_times.append(twin_seconds)
    return workload, times, twin, twin_times


def measure(workload, pinned, seconds, tally, companion):
    """Untraced run of about `seconds`.  Steps alternate between one suite
    piece and one batch so that the suite takes `workload.suite_share` of the
    time.  Every piece runs at least `workload.suite_runs` times and the batch
    at least `workload.min_batches` times; past that, a step starts only if
    its last run says it ends before the deadline.  Each piece and each item
    runs at the same time as its twin from the pinned copy, in the companion
    thread.  Returns every raw time of the
    suite pieces and their twins, and the fastest raw time of each item and
    each item's twin."""
    from workloads import Tally
    pieces, twin_pieces = workload.suite_pieces(), pinned.suite_pieces()
    inf = float("inf")
    raw = {"pieces": [[] for _ in pieces], "twin_pieces": [[] for _ in pieces],
           "items": [inf] * len(workload.items), "twins": [inf] * len(pinned.items)}
    twin_tally = Tally()
    spent = {"suite": 0.0, "batch": 0.0}
    last = {}   # the last duration of each kind of step
    piece_runs = batches = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        index = piece_runs % len(pieces)
        share_says_suite = spent["suite"] <= workload.suite_share * sum(spent.values())
        need_suite = piece_runs < workload.suite_runs * len(pieces)
        need_batch = batches < workload.min_batches
        if need_suite or need_batch:
            suite_step = share_says_suite if need_suite and need_batch else need_suite
        else:
            now = clock()
            fits_suite = now + last.get(("piece", index), 0) <= deadline
            fits_batch = now + last.get("batch", 0) <= deadline
            if not (fits_suite or fits_batch):
                break
            suite_step = share_says_suite if fits_suite and fits_batch else fits_suite
        start = clock()
        if suite_step:
            took, twin_took = companion.together(
                lambda: pieces[index](tally), lambda: twin_pieces[index](twin_tally))
            raw["pieces"][index].append(took)
            raw["twin_pieces"][index].append(twin_took)
            piece_runs += 1
            last["piece", index] = clock() - start
            spent["suite"] += last["piece", index]
        else:
            run_batch(workload.items, tally, raw["items"], pinned.items, raw["twins"],
                      companion)
            batches += 1
            last["batch"] = clock() - start
            spent["batch"] += last["batch"]
    if twin_tally.failed:
        raise RuntimeError(f"the pinned copy failed its own checks: {twin_tally.reasons}")
    workload.fixed_checks(tally)
    return raw, {"batches": batches, "items_per_batch": len(workload.items),
                 "suite_pieces": len(pieces),
                 "suite_piece_runs": piece_runs,
                 "raw_suite_share": spent["suite"] / sum(spent.values())}


def statistics_of(raw, setup_times, twin_setup_times):
    """Each time metric as (its raw value, the same statistic of the pinned
    twins, which it is scaled by).  The suite sums each piece's mean over its
    runs."""
    items, twins = raw["items"], raw["twins"]
    return {
        "setup_s": (statistics.median(setup_times), statistics.median(twin_setup_times)),
        "job_s": (sum(items), sum(twins)),
        "suite_s": (sum(map(statistics.fmean, raw["pieces"])),
                    sum(map(statistics.fmean, raw["twin_pieces"]))),
        "item_p50_ms": (1000 * quantile(items, 50), 1000 * quantile(twins, 50)),
        "item_p90_ms": (1000 * quantile(items, 90), 1000 * quantile(twins, 90)),
    }


def end_to_end(name, raw, setup_times, twin_setup_times):
    """Times at the reference box's speed: each raw value times
    REFERENCE[name][metric] / (its twins' statistic in this run)."""
    values, detail = {}, {}
    for metric, (value, twin) in statistics_of(raw, setup_times, twin_setup_times).items():
        values[metric] = value * REFERENCE[name][metric] / twin
        detail[f"raw_{metric}"] = value
        detail[f"raw_twin_{metric}"] = twin
    detail["raw_setup_times_s"] = setup_times
    detail["raw_twin_setup_times_s"] = twin_setup_times
    for key, times in raw.items():
        detail[f"raw_{key}_s"] = times
    p90 = quantile(raw["items"], 90)
    detail["beyond_p90"] = sum(x > p90 for x in raw["items"])
    return values, detail


def trace(workload, tally, spans_path):
    """The suite once with tracing on, then TRACE_BATCHES rounds of the batch
    untraced and the batch traced, so that both see the same stretch of the
    host's speed.  The overhead compares the sums of each item's fastest
    time.  Per-layer times are raw seconds."""
    from tracer import Tracer
    untraced = [float("inf")] * len(workload.items)
    traced = [float("inf")] * len(workload.items)
    tracer = Tracer(workload.lib)
    try:
        tracer.install()
        for piece in workload.suite_pieces():
            piece(tally)
        for _ in range(TRACE_BATCHES):
            tracer.uninstall()
            run_batch(workload.items, tally, untraced)
            tracer.install()
            run_batch(workload.items, tally, traced)
    finally:
        tracer.uninstall()
    tracer.assert_removed()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (sum(traced) - sum(untraced), "s")
    tracer.write_spans(spans_path)
    return metrics, {"spans": len(tracer.spans), "untraced_job_s": sum(untraced),
                     "traced_job_s": sum(traced),
                     "spans_file": str(spans_path.relative_to(ROOT))}


def pin_to_one_cpu():
    """Keep this process on one CPU: the host's CPUs differ in speed from
    moment to moment, and a run and its twins must share one.  Returns the
    CPU, or None where affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def untraced(args, workloads, tally):
    """Set-ups and the timed run, each beside its twin from the pinned copy in
    the companion thread: (end-to-end metrics, detail)."""
    companion = Companion()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_S)
    try:
        workload, setup_times, pinned, twin_setup_times = set_up_with_twin(
            workloads, args.workload, args.seed, SETUP_REPS, companion)
        raw, detail = measure(workload, pinned, args.seconds, tally, companion)
    finally:
        sys.setswitchinterval(switch)
        companion.close()
    values, scaled = end_to_end(args.workload, raw, setup_times, twin_setup_times)
    detail.update(scaled)
    values["ok_frac"] = 1 - tally.failed / max(tally.attempted, 1)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, detail


def run_one(args):
    sys.path.insert(0, str(ROOT / "src"))
    env = environment(args.seed)
    env["cpu"] = pin_to_one_cpu()
    from workloads import WORKLOADS, Tally
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            workload, _ = set_up(WORKLOADS, args.workload, args.seed, 1)
            metrics, detail = trace(workload, tally, OUT / f"spans-{stem}.jsonl.gz")
        else:
            metrics, detail = untraced(args, WORKLOADS, tally)
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    detail.update(attempted=tally.attempted, failed=tally.failed,
                  fail_frac=tally.failed / max(tally.attempted, 1),
                  failures=tally.reasons)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"workload": args.workload, "env": env, "detail": detail, **result},
                   indent=1))
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print("env " + json.dumps(env))
    print("detail " + json.dumps({k: v for k, v in detail.items()
                                  if k != "failures" and not isinstance(v, list)}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9s} {name:40s} {value:14.6f} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own fresh process, one at a time, then one table."""
    from workloads import WORKLOADS
    rows, combined, code = [], {}, 0
    totals = {"attempted": 0, "failed": 0}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        code = code or proc.returncode or (0 if result["correct"] else 1)
        for key in totals:
            totals[key] += result[key]
        for metric, row in result["metrics"].items():
            rows.append((name, metric, row["value"], row["unit"]))
            combined[f"{name}.{metric}"] = row
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"exit {proc.returncode}")
    for name, metric, value, unit in rows:
        print(f"{name:9s} {metric:40s} {value:14.6f} {unit}")
    print(json.dumps({"correct": code == 0, **totals, "metrics": combined}))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "classify", "forms", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "omegalie").is_dir():
        print(f"no omegalie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
