#!/usr/bin/env python3
"""The repository benchmark: times the real round loop of the simulator.

Usage, from the repository root:

  python3 benchmark/run.py [--workload NAME[,NAME...]] [--seed N]
                           [--seconds S] [--trace 0|1] [--smoke] [--parity]
                           [--out FILE]

The script builds benchmark/ (a CMake project wrapping the simulator) into
build-bench/, runs each workload through bench_round children, checks the
outputs, prints every metric as `workload metric value unit`, and prints
one JSON object as its last stdout line. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer ones.
README.md in this directory describes the workloads and the metrics.
"""

import argparse
import bisect
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
MB = 1024.0 * 1024.0
CHILD_TIMEOUT_S = 170

# The settings every workload shares. bench_round has them built in;
# --parity passes them to `gluefl run`.
COMMON = ["--dataset", "openimage", "--model", "shufflenet", "--env", "edge",
          "--wire", "encoded", "--eval-every", "5", "--threads", "1"]

# Each workload: its extra `gluefl run` flags, the rounds (async:
# aggregations) of one pass, and the boundary the resume step restarts
# from. A durable workload saves a snapshot and an event log every round
# inside the timed loop; the others save one snapshot, at the resume
# boundary, outside it.
WORKLOADS = {
    "sync-gluefl": {"flags": ["--strategy", "gluefl"],
                    "rounds": 40, "resume_at": 39},
    "sync-fedavg": {"flags": ["--strategy", "fedavg"],
                    "rounds": 40, "resume_at": 39},
    "async-fedbuff": {"flags": ["--exec", "async"],
                      "rounds": 40, "resume_at": 39},
    "sync-gluefl-durable": {"flags": ["--strategy", "gluefl",
                                      "--scenario", "hostile"],
                            "durable": True, "rounds": 20, "resume_at": 15},
}

# --smoke: every workload, shrunk to a few seconds.
SMOKE = {"scale": "0.05", "rounds": 3, "resume_at": 2}

MIN_BEST_ACC = 0.40

# Wall spans that attribute time to a layer. "round" (the engine's whole
# round) and "bench.interval" (the boundary interval itself) are not layers.
NOT_LAYERS = {"round", "bench.interval"}


class Failure(Exception):
    """A check that fails the whole workload."""


# ---------------------------------------------------------------- build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: the simulator sources (CMakeLists.txt, src/) are "
                 "not in " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "bench_round", "gluefl"])
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                sys.exit("run.py: build failed, see build-bench/build.log")


# ------------------------------------------------------------- children

class Child:
    """One finished child process: exit code and JSON result."""

    def __init__(self, cmd):
        self.result = None
        try:
            # subprocess.run kills the child on timeout and waits for it.
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
            self.code = proc.returncode
            lines = proc.stdout.decode(errors="replace").strip().splitlines()
            if self.code == 0 and lines:
                self.result = json.loads(lines[-1])
        except subprocess.TimeoutExpired:
            self.code = "timeout"
        except ValueError:
            self.result = None


class Runner:
    """Runs the bench_round steps of one workload and checks each one."""

    def __init__(self, name, seed, smoke, work):
        w = WORKLOADS[name]
        self.rounds = SMOKE["rounds"] if smoke else w["rounds"]
        self.resume_at = SMOKE["resume_at"] if smoke else w["resume_at"]
        self.work = work
        self.flags = w["flags"] + [
            "--scale", SMOKE["scale"] if smoke else "1",
            "--seed", str(seed), "--rounds", str(self.rounds)]
        self.durable = w.get("durable", False)
        self.attempted = 0
        self.failures = []

    def durable_flags(self):
        if not self.durable:
            return []
        return ["--checkpoint-every", "1",
                "--events", os.path.join(self.work, "events.bin")]

    def step(self, mode, trace=None):
        cmd = [os.path.join(BUILD, "bench_round"), mode] + self.flags
        cmd += ["--checkpoint-dir", self.work,
                "--resume-at", str(self.resume_at)]
        if mode != "resume":
            cmd += self.durable_flags()
        if trace:
            cmd += ["--trace", trace]
        if mode == "run":
            self.attempted += self.rounds
        elif mode == "resume":
            self.attempted += self.rounds - self.resume_at
        child = Child(cmd)
        if child.result is None:
            raise Failure("bench_round %s failed (exit code %s)" %
                          (mode, child.code))
        if mode != "setup":
            check_records(child.result, self.rounds)
        return child

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)


def check_records(r, rounds):
    if r["rounds_done"] != rounds or len(r["intervals_ms"]) != len(r["records"]):
        raise Failure("only %d of %d rounds completed" %
                      (r["rounds_done"], rounds))
    for i, (down, up, invited, included, loss, _acc) in enumerate(r["records"]):
        sane = (down is not None and up is not None and down >= 0 and up >= 0
                and 0 <= included <= invited
                and (included == 0 or loss is not None))
        if not sane:
            raise Failure("round record %d is not sane: %s" %
                          (i, r["records"][i]))


# ------------------------------------------------------------- measures

def load_spans(path):
    """Complete wall-clock spans of a trace: name -> [(start_us, end_us)]."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    for e in events:
        if e.get("ph") == "X" and e.get("pid") == 1:
            spans.setdefault(e["name"], []).append(
                (e["ts"], e["ts"] + e["dur"]))
    return spans


def sorted_spans(spans, names):
    return sorted(iv for name in names for iv in spans.get(name, []))


def covered_us(lo, hi, layer):
    """Microseconds of [lo, hi] under the union of the sorted spans.

    Spans come from one thread, so each one is nested in or disjoint from
    any other: none starts before lo and ends inside [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in layer[bisect.bisect_left(layer, (lo,)):]:
        if s >= hi:
            break
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def total_ms(spans, name):
    return sum(e - s for s, e in spans.get(name, [])) / 1e3


def end_to_end(setups, run, resume):
    r = run.result
    intervals = r["intervals_ms"]
    return {
        "round_ms_p50": statistics.median(intervals),
        "round_ms_p75": statistics.quantiles(intervals, n=4)[2],
        "client_updates_per_s": r["included"] / (sum(intervals) / 1e3),
        "setup_s": statistics.median(c.result["setup_s"] for c in setups),
        "resume_setup_s": resume.result["resume_setup_s"],
        "peak_rss_mb": r["loop_rss_mb"],
        "sim_down_gb": r["down_gb"],
        "sim_train_h": r["wall_hours"],
        "best_acc": r["best_accuracy"],
    }


def per_layer(plain, traced, resume, trace_path):
    r = traced.result
    rounds = len(r["intervals_ms"])
    spans = load_spans(trace_path)
    layers = set(spans) - NOT_LAYERS
    layer = sorted_spans(spans, layers)
    inside_strategy = sorted_spans(spans, layers - {"strategies.round"})
    interval_us = sum(e - s for s, e in spans["bench.interval"])
    unattributed = sum((e - s) - covered_us(s, e, layer)
                       for s, e in spans["bench.interval"])
    self_us = sum((e - s) - covered_us(s, e, inside_strategy)
                  for s, e in spans.get("strategies.round", []))
    saves = sorted_spans(spans, ["ckpt.save"])
    # The hook also runs at boundaries where nothing is due.
    hooks = [h for h in spans.get("ckpt.hook", [])
             if covered_us(h[0], h[1], saves) > 0]
    snapshots = r["snapshot_mb"]
    children = [plain.result, r, resume.result]
    return {
        "data.synth_s": statistics.median(c["synth_s"] for c in children),
        "fl.engine_init_s":
            statistics.median(c["engine_init_s"] for c in children),
        "ckpt.load_ms": resume.result["load_ms"],
        "ckpt.restore_ms": resume.result["restore_ms"],
        "fl.local_train_ms": total_ms(spans, "local_train") / rounds,
        "fl.local_train_per_update_ms":
            total_ms(spans, "local_train") / r["trained"],
        "fl.eval_ms": total_ms(spans, "eval") / len(spans["eval"]),
        "strategies.round_ms": total_ms(spans, "strategies.round") / rounds,
        "strategies.self_ms": self_us / 1e3 / rounds,
        "wire.encode_ms": total_ms(spans, "wire.encode") / rounds,
        "wire.decode_ms": total_ms(spans, "wire.decode") / rounds,
        "wire.encode_mb": r["encode_bytes"] / MB / rounds,
        "agg.aggregate_ms": total_ms(spans, "aggregate") / rounds,
        "ckpt.hook_ms": statistics.median((e - s) / 1e3 for s, e in hooks),
        "ckpt.hook_last_ms": (hooks[-1][1] - hooks[-1][0]) / 1e3,
        "ckpt.save_ms": statistics.median((e - s) / 1e3 for s, e in saves),
        "ckpt.encode_ms": statistics.median(
            ((he - hs) - covered_us(hs, he, saves)) / 1e3 for hs, he in hooks),
        "ckpt.snapshot_mb": snapshots[-1],
        "ckpt.written_mb": sum(snapshots),
        "telemetry.events_mb": r["events_mb"],
        "scenario.rejected": r["rejected"],
        "scenario.dropouts": r["dropouts"],
        "scenario.deadline_drops": r["deadline_drops"],
        "fl.updates_trained": r["trained"],
        "fl.useful_frac": (r["included"] - r["rejected"]) / r["trained"],
        "round.unattributed_pct": 100.0 * unattributed / interval_us,
        "telemetry.trace_overhead_pct":
            100.0 * (statistics.median(r["intervals_ms"]) /
                     statistics.median(plain.result["intervals_ms"]) - 1.0),
    }


# ---------------------------------------------------------------- modes

@contextlib.contextmanager
def work_dir():
    """Snapshots, event logs and traces of one workload; always removed."""
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(name, seed, trace, smoke, work):
    """One workload: returns (metrics, attempted, failures).

    --trace 0 runs a set-up step, one untraced pass and a resume. --trace 1
    (and --smoke) run an untraced pass, a traced pass and a traced resume;
    --smoke reports the end-to-end metrics of that untraced pass beside the
    per-layer ones."""
    runner = Runner(name, seed, smoke, work)
    metrics = {}
    try:
        if trace or smoke:
            trace_path = os.path.join(work, "trace.json")
            plain = runner.step("run")
            traced = runner.step("run", trace=trace_path)
            resume = runner.step("resume",
                                 trace=os.path.join(work, "resume.json"))
            runner.check(traced.result["fingerprint"] ==
                         plain.result["fingerprint"],
                         "the traced run diverged from the untraced run")
            metrics = per_layer(plain, traced, resume, trace_path)
            if smoke:
                metrics.update(end_to_end([plain, resume], plain, resume))
        else:
            setup = runner.step("setup")
            plain = runner.step("run")
            resume = runner.step("resume")
            metrics = end_to_end([setup, plain, resume], plain, resume)
        runner.check(resume.result["tail_fingerprint"] ==
                     plain.result["tail_fingerprint"],
                     "the resumed tail differs from the uninterrupted run")
        runner.check(smoke or plain.result["best_accuracy"] >= MIN_BEST_ACC,
                     "best accuracy %.4f is below %.2f" %
                     (plain.result["best_accuracy"], MIN_BEST_ACC))
    except Failure as e:
        runner.failures.append(str(e))
    return metrics, runner.attempted, runner.failures


def run_parity(name, seed, smoke, work):
    """bench_round against `gluefl run` on the same flags, 3 rounds."""
    runner = Runner(name, seed, smoke, work)
    runner.rounds, runner.resume_at = 3, 2
    runner.flags[runner.flags.index("--rounds") + 1] = "3"
    try:
        bench = runner.step("run").result
        summary = os.path.join(work, "summary.json")
        cli = [os.path.join(BUILD, "gluefl"), "run"] + COMMON + runner.flags
        if runner.durable:
            cli += runner.durable_flags() + ["--checkpoint-dir", work]
        code = subprocess.run(cli + ["--json", summary], cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S).returncode
        if code != 0:
            return ["gluefl run exited with code %d" % code]
        with open(summary) as f:
            ref = json.load(f)

        def same(a, b):  # the CLI prints 10 significant digits
            return float("%.10g" % a) == b

        diffs = [k for k in ("down_gb", "up_gb", "total_gb", "download_hours",
                             "wall_hours") if not same(bench[k], ref["totals"][k])]
        if ref["totals"]["rounds"] != bench["rounds_done"]:
            diffs.append("rounds")
        if not same(bench["best_accuracy"], ref["best_accuracy"]):
            diffs.append("best_accuracy")
        return ["differs from gluefl run in " + ", ".join(diffs)] if diffs else []
    except Failure as e:
        return [str(e)]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=",".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    # Accepted for a uniform command line and ignored: a run is one pass.
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--parity", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    names = args.workload.split(",")
    for n in names:
        if n not in WORKLOADS:
            ap.error("unknown workload %r; choose from %s" %
                     (n, ", ".join(WORKLOADS)))
    e2e_units, layer_units = declared_metrics()
    units = (e2e_units if args.smoke or not args.trace else {}) | \
        (layer_units if args.smoke or args.trace else {})
    build()

    report, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        with work_dir() as work:
            if args.parity:
                failures = run_parity(name, args.seed, args.smoke, work)
                metrics, n = {}, 1
                print("%s parity %s" % (name, "FAIL" if failures else "ok"))
            else:
                metrics, n, failures = run_workload(
                    name, args.seed, args.trace, args.smoke, work)
            if metrics and set(metrics) != set(units):
                failures.append("metric names differ from BENCHMARK.json")
        for msg in failures:
            print("%s: FAILED: %s" % (name, msg), file=sys.stderr)
        attempted += n
        failed += n if failures else 0
        correct = correct and not failures
        for key in sorted(metrics, key=list(units).index):
            print("%s %s %.6g %s" % (name, key, metrics[key], units[key]))
            report.setdefault(name, {})[key] = {
                "value": metrics[key], "unit": units[key]}

    if len(names) == 1 and not args.smoke:
        flat = report.get(names[0], {})
    else:
        flat = {"%s/%s" % (w, k): v for w, ms in report.items()
                for k, v in ms.items()}
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": failed, "metrics": flat}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "workloads": report,
                       "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    sys.exit(main())
