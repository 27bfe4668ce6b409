#!/usr/bin/env python3
"""The repository benchmark: a binary trace file in, a verdict out.

    python3 perfbench/run.py --workload independent|star|churn|all
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the repository root. The script builds the repository's real
`aerocheck` and the in-process `perfbench_tool` into `.bench_build/`
(Release, from source), generates each workload once as a binary trace
from `src/gen` and the seed, and then:

  --trace 0  runs `aerocheck <trace>` as a child process, default engine
             and settings, one child at a time, round-robin over the
             chosen workloads until --seconds have passed, and reports
             the end-to-end metrics of BENCHMARK.json from those runs;
  --trace 1  runs `perfbench_tool traced`, which calls each layer's public
             functions in process, and reports the per-layer metrics.

Every run is gated on the verdict the workload has by construction. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines above it give the quartiles
and sample counts behind each median, and the build and machine facts.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DATA = os.path.join(BUILD, "perfbench-data")
AEROCHECK = os.path.join(BUILD, "aero", "aerocheck")
TOOL = os.path.join(BUILD, "perfbench_tool")

WORKLOADS = ("independent", "star", "churn")
# Generator size per workload: transactions per thread for independent,
# rounds for star, events for churn. "full" keeps one aerocheck run at
# 0.15-0.3 s on a 4-core x86-64 box, so a run of --seconds holds a hundred
# or more child runs and a slow phase of the machine stays far below the
# one second from which aerocheck prints its check time too coarsely;
# "tiny" is the self-test size, small enough for the oracle.
SIZES = {
    "full": {"independent": 100_000, "star": 25_000, "churn": 350_000},
    "tiny": {"independent": 200, "star": 100, "churn": 2_000},
}
CHILD_TIMEOUT_S = 60
DEFAULT_SEED = 1


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """The caller's environment without AERO_* knobs: each of them
    (AERO_GC, AERO_EPOCHS, AERO_MMAP, AERO_SHARDS, AERO_INGEST_BLOCK,
    AERO_FAULT_PLAN, ...) changes what is measured. Temporary files (the
    compiler's) stay inside the build directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("AERO_")}
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    return env


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --- build ------------------------------------------------------------------

def read_cache(path):
    cache = {}
    with open(path) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_][\w-]*):\w+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def check_cache(cache):
    """Refuse a build that does not measure what users run."""
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("build type is %r, not Release"
                         % cache.get("CMAKE_BUILD_TYPE"))
    for opt in ("AERO_ASAN", "AERO_TSAN", "AERO_FAULTS"):
        if cache.get(opt, "OFF").upper() not in ("OFF", "0", "FALSE", "NO",
                                                  ""):
            raise BenchError("%s is on in the benchmark build" % opt)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "examples", "aerocheck.cpp"))):
        raise BenchError("repository sources not found next to perfbench/")
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = clean_env()
    cache_path = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache_path):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            raise BenchError("configure failed")
    check_cache(read_cache(cache_path))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD, "--target", "aerocheck",
                       "perfbench_tool", "-j", jobs],
                      stdout=sys.stderr, env=env).returncode:
        raise BenchError("build failed")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                        "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def tool_json(args, timeout):
    r = subprocess.run([TOOL] + args, capture_output=True, text=True,
                       env=clean_env(), timeout=timeout)
    if r.returncode != 0:
        raise BenchError("perfbench_tool %s failed (exit %d): %s"
                         % (args[0], r.returncode, r.stderr.strip()))
    return json.loads(r.stdout.strip().splitlines()[-1])


# --- workloads --------------------------------------------------------------

def generate(workload, size, seed):
    """Write the workload's trace once per (workload, size, seed, tool
    build) and reuse it; generation is harness time."""
    os.makedirs(DATA, exist_ok=True)
    stem = os.path.join(DATA, "%s-%d-%d" % (workload, size, seed))
    path, meta_path = stem + ".bin", stem + ".json"
    tool_mtime = os.stat(TOOL).st_mtime_ns
    if os.path.isfile(path) and os.path.isfile(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
        if meta.get("tool_mtime_ns") == tool_mtime:
            meta["path"] = path
            return meta
    meta = tool_json(["gen", workload, str(size), str(seed), path], 600)
    meta["tool_mtime_ns"] = tool_mtime
    with open(meta_path + ".tmp", "w") as f:
        json.dump(meta, f)
    os.replace(meta_path + ".tmp", meta_path)
    meta["path"] = path
    return meta


# --- end-to-end: aerocheck child runs ---------------------------------------

SUMMARY_RE = re.compile(r"^(?P<engine>[^:\n]+): (?P<verdict>.+) after "
                        r"(?P<events>[\d,]+) events in (?P<dur>\S+)$", re.M)
VIOLATION_RE = re.compile(r"^  at event index (\d+), thread id (\d+)", re.M)


def parse_duration(text):
    """Seconds from support/str.cpp's format_duration, or None when the
    text is too coarse to subtract from a wall time: from one second up it
    prints 10 ms steps, as large as setup_s itself."""
    m = re.fullmatch(r"([\d.]+)(us|ms)", text)
    if m:
        return float(m.group(1)) * {"us": 1e-6, "ms": 1e-3}[m.group(2)]
    if re.fullmatch(r"[\d.]+s|\d+m\d+s", text):
        return None
    raise ValueError("unparsable duration %r" % text)


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def spawn_and_wait(argv, out_path, timeout):
    """Run argv with stdout+stderr into out_path. Returns (exit code or
    None when killed, wall seconds, ru_maxrss bytes). The wall clock spans
    the spawn and the reap, so it holds exec, loading and teardown."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    old = signal.signal(signal.SIGALRM, _on_alarm)
    env = clean_env()
    status = usage = None
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        _, status, usage = os.wait4(pid, 0)
    except _Timeout:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    wall = time.perf_counter() - t0
    if status is None:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        return None, wall, 0
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss * 1024


def gate(meta, code, out):
    """None when the run matches the workload's verdict by construction,
    else the reason it does not. Returns (reason, check seconds), the
    check seconds None when aerocheck printed them too coarsely."""
    if code is None:
        return "timed out", 0.0
    m = SUMMARY_RE.search(out)
    if not m:
        return "exit %d, no verdict line" % code, 0.0
    check_s = parse_duration(m.group("dur"))
    events = int(m.group("events").replace(",", ""))
    v = VIOLATION_RE.search(out)
    if meta["expect"] == "ok":
        if code != 0 or m.group("verdict") != "serializable" or v:
            return "exit %d, %s" % (code, m.group("verdict")), check_s
        if events != meta["events"]:
            return "consumed %d of %d events" % (events,
                                                  meta["events"]), check_s
        return None, check_s
    if code != 1 or m.group("verdict") != "VIOLATION" or not v:
        return "exit %d, %s" % (code, m.group("verdict")), check_s
    index = int(v.group(1))
    if not meta["ring_first"] <= index < meta["events"]:
        return "violation at %d, outside the ring [%d, %d)" % (
            index, meta["ring_first"], meta["events"]), check_s
    if events != index + 1:
        return "consumed %d events, violation at %d" % (events,
                                                         index), check_s
    return None, check_s


def child_run(meta):
    out_path = os.path.join(BUILD, "perfbench-child.out")
    code, wall, rss = spawn_and_wait([AEROCHECK, meta["path"]], out_path,
                                     CHILD_TIMEOUT_S)
    with open(out_path, errors="replace") as f:
        out = f.read()
    reason, check_s = gate(meta, code, out)
    if check_s is not None and wall - check_s <= 0:
        check_s = None
    return {"failed": reason, "wall": wall, "check_s": check_s,
            "rss": rss, "events": meta["events"]}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def measure_end_to_end(metas, seconds):
    """Untimed warm run per workload, then round-robin child runs until
    the deadline. Failed runs are excluded from the timings."""
    runs = {w: [] for w in metas}
    fails = {w: [] for w in metas}
    attempted = {w: 0 for w in metas}
    unmeasured = {w: 0 for w in metas}

    def one(w):
        r = child_run(metas[w])
        attempted[w] += 1
        if r["failed"]:
            fails[w].append(r["failed"])
            log("%s: run failed the verdict gate: %s" % (w, r["failed"]))
        elif r["check_s"] is None:
            unmeasured[w] += 1
            log("%s: setup time unmeasurable: the printed check time is "
                "too coarse or not below the wall time (wall %.4f s)"
                % (w, r["wall"]))
        return r

    for w in metas:
        one(w)  # warm: page cache, loader, CPU frequency
    deadline = time.monotonic() + seconds
    while True:
        for w in metas:
            r = one(w)
            if not r["failed"] and r["check_s"] is not None:
                runs[w].append(r)
        if time.monotonic() >= deadline:
            break

    results = {}
    for w in metas:
        ok = runs[w]
        series = {
            "events_per_s": ([r["events"] / r["wall"] for r in ok], "1/s"),
            "setup_s": ([r["wall"] - r["check_s"] for r in ok], "s"),
            "peak_rss_bytes": ([float(r["rss"]) for r in ok], "bytes"),
        }
        metrics = {}
        for name, (values, unit) in series.items():
            if values:
                q1, med, q3 = quartiles(values)
                print("%s %s: median %.6g (q1 %.6g, q3 %.6g, n=%d) %s"
                      % (w, name, med, q1, q3, len(values), unit))
                metrics[name] = (med, unit)
        fail_frac = len(fails[w]) / attempted[w]
        print("%s verdict_fail_frac: %.4g (%d of %d runs failed the gate)"
              % (w, fail_frac, len(fails[w]), attempted[w]))
        print("%s trace.file_bytes: %d bytes (%d events)"
              % (w, metas[w]["file_bytes"], metas[w]["events"]))
        metrics["verdict_pass_frac"] = (1.0 - fail_frac, "ratio")
        results[w] = {"attempted": attempted[w], "failed": len(fails[w]),
                      "unmeasured": unmeasured[w], "metrics": metrics}
    return results


# --- per layer: the traced in-process run -----------------------------------

def measure_traced(metas, seconds):
    results = {}
    for w, meta in metas.items():
        r = tool_json(["traced", meta["path"], meta["expect"],
                       str(meta["events"]), str(meta["ring_first"]),
                       str(seconds)], seconds + CHILD_TIMEOUT_S)
        metrics = {k: (v["value"], v["unit"])
                   for k, v in r["metrics"].items()}
        for k, (v, unit) in metrics.items():
            print("%s %s: %.6g %s" % (w, k, v, unit))
        print("%s traced rounds: %d (timer overhead %.1f ns)"
              % (w, r["rounds"], r["timer_overhead_ns"]))
        results[w] = {"attempted": r["attempted"], "failed": r["failed"],
                      "metrics": metrics}
    return results


# --- command line -----------------------------------------------------------

def prepare(workloads, size, seed):
    build()
    env = tool_json(["env"], 60)
    env["git_commit"] = git_commit()
    env["seed"] = seed
    env["size"] = size
    print("# environment: " + json.dumps(env, sort_keys=True))
    metas = {}
    for w in workloads:
        metas[w] = generate(w, SIZES[size][w], seed)
        print("# workload %s: %s" % (w, json.dumps(
            {k: metas[w][k] for k in ("events", "threads", "vars", "locks",
                                      "expect", "ring_first",
                                      "file_bytes")})))
    return metas


def result_line(results, declared, prefix_workload):
    """The result object: every declared metric, by name."""
    metrics, correct = {}, True
    for w, r in results.items():
        correct = (correct and r["failed"] == 0
                   and r.get("unmeasured", 0) == 0)
        for name, unit in declared.items():
            key = "%s.%s" % (w, name) if prefix_workload else name
            if name in r["metrics"]:
                value, got_unit = r["metrics"][name]
                if got_unit != unit:
                    log("%s: %s reported in %s, declared %s"
                        % (w, name, got_unit, unit))
                    correct = False
            else:
                log("%s: metric %s was not measured" % (w, name))
                value, correct = 0.0, False
            metrics[key] = {"value": value, "unit": unit}
    return {"correct": correct,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics}


def run(args):
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metas = prepare(workloads, "full", args.seed)
    end_to_end, per_layer = declared_metrics()
    if args.trace:
        results = measure_traced(metas, args.seconds)
        declared = per_layer
    else:
        results = measure_end_to_end(metas, args.seconds)
        declared = end_to_end
    print(json.dumps(result_line(results, declared, args.workload == "all")))
    return 0


def selftest(seed):
    """Tiny sizes: every declared metric appears with its unit for every
    workload, each workload's verdict agrees with the offline oracle, and
    a wrong expected verdict shows up as a failure."""
    problems = []
    metas = prepare(WORKLOADS, "tiny", seed)
    end_to_end, per_layer = declared_metrics()
    for w, meta in metas.items():
        oracle = tool_json(["oracle", meta["path"]], 120)
        if oracle["serializable"] != (meta["expect"] == "ok"):
            problems.append("%s: oracle says serializable=%s, expected %s"
                            % (w, oracle["serializable"], meta["expect"]))
    for results, declared in ((measure_end_to_end(metas, 1), end_to_end),
                              (measure_traced(metas, 0.2), per_layer)):
        for w, r in results.items():
            if r["failed"] or r.get("unmeasured"):
                problems.append("%s: %d runs failed, %d unmeasured"
                                % (w, r["failed"], r.get("unmeasured", 0)))
            for name, unit in declared.items():
                got = r["metrics"].get(name)
                if got is None:
                    problems.append("%s: %s not printed" % (w, name))
                elif got[1] != unit:
                    problems.append("%s: %s in %s, declared %s"
                                    % (w, name, got[1], unit))
    if parse_duration("1.00s") is not None:
        problems.append("a check time printed in 10 ms steps was accepted")
    for w, meta in metas.items():
        wrong = dict(meta, expect="violation" if meta["expect"] == "ok"
                     else "ok")
        if not child_run(wrong)["failed"]:
            problems.append("%s: a wrong expected verdict passed the gate"
                            % w)
    for p in problems:
        print("selftest: " + p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="tiny sizes; check metrics, units and the gate")
    args = ap.parse_args()
    try:
        return selftest(args.seed) if args.selftest else run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
