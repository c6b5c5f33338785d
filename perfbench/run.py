#!/usr/bin/env python3
"""End-to-end scenario benchmark for rumor_run, with a traced per-layer run.

    python3 perfbench/run.py --workload {paper,scale,hetero} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout. It builds `rumor_run` and the
traced runner `perfbench_trace` (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench, writes the workload's scenario file there from the
seed, and then:

--trace 0  runs the file through `rumor_run --jobs=<nproc> --seed=<seed>
           --csv=...` as a user would, one process at a time (a closed loop
           with one client), for about S seconds. It times each process
           from outside: wall_s from launch to exit, setup_s from launch to
           the report header on stdout (printed after parsing, sweep
           expansion and validation, before the first trial), trials_per_s
           = trials / (wall_s - setup_s), and peak_rss_mib from wait4's
           ru_maxrss. Extra launches are killed at the header, so setup_s
           is a median over several set-ups. Each metric is the median
           over the run.
--trace 1  runs the file once untraced, then once through perfbench_trace,
           which calls each layer's public function inside a span and
           reports the per-layer metrics listed in BENCHMARK.json (see
           perfbench/README.md). Its CSV must equal the untraced CSV byte
           for byte. S does not apply: each part runs once.

Every CSV is checked (see check_csv). A failed check counts all trials of
its scenario as failed. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is the run
manifest (host, build, seed). Full results, the trace's spans and their
self times go to .bench_build/perfbench/results/.

Needs Python 3.9+ (stdlib only), CMake 3.20+ and a C++20 compiler.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = BUILD / "work"
RESULTS = BUILD / "results"

# Seconds a run may take after the build: well inside the 180 s every
# benchmark invocation gets.
RUN_DEADLINE_S = 170.0


# ---------------------------------------------------------------- workloads
#
# Each workload is a list of Line records. A line may sweep (one file line,
# several CSV rows); `rows` lists the rows it must produce, in order, each
# as (label, kind): "complete" rows must finish every trial with all n
# informed; "partial" rows (interventions, round cutoffs) must account for
# every trial.

class Line:
    def __init__(self, text, trials, rows):
        self.text = text
        self.trials = trials
        self.rows = rows


def plain(graph, protocol, source, trials, label, kind="complete"):
    text = f"{graph} {protocol} source={source} trials={trials} label={label}"
    return Line(text, trials, [(label, kind)])


def magnitude(v):
    return f"{v // 1024}k" if v % 1024 == 0 else str(v)


PROTOCOLS = ["push", "push-pull", "visit-exchange", "meet-exchange", "hybrid"]

# Figure 1's five families with the sources of the bench_fig1* binaries,
# plus Theorem 1's random regular graph; n = 2^11 .. 2^14. Trial counts
# are highest where trial times spread most (the Siamese trees' walks), so
# a run's total work barely depends on the seed.
PAPER_FAMILIES = [
    ("star", "star(leaves=8192)", 1, 128),
    ("dstar", "double_star(leaves=4096)", 2, 128),
    ("htree", "heavy_tree(n=2047)", 2046, 64),
    ("siamese", "siamese(n=1023)", 1022, 128),
    ("csc", "cycle_stars_cliques(k=16)", 16 + 16 * 16, 128),
    ("regular", "random_regular(n=16384,d=16)", 0, 32),
]

SCALE_GRAPH = "star(leaves=10000000)"
# From the hub, where half the agents start, with round cutoffs well below
# the rounds these trials need to finish (about 36 and 17): a run's work
# hardly depends on the seed. Hybrid finishes in one round and runs uncut.
SCALE_PROTOCOLS = [("visit-exchange", ",max_rounds=12"),
                   ("meet-exchange", ",max_rounds=6"),
                   ("hybrid", "")]

HETERO_STAR_TRIALS = 16
HETERO_CUBE_TRIALS = 4
HETERO_ER_TRIALS = 4
# n = 2^19 with mean degree 20. The generator redraws until the graph is
# connected; at mean degree 16 about one seed in sixteen needs a second
# draw (an isolated vertex), which doubles set-up. At 20, one in a
# thousand does.
HETERO_ER = "erdos_renyi(n=524288,p=0.0000381)"


def workload_lines(name):
    if name == "paper":
        return [plain(graph, proto, source, trials, f"{fam}/{proto}")
                for fam, graph, source, trials in PAPER_FAMILIES
                for proto in PROTOCOLS]
    if name == "scale":
        # Fewer trials than workers: every trial takes the wide axis.
        return [plain(SCALE_GRAPH, f"{proto}(shards=auto{cut})", 0, 1,
                      f"scale/{proto}", "partial" if cut else "complete")
                for proto, cut in SCALE_PROTOCOLS]
    if name == "hetero":
        t = HETERO_STAR_TRIALS
        sizes = (2048, 8192, 32768)
        small = (2048, 8192)
        tps = ("0.25", "0.5", "1")

        def sweep(text, label, kind, leaves, values=None):
            rows = [(f"{label}/{magnitude(n)}" +
                     (f"/{v}" if values else ""), kind)
                    for n in leaves for v in (values or [None])]
            return Line(text, t, rows)

        lines = [
            # The Fig 1(a) star lines of examples/scenarios/heterogeneous.scn.
            sweep("star(leaves=2k..32k:factor=4) push(tp={0.25,0.5,1}) "
                  f"source=1 trials={t} label=push",
                  "push", "complete", sizes, tps),
            sweep("star(leaves=2k..32k:factor=4) visit-exchange"
                  f"(tp={{0.25,0.5,1}}) source=1 trials={t} label=visitx",
                  "visitx", "complete", sizes, tps),
            sweep("star(leaves=2k..32k:factor=4) push-pull(tp=deg^-0.5) "
                  f"source=1 trials={t} label=ppull-deg",
                  "ppull-deg", "complete", sizes),
            sweep("star(leaves=2k..8k:factor=4) push(stifle={2,8,32}) "
                  f"source=1 trials={t} label=stifled",
                  "stifled", "partial", small, ("2", "8", "32")),
            sweep("star(leaves=2k..8k:factor=4) push(block=0.0005) "
                  f"source=9 trials={t} label=blocked-push",
                  "blocked-push", "partial", small),
            sweep("star(leaves=2k..8k:factor=4) visit-exchange(block=0.0005) "
                  f"source=9 trials={t} label=blocked-visitx",
                  "blocked-visitx", "partial", small),
        ]
        # Constant field on a 2^22+-edge owned CSR: skip sampling, built
        # lazily on a worker once per batch.
        for proto, label in (("push", "cube-push"),
                             ("visit-exchange", "cube-visitx")):
            lines.append(plain("hypercube(dim=19)", f"{proto}(tp=0.5)", 0,
                               HETERO_CUBE_TRIALS, label))
        # Non-constant field on a random graph drawn during validation.
        for options, label in (("tp=deg^-0.5,stifle=8", "er-stifle"),
                               ("tp=deg^-0.5,block=0.001", "er-block")):
            lines.append(plain(HETERO_ER, f"push({options})", 0,
                               HETERO_ER_TRIALS, label, kind="partial"))
        return lines
    raise ValueError(name)


# The paper's claims, as seed-independent checks: rounds that every trial
# of a scenario takes exactly, and ratios of mean broadcast times
# (label_a / label_b >= lo, and <= hi when given).
EXACT_ROUNDS = {
    "paper": [("star/push-pull", 2.0)],
}
SEPARATIONS = {
    "paper": [
        ("star/push", "star/visit-exchange", 100.0, None),
        ("dstar/push-pull", "dstar/visit-exchange", 20.0, None),
        ("htree/visit-exchange", "htree/push-pull", 20.0, None),
        ("regular/visit-exchange", "regular/push-pull", 0.25, 4.0),
    ],
}


def write_scenarios(name, seed):
    lines = workload_lines(name)
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{name}-{seed}.scn"
    # rumor_run --seed=<seed> sets every line's master seed.
    body = [f"# perfbench workload {name}, seed {seed}"]
    body += [line.text for line in lines]
    path.write_text("\n".join(body) + "\n")
    return path, lines


# ------------------------------------------------------------------- checks

def check_csv(name, lines, text):
    """Checks one run's CSV. Returns the failed scenario labels, the
    reasons, and the requested trials per scenario label."""
    expected = [row for line in lines for row in line.rows]
    trials = {label: line.trials for line in lines for label, _ in line.rows}
    failed = set()
    reasons = []

    def fail(labels, why):
        failed.update(labels)
        reasons.append(why)

    if any(row.startswith("# truncated") for row in text.splitlines()):
        fail(trials, "CSV has a '# truncated' trailer")
    rows = list(csv.DictReader(io.StringIO(
        "\n".join(r for r in text.splitlines() if not r.startswith("#")))))
    by_label = {}
    for i, (label, kind) in enumerate(expected):
        if i >= len(rows) or rows[i]["label"] != label:
            fail([label], f"{label}: row {i} missing or out of order")
            continue
        row = rows[i]
        by_label[label] = row
        n = float(row["n"])
        count = int(row["trials"])
        incomplete = int(row["incomplete"])
        informed = float(row["informed_mean"])
        if count != trials[label]:
            fail([label], f"{label}: {count} trials, asked {trials[label]}")
        elif kind == "complete" and (incomplete != 0 or informed != n):
            fail([label], f"{label}: incomplete={incomplete} "
                          f"informed_mean={informed} n={n}")
        elif kind == "partial" and not (0 <= incomplete <= count
                                         and 0 < informed <= n):
            fail([label], f"{label}: incomplete={incomplete} "
                          f"informed_mean={informed} of {count} trials")
    if len(rows) != len(expected):
        fail(trials, f"{len(rows)} CSV rows, expected {len(expected)}")
    for label, rounds in EXACT_ROUNDS.get(name, []):
        row = by_label.get(label)
        if row and not float(row["min"]) == float(row["max"]) == rounds:
            fail([label], f"{label} is not exactly {rounds:g} rounds")
    for a, b, lo, hi in SEPARATIONS.get(name, []):
        if a not in by_label or b not in by_label:
            continue
        ratio = float(by_label[a]["mean"]) / float(by_label[b]["mean"])
        if ratio < lo or (hi is not None and ratio > hi):
            fail([a, b], f"{a} / {b} = {ratio:.3g}, outside "
                         f"[{lo}, {hi if hi is not None else 'inf'}]")
    return failed, reasons, trials


# -------------------------------------------------------------------- build

def build():
    """Configures (once) and builds rumor_run and perfbench_trace."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"),
                          "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "rumor_run", "perfbench_trace", "-j",
                      str(host_cpus())])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                raise SystemExit(f"build failed: {' '.join(cmd)}")
    return BUILD / "rumor" / "rumor_run", BUILD / "perfbench_trace"


def host_cpus():
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------ timed process

class Invocation:
    def __init__(self):
        self.setup_s = None
        self.wall_s = None
        self.peak_rss_mib = None
        self.status = None
        self.stderr = ""


def invoke(rumor_run, scenarios, seed, jobs, csv_path, deadline,
           setup_only=False):
    """Runs rumor_run once, timed from launch; with setup_only, kills it
    as soon as the report header appears. Past `deadline` (a
    time.perf_counter() value) the process is killed."""
    inv = Invocation()
    err_path = csv_path.with_suffix(".err")
    cmd = [str(rumor_run), f"--jobs={jobs}", f"--seed={seed}",
           f"--csv={csv_path}", str(scenarios)]
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=WORK)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if line.startswith(b"scenario"):
                    inv.setup_s = time.perf_counter() - t0
                    break
            if setup_only:
                proc.kill()
            while proc.stdout.read1(1 << 16):
                pass
        finally:
            # wait4 rather than Popen.wait: it also returns the child's
            # resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
            inv.wall_s = time.perf_counter() - t0
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
    inv.peak_rss_mib = usage.ru_maxrss / 1024.0
    inv.status = proc.returncode
    inv.stderr = err_path.read_text()[-2000:]
    return inv


# ----------------------------------------------------------------- manifest

def manifest(trace_bin, workload, seed, jobs, peak_rss_mib):
    host = json.loads(subprocess.run([str(trace_bin), "--host"],
                                     capture_output=True, text=True,
                                     check=True).stdout)
    info = json.loads((BUILD / "build_info.json").read_text())
    # Only when ROOT itself is the work tree, not a directory inside one.
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    describe = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True)
    digest = hashlib.sha256()
    sources = sorted(p for d in ("src", "perfbench")
                     for p in (ROOT / d).rglob("*") if p.is_file())
    for path in sources + [ROOT / "CMakeLists.txt"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": host_cpus(),
        "jobs": jobs,
        "llc_mib": host["llc_bytes"] / 2**20,
        "ram_gib": host["ram_bytes"] / 2**30,
        "peak_rss_mib": peak_rss_mib,
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "git_describe": describe.stdout.strip()
        if describe.returncode == 0 and top and Path(top).resolve() == ROOT
        else "unavailable",
        "source_sha256": digest.hexdigest()[:16],
    }


# --------------------------------------------------------------------- runs

def timed_run(rumor_run, name, seed, seconds, deadline):
    scenarios, lines = write_scenarios(name, seed)
    jobs = host_cpus()
    start = time.perf_counter()
    setups = []
    # Set-up is short next to a run: sample it apart from the full runs as
    # well, within a twentieth of the budget (at least once, at most
    # fifteen times).
    while len(setups) < 15:
        probe = invoke(rumor_run, scenarios, seed, jobs,
                       WORK / f"{name}-{seed}-setup.csv", deadline,
                       setup_only=True)
        if probe.setup_s is None:
            break
        setups.append(probe.setup_s)
        if time.perf_counter() - start > seconds / 20:
            break
    runs = []
    attempted = failed = 0
    reasons = []
    while True:
        csv_path = WORK / f"{name}-{seed}-{len(runs)}.csv"
        inv = invoke(rumor_run, scenarios, seed, jobs, csv_path, deadline)
        text = csv_path.read_text() if csv_path.exists() else ""
        bad, why, trials = check_csv(name, lines, text)
        if inv.status != 0:
            bad = set(trials)
            why.append(f"rumor_run exited {inv.status}: {inv.stderr}")
        attempted += sum(trials.values())
        failed += sum(trials[label] for label in bad)
        reasons += why
        runs.append(inv)
        if inv.setup_s is not None:
            setups.append(inv.setup_s)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in runs)
        if inv.status != 0 or elapsed + typical > seconds:
            break
    total_trials = sum(trials.values())
    ok = [r for r in runs if r.status == 0 and r.setup_s is not None]
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in ok) if ok else None,
        "setup_s": statistics.median(setups) if setups else None,
        "trials_per_s": statistics.median(
            total_trials / (r.wall_s - r.setup_s) for r in ok)
        if ok else None,
        "peak_rss_mib": statistics.median(r.peak_rss_mib for r in ok)
        if ok else None,
    }
    detail = {
        "runs": [{"wall_s": r.wall_s, "setup_s": r.setup_s,
                  "peak_rss_mib": r.peak_rss_mib, "status": r.status}
                 for r in runs],
        "setup_samples": setups,
        "trials_per_run": total_trials,
        "failed_frac": failed / attempted if attempted else 1.0,
        "check_failures": reasons,
    }
    return metrics, attempted, failed, detail


def self_times(spans):
    """Per span name: total and self time (duration minus the union of its
    children's intervals)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    table = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = table.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += s["end"] - s["start"]
        entry["self_s"] += s["end"] - s["start"] - covered
    return table


def traced_run(rumor_run, trace_bin, name, seed, deadline):
    scenarios, lines = write_scenarios(name, seed)
    jobs = host_cpus()
    plain_csv = WORK / f"{name}-{seed}-untraced.csv"
    inv = invoke(rumor_run, scenarios, seed, jobs, plain_csv, deadline)
    text = plain_csv.read_text() if plain_csv.exists() else ""
    bad, reasons, trials = check_csv(name, lines, text)
    if inv.status != 0 or inv.setup_s is None:
        bad = set(trials)
        reasons.append(f"rumor_run exited {inv.status}: {inv.stderr}")
    traced_csv = WORK / f"{name}-{seed}-traced.csv"
    trace_json = RESULTS / f"{name}-{seed}-trace.json"
    RESULTS.mkdir(parents=True, exist_ok=True)
    budget = deadline - time.perf_counter()
    try:
        traced = subprocess.run(
            [str(trace_bin), f"--scenarios={scenarios}", f"--seed={seed}",
             f"--jobs={jobs}", f"--workload={name}", f"--csv={traced_csv}",
             f"--json={trace_json}"],
            capture_output=True, text=True, timeout=max(budget, 1.0))
        status, trace_err = traced.returncode, traced.stderr
    except subprocess.TimeoutExpired:
        status, trace_err = "timeout", ""
    trace = json.loads(trace_json.read_text()) \
        if status in (0, 1) and trace_json.exists() else None
    if trace is None or status != 0:
        bad = set(trials)
        reasons.append(f"perfbench_trace exited {status}: {trace_err[-2000:]}")
    else:
        # The traced run must reproduce every scenario's statistics.
        untraced_rows = text.splitlines()
        traced_rows = traced_csv.read_text().splitlines()
        labels = [label for line in lines for label, _ in line.rows]
        for i, label in enumerate(labels, start=1):
            if i >= len(untraced_rows) or i >= len(traced_rows) or \
                    untraced_rows[i] != traced_rows[i]:
                bad.add(label)
                reasons.append(f"{label}: traced CSV row differs")
    attempted = sum(trials.values())
    failed = sum(trials[label] for label in bad)
    metrics = dict(trace["metrics"]) if trace else {}
    if trace and inv.setup_s is not None:
        phase = metrics["experiments.prepare_s"] + metrics["experiments.run_s"]
        metrics["trace.overhead"] = phase / (inv.wall_s - inv.setup_s)
    detail = {
        "untraced": {"wall_s": inv.wall_s, "setup_s": inv.setup_s,
                     "peak_rss_mib": inv.peak_rss_mib},
        "counts": trace["counts"] if trace else {},
        "self_times": self_times(trace["spans"]) if trace else {},
        "failed_frac": failed / attempted if attempted else 1.0,
        "check_failures": reasons,
    }
    return metrics, attempted, failed, detail


# --------------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper", "scale", "hetero"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rumor_run, trace_bin = build()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if args.trace:
        wanted = spec["per_layer"]
        metrics, attempted, failed, detail = traced_run(
            rumor_run, trace_bin, args.workload, args.seed, deadline)
        rss = detail["untraced"]["peak_rss_mib"]
    else:
        wanted = spec["end_to_end"]
        metrics, attempted, failed, detail = timed_run(
            rumor_run, args.workload, args.seed, args.seconds, deadline)
        rss = metrics["peak_rss_mib"]

    info = manifest(trace_bin, args.workload, args.seed, host_cpus(), rss)
    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    correct = failed == 0 and not missing
    for reason in detail["check_failures"]:
        print(f"check failed: {reason}", file=sys.stderr)
    for name in missing:
        print(f"metric not measured: {name}", file=sys.stderr)
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in wanted if m["name"] not in missing}
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for key, value in out.items():
        print(f"  {key:30s} {value['value']:.6g} {value['unit']}")
    print(f"  {'failed_frac':30s} {detail['failed_frac']:.6g} ratio "
          f"({failed} of {attempted} trials)")
    RESULTS.mkdir(parents=True, exist_ok=True)
    result_path = RESULTS / (f"{args.workload}-{args.seed}-"
                             f"trace{args.trace}.json")
    result_path.write_text(json.dumps(
        {"manifest": info, "metrics": metrics, "detail": detail}, indent=1))
    print(f"  results: {result_path.relative_to(ROOT)}")
    print("manifest: " + json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
