#!/usr/bin/env python3
"""The repository benchmark: partial quantum search, from the wire to the kernels.

Run from the repository root:

  python3 perfbench/run.py --workload serve_fresh --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke      # seconds-long run of every workload

The first run builds the library, pqs_serve, pqs_router and pqs_bench into
.bench_build/ (perfbench/CMakeLists.txt); later runs rebuild incrementally.

Workloads (BENCHMARK.json records why each exists). All run in the default
environment, with no OMP_* override, and put their load on from one process
with four connections or one calling thread:

  serve_fresh          pqs_serve --listen --journal (sync none, fresh dir),
                       closed loop of 4 connections x window 16; every submit
                       a distinct grk spec (n_items 16384, K 4)
  serve_cached_routed  pqs_router in front of two pqs_serve workers (default
                       flags), the same loop over 200 keys filled at set-up
  dense_large          in-process Engine::run, grk, dense, n = 22, K = 4
  shots_sampling       in-process Engine::run, grk, n = 16, K = 4, 20000 shots

A serve run starts five fresh deployments one after another; each is set up
and then carries a fifth of the timed phase, and every end-to-end figure is
the median over the five (cpu_ms_per_req: their total CPU over their total
results). An in-process run sets up five fresh Engines and times the last.

Every timed phase also reads the host's steal ticks from /proc/stat; a run
whose steal exceeds 2% of the host's CPU time is flagged on standard error
and in its record, since the hypervisor, not the code, slowed it.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is a
separate run: half its time untraced, half keeping the benchmark's spans in
memory (the difference is bench.trace_overhead_frac); it fetches the servers'
trace timelines for a sample of requests, runs the in-process layer probes and
an unloaded router-vs-direct probe, and prints the per-layer metrics. Spans
and a full record of each run (host, raw phase outputs) are written under
.bench_build/records/ when the run ends.

The last line of standard output is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A readable report, with the host record, goes to standard error.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
BENCH = BUILD / "pqs_bench"
SERVE = BUILD / "tools" / "pqs_serve"
ROUTER = BUILD / "tools" / "pqs_router"
WORKLOADS = ("serve_fresh", "serve_cached_routed", "dense_large",
             "shots_sampling")
SETUPS = 5          # serve deployments per run; setup_s is their median
STEAL_FLAG_FRAC = 0.02  # steal share of CPU time above which a run is flagged
RUN_BUDGET_S = 170  # every run ends well inside the 180 s limit
BANNER = re.compile(r"listening on ([0-9.]+):(\d+)")


class BenchError(Exception):
    pass


def log(message=""):
    print(message, file=sys.stderr, flush=True)


class Run:
    """One benchmark run: its deadline, its children and its scratch dir.
    Every child is stopped and the scratch dir removed on every exit path."""

    def __init__(self, workload):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.children = []
        self.scratch = BUILD / "run" / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.record = {}

    def __enter__(self):
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        return self

    def __exit__(self, *exc):
        self.stop(list(self.children))
        shutil.rmtree(self.scratch, ignore_errors=True)
        return False

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded its {RUN_BUDGET_S} s budget")
        return left

    def spawn_server(self, argv, name):
        """Start a server on 127.0.0.1:0 and return (process, "host:port")
        read from its `listening on` banner."""
        log_path = self.scratch / f"{name}.log"
        with open(log_path, "w") as log_file:
            proc = subprocess.Popen([str(a) for a in argv],
                                    stdin=subprocess.DEVNULL, stdout=log_file,
                                    stderr=log_file)
        self.children.append(proc)
        while True:
            match = BANNER.search(log_path.read_text())
            if match:
                return proc, f"{match.group(1)}:{match.group(2)}"
            if proc.poll() is not None:
                raise BenchError(f"{name} exited before listening:\n"
                                 + log_path.read_text())
            self.remaining()
            time.sleep(0.002)

    def stop(self, procs):
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc in self.children:
                self.children.remove(proc)

    def bench(self, mode, workload, **flags):
        """Run one pqs_bench mode and return its JSON output."""
        argv = [str(BENCH), "--mode", mode, "--workload", workload]
        for key, value in flags.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=self.remaining())
        if done.returncode != 0:
            raise BenchError(f"pqs_bench --mode {mode} failed:\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.record.setdefault(mode, []).append(result)
        return result

    def tally(self, phase, result):
        """Count a phase's requests; every failure kind counts as failed."""
        self.attempted += result["attempted"]
        failed = sum(result.get(key, 0) for key in
                     ("overloaded", "errors", "missing", "incorrect"))
        if failed == 0 and result.get("ok") is False:
            failed = 1
        self.failed += failed
        if failed:
            self.failures.append(
                f"{phase}: {failed} failed {result.get('failures', [])}")


# ---------------------------------------------------------------------------
# Build and host record.

def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"no repository sources in {ROOT} (need src/ and "
                         "CMakeLists.txt beside perfbench/)")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append([cmake, "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", str(BUILD), "-j", jobs, "--target",
                  "pqs_bench", "pqs_serve", "pqs_router"])
    with open(BUILD / "build.log", "a") as build_log:
        for step in steps:
            if subprocess.run(step, stdout=build_log, stderr=build_log,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise BenchError("build failed; see .bench_build/build.log")


def source_revision():
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # Not a git checkout: identify the sources by content instead.
    digest = hashlib.sha256()
    for base in ("src", "tools", "CMakeLists.txt"):
        path = ROOT / base
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                digest.update(f.relative_to(ROOT).as_posix().encode())
                digest.update(f.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def host_record():
    host = json.loads(subprocess.run([str(BENCH), "--mode", "host"],
                                     capture_output=True, text=True,
                                     timeout=30, check=True).stdout)
    host["omp_env"] = {k: v for k, v in sorted(os.environ.items())
                       if k.startswith("OMP_")}
    host["commit"] = source_revision()
    return host


# ---------------------------------------------------------------------------
# /proc readings of the server processes.

def cpu_seconds(pids):
    total = 0.0
    for pid in pids:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime + stime, in ticks
    return total / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pids):
    total_kb = 0
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Server metric snapshots (the `metrics` op) and their deltas.

def counter_delta(before, after, name):
    return (after["counters"].get(name, 0) - before["counters"].get(name, 0))


def histogram_delta_p50_ms(before, after, name):
    """p50 of the observations between two snapshots, as the lower bound
    of its log bucket (the servers export bucket floors, not samples)."""
    old = {lower: n for lower, n in
           before["histograms"].get(name, {}).get("buckets", [])}
    delta = [(lower, n - old.get(lower, 0)) for lower, n in
             after["histograms"].get(name, {}).get("buckets", [])]
    delta = [(lower, n) for lower, n in delta if n > 0]
    total = sum(n for _, n in delta)
    if total == 0:
        return 0.0
    rank, seen = total // 2 + 1, 0
    for lower, n in sorted(delta):
        seen += n
        if seen >= rank:
            return lower / 1e6
    return 0.0


def service_layer(before, after):
    """service.*, api.plan_hit_frac and the stage p50s from metric deltas."""
    d = lambda name: counter_delta(before, after, name)  # noqa: E731
    submitted = max(d("service.submitted"), 1)
    hits, misses = d("plan.cache_hits"), d("plan.cache_misses")
    stages = {stage: histogram_delta_p50_ms(before, after, f"latency.{stage}_ns")
              for stage in ("queue", "plan", "exec")}
    return {
        "service.queue_ms_p50": stages["queue"],
        "service.exec_ms_p50": stages["exec"],
        "service.plan_ms_p50": stages["plan"],
        "service.cache_hit_frac": d("service.cache_hits") / submitted,
        "service.coalesced_frac": d("service.coalesced_submits") / submitted,
        "service.executed": d("service.executed"),
        "service.rejected": d("service.rejected"),
        "journal.appends": (d("journal.accepted_appends")
                            + d("journal.completed_appends")),
        "api.plan_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
    }, sum(stages.values())


def journal_bytes_per_job(journal_dir, metrics_after):
    jobs = metrics_after["counters"].get("journal.accepted_appends", 0)
    if journal_dir is None or jobs == 0:
        return 0.0
    size = sum(f.stat().st_size for f in journal_dir.iterdir() if f.is_file())
    return size / jobs


# ---------------------------------------------------------------------------
# Deployments.

def start_fleet(run, workload, name):
    """serve_fresh: one journaled worker. serve_cached_routed: a router in
    front of two default workers. Returns (endpoint, processes, journal dir)."""
    if workload == "serve_fresh":
        journal_dir = run.scratch / f"{name}-journal"
        journal_dir.mkdir()
        proc, addr = run.spawn_server(
            [SERVE, "--listen", "127.0.0.1:0", "--journal",
             journal_dir / "journal.jsonl", "--journal-sync", "none"], name)
        return addr, [proc], journal_dir
    workers = [run.spawn_server([SERVE, "--listen", "127.0.0.1:0"],
                                f"{name}-worker{i}") for i in range(2)]
    router, addr = run.spawn_server(
        [ROUTER, "--listen", "127.0.0.1:0", "--workers",
         ",".join(a for _, a in workers)], f"{name}-router")
    return addr, [p for p, _ in workers] + [router], None


def wire_probe(run, workload, seed):
    """The unloaded probe fleet: one journaled worker behind a router.
    Measures the router hop on cached keys, and, for the in-process
    workloads, the service and journal layers on the workload's own spec."""
    journal_dir = run.scratch / "probe-journal"
    journal_dir.mkdir()
    worker, direct = run.spawn_server(
        [SERVE, "--listen", "127.0.0.1:0", "--journal",
         journal_dir / "journal.jsonl", "--journal-sync", "none"],
        "probe-worker")
    router, addr = run.spawn_server(
        [ROUTER, "--listen", "127.0.0.1:0", "--workers", direct],
        "probe-router")
    probe = run.bench("wireprobe", workload, seed=seed, connect=addr,
                      direct=direct)
    run.tally("wireprobe", probe)
    layers, _ = service_layer(probe["metrics_before"], probe["metrics_after"])
    layers["journal.bytes_per_job"] = journal_bytes_per_job(
        journal_dir, probe["metrics_after"])
    run.stop([router, worker])
    return probe, layers


def run_serve(run, workload, seed, seconds, trace):
    # Every deployment runs the workload's load, so each figure -- peak RSS
    # included -- is a median over processes that saw the same work. A
    # traced run gives half its time to the untraced loads and the other
    # half to one traced load on the last deployment.
    untraced = seconds / 2 if trace else seconds
    setups, loads, peaks, cpu = [], [], [], 0.0
    for attempt in range(SETUPS):
        t0_ns = time.monotonic_ns()
        endpoint, procs, journal_dir = start_fleet(run, workload,
                                                   f"deploy{attempt}")
        prepared = run.bench("prepare", workload, seed=seed, connect=endpoint,
                             t0_ns=t0_ns)
        run.tally("prepare", prepared)
        setups.append(prepared["setup_s"])
        pids = [p.pid for p in procs]
        cpu0 = cpu_seconds(pids)
        load = run.bench("load", workload, seed=seed, connect=endpoint,
                         seconds=untraced / SETUPS)
        cpu += cpu_seconds(pids) - cpu0
        run.tally("load", load)
        loads.append(load)
        peaks.append(peak_rss_mb(pids))
        if attempt + 1 < SETUPS:
            run.stop(procs)

    latencies = [load["latency"] for load in loads]
    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_rps": statistics.median(l["throughput_rps"] for l in loads),
        "latency_p50_ms": statistics.median(l["p50_ms"] for l in latencies),
        "cpu_ms_per_req": cpu * 1e3 / max(sum(l["results"] for l in loads), 1),
        "peak_rss_mb": statistics.median(peaks),
    }
    # p99 per deployment from its raw samples; the report shows their median.
    report = {"latency": {
        "samples": sum(l["samples"] for l in latencies),
        "p99_resolved": all(l["p99_resolved"] for l in latencies),
        "p99_ms": statistics.median(l["p99_ms"] for l in latencies),
    }}
    if not trace:
        return e2e, {}, report

    spans = BUILD / "records" / f"{workload}-seed{seed}-spans.jsonl"
    traced = run.bench("load", workload, seed=seed, connect=endpoint,
                       seconds=seconds - untraced, trace=1, spans_out=spans)
    run.tally("traced load", traced)
    layers, stage_sum = service_layer(traced["metrics_before"],
                                      traced["metrics_after"])
    layers["journal.bytes_per_job"] = journal_bytes_per_job(
        journal_dir, traced["metrics_after"])
    layers["net.residual_ms_p50"] = traced["latency"]["p50_ms"] - stage_sum
    layers["bench.trace_overhead_frac"] = (
        1.0 - traced["throughput_rps"] / loads[-1]["throughput_rps"])
    run.stop(procs)
    probe, _ = wire_probe(run, workload, seed)
    layers["router.hop_ms_p50"] = probe["hop_ms_p50"]
    layers.update(run.bench("probe", workload, seed=seed))
    run.attempted += 1
    report["self_time"] = traced["self_time"]
    return e2e, layers, report


def run_inproc(run, workload, seed, seconds, trace):
    spans = BUILD / "records" / f"{workload}-seed{seed}-spans.jsonl"
    flags = {"seed": seed, "seconds": seconds}
    if trace:
        # The untraced and the traced phase share the run.
        flags.update(seconds=seconds / 2, trace=1, spans_out=spans)
    result = run.bench("inproc", workload, **flags)
    run.tally("inproc", result)
    e2e = {
        "setup_s": result["setup_s"],
        "throughput_rps": result["throughput_rps"],
        "latency_p50_ms": result["latency"]["p50_ms"],
        "cpu_ms_per_req": result["cpu_ms_per_req"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    report = {"latency": result["latency"]}
    if not trace:
        return e2e, {}, report
    probe, layers = wire_probe(run, workload, seed)
    layers["router.hop_ms_p50"] = probe["hop_ms_p50"]
    layers["net.residual_ms_p50"] = probe["residual_ms_p50"]
    layers["api.plan_hit_frac"] = result["plan_hit_frac"]
    layers["bench.trace_overhead_frac"] = (
        1.0 - result["traced_throughput_rps"] / result["throughput_rps"])
    layers.update(run.bench("probe", workload, seed=seed))
    run.attempted += 1
    report["self_time"] = {
        "api.engine_run_ms": result["traced_engine_run_ms_p50"],
        "net.residual_ms (probe)": probe["residual_ms_p50"],
    }
    return e2e, layers, report


# ---------------------------------------------------------------------------
# Reporting.

def declared():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def steal_over_timed_phases(run):
    """The host's steal over the run's timed phases, as pqs_bench read it
    from /proc/stat around each of them."""
    phases = [phase["steal"] for results in run.record.values()
              for phase in results if "steal" in phase]
    ticks = sum(p["steal_ticks"] for p in phases)
    total = sum(p["cpu_ticks"] for p in phases)
    frac = ticks / total if total else 0.0
    return {"ticks": ticks, "cpu_ticks": total, "frac": frac,
            "flagged": frac > STEAL_FLAG_FRAC}


def print_report(workload, seed, trace, host, e2e, layers, report, run):
    log(f"== perfbench {workload} seed={seed} trace={trace}")
    log("host " + json.dumps(host, sort_keys=True))
    steal = host["steal"]
    log(f"  {'host_steal_frac':32s} {steal['frac']:.4f} ({steal['ticks']} of "
        f"{steal['cpu_ticks']} ticks over the timed phases)"
        + (f" FLAGGED: above {STEAL_FLAG_FRAC}, the hypervisor slowed this run"
           if steal["flagged"] else ""))
    latency = report["latency"]
    attempted = max(run.attempted, 1)
    log(f"  {'failed_frac':32s} {run.failed / attempted:.6f} (attempted "
        f"{run.attempted})")
    if latency["p99_resolved"]:
        log(f"  {'latency_p99_ms':32s} {latency['p99_ms']:.4f} ms "
            f"({latency['samples']} samples; serve: median of the "
            f"deployments' exact p99)")
    else:
        log(f"  {'latency_p99_ms':32s} unresolved: {latency['samples']} "
            f"samples, fewer than 10 beyond p99")
    e2e_units, layer_units = declared()
    for name, value in e2e.items():
        log(f"  {name:32s} {value:.6g} {e2e_units.get(name, '')}")
    for name, value in layers.items():
        log(f"  {name:32s} {value:.6g} {layer_units.get(name, '')}")
    if "self_time" in report:
        log("  per-layer self time (p50 of the benchmark's spans):")
        for name, value in report["self_time"].items():
            log(f"    {name:30s} {value:.6g}")
    for failure in run.failures:
        log("  FAILED " + failure)


def run_one(args):
    e2e_units, layer_units = declared()
    wanted = layer_units if args.trace else e2e_units
    build()
    (BUILD / "records").mkdir(exist_ok=True)
    with Run(args.workload) as run:
        host = host_record()
        runner = run_serve if args.workload.startswith("serve") else run_inproc
        e2e, layers, report = runner(run, args.workload, args.seed,
                                     args.seconds, args.trace == 1)
        host["steal"] = steal_over_timed_phases(run)
        values = layers if args.trace else e2e
        missing = sorted(set(wanted) - set(values))
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        print_report(args.workload, args.seed, args.trace, host, e2e, layers,
                     report, run)
        record = {"host": host, "workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "end_to_end": e2e, "per_layer": layers,
                  "failures": run.failures, "phases": run.record}
        (BUILD / "records" / f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        result = {
            "correct": run.failed == 0,
            "attempted": max(run.attempted, 1),
            "failed": run.failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in wanted.items()},
        }
    print(json.dumps(result), flush=True)
    return 0


def smoke(seconds):
    """The benchmark's own test: every workload in both modes, seconds
    long; every declared metric must print with its unit and every check
    must pass. Also lints pqs_bench.cpp with the repository's rules."""
    e2e_units, layer_units = declared()
    problems = []
    lint = subprocess.run([sys.executable, str(ROOT / "tools" / "pqs_lint.py"),
                           "--root", str(ROOT),
                           str(BENCH_DIR / "pqs_bench.cpp")],
                          capture_output=True, text=True)
    if lint.returncode != 0:
        problems.append("pqs_lint: " + lint.stdout + lint.stderr)
    for workload in WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload, "--seed", "1", "--seconds", str(seconds),
                 "--trace", str(trace)], capture_output=True, text=True)
            label = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: checks failed\n{done.stderr}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{label}: metrics {got} != declared {units}")
            log(f"smoke {label}: {'ok' if not problems else 'FAILED'}")
    for problem in problems:
        log("smoke FAILED " + problem)
    if not problems:
        log("smoke: every workload printed every metric with its unit; "
            "all checks passed")
    return 1 if problems else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the output")
    args = parser.parse_args(argv)

    def interrupted(signum, _frame):
        raise SystemExit(128 + signum)  # unwinds through Run.__exit__

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, interrupted)
    try:
        if args.smoke:
            return smoke(min(args.seconds, 1.0))
        if args.workload is None:
            parser.error("--workload is required")
        return run_one(args)
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        log(f"perfbench: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
