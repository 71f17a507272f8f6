#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <compile|lmbench|chaos_checked> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the measuring engine (the Rust
package next to this file) from source into $CARGO_TARGET_DIR (default
`.bench_build`), runs it once under `wait4` so peak memory is measured from
outside the simulator, and reduces the engine's raw samples to the metrics
`BENCHMARK.json` lists: the end-to-end ones with `--trace 0`, the per-layer
ones with `--trace 1`. Human-readable lines come first; the last line of
standard output is one JSON object with exactly the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("compile", "lmbench", "chaos_checked")
# The 604/133 rows Table 3 reports, mapped to the engine's value names.
TABLE3_ROWS = {
    "null_syscall": "604-133.null_syscall",
    "ctx_switch": "604-133.ctxsw2",
    "pipe_lat": "604-133.pipe_lat",
    "pipe_bw": "604-133.pipe_bw",
}
BOARDS = ("604-133", "603-133-htab")
# LmBench rows with their value units.
ROWS = (
    ("null_syscall", "us"),
    ("ctxsw2", "us"),
    ("ctxsw8", "us"),
    ("pipe_lat", "us"),
    ("pipe_bw", "MB/s"),
    ("file_reread", "MB/s"),
    ("mmap_lat", "us"),
    ("pstart", "ms"),
)
SUBSYSTEMS = (
    "translate", "htab_insert", "flush", "page_fault", "reclaim", "sched",
    "syscall", "signal", "idle", "exec", "pmu", "mmtune", "user",
)
ENGINE_TIMEOUT_S = 170
# Host times are reported at the reference host's speed: each timed sample
# is scaled by CALIB_REF_NS over the calibration loop's time measured just
# before it (see src/calib.rs). CALIB_REF_NS is the loop's typical time on
# the reference host, a 2.0 GHz Xeon VM with 2 vCPUs.
CALIB_REF_NS = 7.0e6
# glibc malloc adapts its mmap and trim thresholds to the allocation history,
# and so flips between serving a kernel boot's large tables from recycled
# heap memory and from freshly mapped pages: a fourfold swing in set-up time
# that follows earlier allocations, not the code under test. The engine runs
# with both thresholds pinned (other C libraries ignore the variable).
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824"


# ---- statistics -----------------------------------------------------------

def median(xs):
    """Median of a non-empty sample."""
    return statistics.median(xs)


def quartiles(xs):
    """(q1, q3) as `statistics.quantiles(xs, n=4)` gives them."""
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def percentile(xs, p):
    """The p-th percentile, linearly interpolated between closest ranks."""
    v = sorted(xs)
    rank = (len(v) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


def tail_percentile(n):
    """The highest of the usual percentiles with at least ten of `n`
    samples beyond it, or None when there are fewer than 20 samples."""
    for permille in (999, 990, 900, 750, 500):
        if n * (1000 - permille) >= 10 * 1000:
            return permille / 10.0
    return None


def ratio(num, den):
    """num / den, 0 when there is nothing to divide."""
    return num / den if den else 0.0


def calibrated(ns, calib_ns):
    """Timed samples scaled to the reference host's speed."""
    return [x * CALIB_REF_NS / c for x, c in zip(ns, calib_ns)]


# ---- metric catalogue -----------------------------------------------------

def per_layer_catalogue():
    """(name, unit, better) of every per-layer metric, in report order."""
    m = [
        ("ppc-mmu.dtlb_miss_ratio", "ratio", "lower"),
        ("ppc-mmu.itlb_miss_ratio", "ratio", "lower"),
        ("ppc-mmu.bat_hits", "count", "higher"),
        ("ppc-mmu.htab_hit_ratio", "ratio", "higher"),
        ("ppc-mmu.htab_evictions", "count", "lower"),
        ("ppc-mmu.translate_spans", "count", "lower"),
        ("ppc-mmu.translate_host_s", "s", "lower"),
        ("ppc-mmu.tlb_hit_ns", "ns", "lower"),
        ("ppc-mmu.tlb_miss_ns", "ns", "lower"),
        ("ppc-mmu.htab_insert_ns", "ns", "lower"),
        ("ppc-cache.dcache_miss_ratio", "ratio", "lower"),
        ("ppc-cache.icache_miss_ratio", "ratio", "lower"),
        ("ppc-cache.cache_spans", "count", "lower"),
        ("ppc-cache.cache_host_s", "s", "lower"),
        ("ppc-cache.l1_read_hit_ns", "ns", "lower"),
        ("ppc-cache.l1_read_miss_ns", "ns", "lower"),
        ("ppc-machine.charge_spans", "count", "lower"),
        ("ppc-machine.charge_host_s", "s", "lower"),
        ("ppc-machine.charge_ns", "ns", "lower"),
        ("ppc-machine.fused_data_ref_ns", "ns", "lower"),
        ("ppc-machine.layered_data_ref_ns", "ns", "lower"),
    ]
    m += [("kernel-sim.self_cycles." + s, "cycles", "lower") for s in SUBSYSTEMS]
    m.append(("kernel-sim.idle_share", "ratio", "higher"))
    m += [("kernel-sim.stats." + s, "count",
           "higher" if s in ("htab_hits", "idle_pages_cleared") else "lower")
          for s in KERNEL_STATS]
    m += [
        ("kernel-sim.check.observations", "count", "higher"),
        ("kernel-sim.check.invariant_passes", "count", "higher"),
        ("kernel-sim.check.heavy_sweeps", "count", "higher"),
        ("kernel-sim.checker_spans", "count", "lower"),
        ("kernel-sim.checker_host_s", "s", "lower"),
        ("kernel-sim.allocs_per_mcycle", "1/Mcycles", "lower"),
        ("kernel-sim.boot_s", "s", "lower"),
    ]
    m += [("lmbench.%s.%s" % (b, r), u, "higher" if u == "MB/s" else "lower")
          for b in BOARDS for r, u in ROWS]
    m += [("lmbench.%s.host_s" % r, "s", "lower") for r, _ in ROWS]
    m += [
        ("lmbench.paper_err_pct", "%", "lower"),
        ("core.chaos_run_host_s", "s", "lower"),
        ("bench.trace_overhead_ratio", "ratio", "lower"),
        ("bench.layer_coverage", "ratio", "higher"),
    ]
    return m


# `KernelStats::NAMES`, in declaration order.
KERNEL_STATS = (
    "tlb_reloads", "htab_hits", "htab_misses", "kernel_reloads", "page_faults",
    "cow_faults", "evict_live", "evict_zombie", "ctx_switches", "syscalls",
    "flushed_pages", "context_bumps", "idle_cycles", "idle_pages_cleared",
    "idle_groups_scanned", "processes_spawned", "segfaults", "sigsegvs",
    "sigbus", "oom_kills", "reclaimed_pages", "injected_faults",
    "htab_overflows", "pmu_interrupts", "mmtune_epochs", "mmtune_retunes",
    "mmtune_htab_resizes",
)

END_TO_END = (
    ("sim_mcycles_per_host_s", "Mcycles/s"),
    ("host_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_cycles", "cycles"),
)


# ---- reduction ------------------------------------------------------------

def load_table3():
    with open(os.path.join(HERE, "paper_table3.json")) as f:
        return json.load(f)


def paper_error_pct(values, table3):
    """Mean absolute relative error (%) of the simulated 604/133 rows
    against Table 3's Linux/PPC column."""
    errs = []
    for row, ref in table3["rows"].items():
        sim = values[TABLE3_ROWS[row]]
        errs.append(abs(sim - ref["value"]) / ref["value"])
    return 100.0 * sum(errs) / len(errs)


def op_seconds(ops, ns=None):
    """Calibrated host seconds per operation, of `ns` (default: the
    operations' own host time)."""
    return [x / 1e9 for x in calibrated(ops["host_ns"] if ns is None else ns, ops["calib_ns"])]


def end_to_end(raw, peak_rss_kib):
    ops = raw["ops"]
    host = op_seconds(ops)
    per_op = [c / s / 1e6 for c, s in zip(ops["sim_cycles"], host)]
    return {
        "sim_mcycles_per_host_s": median(per_op),
        "host_s": median(host),
        "setup_s": median(op_seconds(ops, ops["setup_ns"])),
        "peak_rss_mib": peak_rss_kib / 1024.0,
        "sim_cycles": median(ops["sim_cycles"]),
    }


def per_layer(raw, table3):
    """Per-layer metrics, and the names a workload cannot observe (reported
    as 0)."""
    c = raw["counts"]
    missing = set()

    def get(key):
        if key not in c:
            missing.add(key)
        return c.get(key, 0)

    probe = {k: median(calibrated(v, raw["probe_calib_ns"]))
             for k, v in raw["probe_ns"].items()}
    untraced_s = median(op_seconds(raw["ops"]))
    traced_s = median(op_seconds(raw["traced_ops"]))
    cycles = raw["ops"]["sim_cycles"][0]
    m = {}
    m["ppc-mmu.dtlb_miss_ratio"] = ratio(get("dtlb_misses"), get("dtlb_lookups"))
    m["ppc-mmu.itlb_miss_ratio"] = ratio(get("itlb_misses"), get("itlb_lookups"))
    m["ppc-mmu.bat_hits"] = get("bat_hits")
    hits, misses = get("stats.htab_hits"), get("stats.htab_misses")
    m["ppc-mmu.htab_hit_ratio"] = ratio(hits, hits + misses)
    m["ppc-mmu.htab_evictions"] = get("stats.evict_live")
    m["ppc-mmu.translate_spans"] = get("spans.translate")
    m["ppc-mmu.translate_host_s"] = probe["tlb_hit"] * get("spans.translate") / 1e9
    m["ppc-mmu.tlb_hit_ns"] = probe["tlb_hit"]
    m["ppc-mmu.tlb_miss_ns"] = probe["tlb_miss"]
    m["ppc-mmu.htab_insert_ns"] = probe["htab_insert"]
    m["ppc-cache.dcache_miss_ratio"] = ratio(get("dcache_misses"), get("dcache_accesses"))
    m["ppc-cache.icache_miss_ratio"] = ratio(get("icache_misses"), get("icache_accesses"))
    m["ppc-cache.cache_spans"] = get("spans.cache")
    m["ppc-cache.cache_host_s"] = probe["l1_read_hit"] * get("spans.cache") / 1e9
    m["ppc-cache.l1_read_hit_ns"] = probe["l1_read_hit"]
    m["ppc-cache.l1_read_miss_ns"] = probe["l1_read_miss"]
    m["ppc-machine.charge_spans"] = get("spans.charge")
    m["ppc-machine.charge_host_s"] = probe["charge"] * get("spans.charge") / 1e9
    m["ppc-machine.charge_ns"] = probe["charge"]
    m["ppc-machine.fused_data_ref_ns"] = probe["fused_data_ref"]
    m["ppc-machine.layered_data_ref_ns"] = probe["layered_data_ref"]
    for s in SUBSYSTEMS:
        m["kernel-sim.self_cycles." + s] = get("self_cycles." + s)
    m["kernel-sim.idle_share"] = ratio(get("stats.idle_cycles"), cycles)
    for s in KERNEL_STATS:
        m["kernel-sim.stats." + s] = get("stats." + s)
    for s in ("observations", "invariant_passes", "heavy_sweeps"):
        m["kernel-sim.check." + s] = get("check." + s)
    m["kernel-sim.checker_spans"] = get("spans.checker")
    # The checker has no fused batches, so its stride-sampled span time is
    # an unbiased estimate (inclusive of the spans nested in it). Like every
    # count, it comes from the first traced operation.
    m["kernel-sim.checker_host_s"] = calibrated(
        [get("sampled_ns.checker")], raw["traced_ops"]["calib_ns"][:1])[0] / 1e9
    m["kernel-sim.allocs_per_mcycle"] = ratio(get("allocs"), cycles / 1e6)
    m["kernel-sim.boot_s"] = median(op_seconds(raw["ops"], raw["ops"]["boot_ns"]))
    values = raw["values"]
    for b in BOARDS:
        for r, _ in ROWS:
            key = "%s.%s" % (b, r)
            if key not in values:
                missing.add("values." + key)
            m["lmbench." + key] = values.get(key, 0.0)
    parts = {k: op_seconds(raw["ops"], v) for k, v in raw["ops"]["parts_ns"].items()}
    for r, _ in ROWS:
        if r not in parts:
            missing.add("parts." + r)
        m["lmbench.%s.host_s" % r] = median(parts[r]) if r in parts else 0.0
    m["lmbench.paper_err_pct"] = paper_error_pct(values, table3) if values else 0.0
    if "chaos_run" in parts:
        m["core.chaos_run_host_s"] = median(parts["chaos_run"]) / raw["chaos_programs"]
    else:
        missing.add("parts.chaos_run")
        m["core.chaos_run_host_s"] = 0.0
    m["bench.trace_overhead_ratio"] = traced_s / untraced_s
    layers = ("ppc-mmu.translate_host_s", "ppc-cache.cache_host_s",
              "ppc-machine.charge_host_s", "kernel-sim.checker_host_s")
    m["bench.layer_coverage"] = sum(m[k] for k in layers) / traced_s
    return m, sorted(missing)


# ---- host fingerprint -----------------------------------------------------

def source_digest():
    """SHA-256 over the simulator's and the benchmark's sources."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", os.path.relpath(HERE)]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(root)
            if not any(p in ("target", ".bench_build", "__pycache__") for p in d.split(os.sep))
            for f in files)
        for p in paths:
            if os.path.isfile(p):
                h.update(p.encode() + b"\0")
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def command_output(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = "none (not a git checkout)"
    if os.path.isdir(".git"):
        revision = command_output(["git", "rev-parse", "--short=12", "HEAD"]) or revision
        if command_output(["git", "status", "--porcelain", "--untracked-files=no"]):
            revision += "+changes"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "profile": "release",
        "revision": revision,
        "source_digest": source_digest(),
    }


# ---- build and run --------------------------------------------------------

def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr, env=env)
    return r.returncode == 0


def run_engine(argv):
    """Runs the engine; returns (last stdout line, peak RSS in KiB)."""
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    out = []
    reader = threading.Thread(target=lambda: out.append(p.stdout.read()))
    reader.start()
    timer = threading.Timer(ENGINE_TIMEOUT_S, p.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        reader.join()
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        raise RuntimeError("engine exited with %d" % p.returncode)
    lines = out[0].strip().splitlines()
    if not lines:
        raise RuntimeError("engine printed nothing")
    return lines[-1], usage.ru_maxrss


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in (0, 600]")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    engine = os.path.join(target_dir(), "release", "perfbench")
    try:
        line, rss_kib = run_engine([
            engine, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        raw = json.loads(line)
    except (RuntimeError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    fp = fingerprint()
    print("host: " + " ".join("%s=%s" % kv for kv in fp.items()))
    print("workload: %s seed=%d seconds=%g trace=%d threads=1 loop=closed"
          % (args.workload, args.seed, args.seconds, args.trace))
    table3 = load_table3()
    host = op_seconds(raw["ops"])
    q1, q3 = quartiles(host) if len(host) > 1 else (host[0], host[0])
    tail = tail_percentile(len(host))
    print("host_s per operation (calibrated): median %.6f q1 %.6f q3 %.6f%s (n=%d)" % (
        median(host), q1, q3,
        " p%g %.6f" % (tail, percentile(host, tail)) if tail and tail > 50 else "", len(host)))
    print("host_s per operation (raw): median %.6f; calibration loop: median %.3f ms"
          " (reference %.3f ms)" % (median(raw["ops"]["host_ns"]) / 1e9,
                                   median(raw["ops"]["calib_ns"]) / 1e6, CALIB_REF_NS / 1e6))
    if args.workload == "lmbench":
        print("paper_err_pct: %.4f %% (604/133 rows vs %s)"
              % (paper_error_pct(raw["values"], table3), table3["source"]))
    else:
        print("paper_err_pct: unvalidated (the paper gives no reference for %s)" % args.workload)
    attempted, failed = raw["attempted"], raw["failed"]
    print("failed_ratio: %.6f (%d failed of %d attempted)"
          % (ratio(failed, attempted), failed, attempted))
    for why in raw["failures"]:
        print("  failure: " + why)

    if args.trace:
        metrics, missing = per_layer(raw, table3)
        if missing:
            print("not observable on %s (reported as 0): %s"
                  % (args.workload, ", ".join(missing)))
        units = {n: u for n, u, _ in per_layer_catalogue()}
    else:
        metrics = end_to_end(raw, rss_kib)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print("%-44s %18.6f %s" % (name, value, units[name]))

    declared = declared_metrics(args.trace)
    if declared != units or set(metrics) != set(declared):
        print("perfbench: printed metrics differ from BENCHMARK.json: %s"
              % sorted(set(declared) ^ set(metrics)), file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
