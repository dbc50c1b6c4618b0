#!/usr/bin/env python3
"""Repository benchmark: one command, three seeded workloads.

    python3 repobench/run.py --workload viz_dr --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first run builds the simulator and
the driver (repobench/CMakeLists.txt) into $CARGO_TARGET_DIR, default
.bench_build. Each run then repeats passes of the workload, each pass a
fresh driver process pinned to one CPU, for --seconds, checks every
pass's model outputs, and prints one JSON object as the last line of
stdout: the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). README.md explains the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Workload -> default seed. openloop_slo's is the seed of BENCH_slo.json.
DEFAULT_SEEDS = {"viz_dr": 1, "openloop_slo": 11, "proto_detailed": 1}

# Figure 4 of the paper (EXPERIMENTS.md): small-message one-way latency and
# peak bandwidth for SocketVIA and kernel TCP.
FIG4_PAPER = {"svia_lat_us": 9.5, "tcp_lat_us": 47.5,
              "svia_bw_mbps": 763.0, "tcp_bw_mbps": 510.0}

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("model_p50_us", "sim_us"),
    ("model_tail_us", "sim_us"),
    ("paper_err_pct", "%"),
]

PER_LAYER = [
    ("sim.switch_ns", "ns"),
    ("sim.ctx_switches", "count"),
    ("attr.switch_share", "ratio"),
    ("sim.processes", "count"),
    ("sim.event_ns", "ns"),
    ("sim.events", "count"),
    ("sim.arena_handler_heap", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.channel_ns", "ns"),
    ("sim.resource_ns", "ns"),
    ("dc.hop_ns", "ns"),
    ("dc.buffers", "count"),
    ("dc.blocked_ms", "sim_ms"),
    ("dc.stall_ms", "sim_ms"),
    ("viz.partial_ns", "ns"),
    ("attr.hop_share", "ratio"),
    ("mem.charge_copy_ns", "ns"),
    ("mem.copies", "count"),
    ("mem.copy_bytes", "bytes"),
    ("mem.pool_reuse_ratio", "ratio"),
    ("attr.copy_share", "ratio"),
    ("net.frame_ns", "ns"),
    ("net.frames", "count"),
    ("net.frames_retx", "count"),
    ("attr.frame_share", "ratio"),
    ("net.link_wait_share", "ratio"),
    ("fault.frames_dropped", "count"),
    ("mux.batches", "count"),
    ("mux.records_per_batch", "ratio"),
    ("mux.drops", "count"),
    ("mux.flushed", "count"),
    ("openloop.arrival_ns", "ns"),
    ("slo.windows", "count"),
    ("slo.actions", "count"),
    ("slo.throttled", "count"),
    ("obs.snapshots", "count"),
    ("sockets.fast_msg_ns.svia", "ns"),
    ("sockets.fast_msg_ns.tcp", "ns"),
    ("sockets.messages", "count"),
    ("sockets.timeouts", "count"),
    ("sockets.detailed_msg_ns.svia", "ns"),
    ("sockets.detailed_msg_ns.tcp", "ns"),
    ("tcp.segments", "count"),
    ("tcp.acks", "count"),
    ("tcp.retx", "count"),
    ("via.credit_updates", "count"),
    ("obs.trace_overhead_pct", "%"),
]

# Tail percentiles tried, highest first; the tail is the highest one with
# at least MIN_BEYOND samples above it.
TAIL_PERCENTILES = (99.999, 99.99, 99.9, 99.0, 90.0)
MIN_BEYOND = 10

# Stop starting passes once this much wall time has gone, so that a run
# ends well inside its 180 s limit even when a pass is slow.
WALL_BUDGET_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failed)."""


def log(msg):
    print(f"repobench: {msg}", file=sys.stderr, flush=True)


# --- statistics -----------------------------------------------------------

def percentile(sorted_xs, p):
    """Nearest-rank percentile, as common/stats.h Samples::percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_xs)))
    return sorted_xs[rank - 1]


def tail_percentile(n):
    """The highest of TAIL_PERCENTILES with at least MIN_BEYOND of `n`
    samples beyond it, or 50 when none has."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return 50.0


def host_time(passes, key):
    """Host time in `key` (sim_run_s or sim_cpu_s, one value per
    simulation of a pass): each simulation's fastest over `passes`, summed.

    Same-CPU thread handoffs on a shared VM alternate between a fast and a
    slow regime every few seconds, and the slow regime's share of a run
    follows the host's load. A median or a percentile of the passes follows
    that share; the fastest of many short simulations reads the fast
    regime, which is what the program costs."""
    return sum(min(col) for col in zip(*(p[key] for p in passes)))


def spread(values):
    """Interquartile range over median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


# --- build ----------------------------------------------------------------

def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configures and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources at {ROOT / 'src'}")
    configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    out = {"stdout": sys.stderr, "stderr": sys.stderr}
    cache = bdir / "CMakeCache.txt"
    if not cache.is_file() or f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" \
            not in cache.read_text():
        # No build tree yet, or one left by another source tree. (An
        # existing tree re-runs cmake itself when a CMakeLists changes.)
        shutil.rmtree(bdir, ignore_errors=True)
        if subprocess.run(configure, check=False, **out).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    make = ["cmake", "--build", str(bdir), "--target", "repobench_driver",
            "-j", jobs]
    if subprocess.run(make, check=False, **out).returncode != 0:
        raise BenchError("build failed")
    return bdir / "repobench_driver"


# --- passes ---------------------------------------------------------------

def run_driver(args, timeout, cpu=None):
    """Runs the driver, pinned to `cpu` when given; returns its JSON line,
    or None when it failed."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run(args, capture_output=True, text=True,
                              timeout=timeout, check=False, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(args)}")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"exit {proc.returncode}: {' '.join(args)}: "
            f"{proc.stderr.strip()[-400:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(driver, workload, seed, cpu, artifacts=None, timeout=120):
    args = [str(driver), "--mode=pass", f"--workload={workload}",
            f"--seed={seed}"]
    if artifacts is not None:
        shutil.rmtree(artifacts, ignore_errors=True)
        artifacts.mkdir(parents=True)
        args.append(f"--artifacts={artifacts}")
    return run_driver(args, timeout, cpu)


def load_counters(artifacts):
    """Sums the counters of every metrics snapshot a traced pass exported
    (one per simulation)."""
    counters = {}
    for path in sorted(artifacts.glob("*.metrics.json")):
        for name, value in json.loads(path.read_text())["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return counters


def family(counters, name):
    """A counter family's total: its unlabelled aggregate when the code
    keeps one, else the sum of its `name{...}` members."""
    if name in counters:
        return counters[name]
    return sum(v for k, v in counters.items() if k.startswith(name + "{"))


def ratio(num, den):
    return num / den if den else 0.0


# --- correctness ----------------------------------------------------------

def model_view(p):
    """What must repeat exactly between passes: the model outputs."""
    return {"points": p["points"], "fig4": p["fig4"],
            "latency_ns": p["latency_ns"], "events": p["events"]}


def pin_view(p):
    """What pins.json holds per workload: the model outputs, with the
    latency samples summarised."""
    lat = p["latency_ns"]
    return {"points": p["points"], "fig4": p["fig4"], "events": p["events"],
            "latency": {"count": len(lat), "sum": sum(lat)}}


def account(passes, pins, pin_passes=()):
    """Failure accounting over a run (None = a pass that crashed).

    `passes` ran at the run's seed; the first that completed is the
    reference. `pin_passes` ran at the workload's default seed only to be
    checked against `pins`; it is empty when the run's seed is the default,
    and the reference is checked instead. `pins` None skips the check.

    Every op of a pass fails when the pass crashed, when its model outputs
    differ from the reference's (the run mixes traced and untraced passes,
    so this is the traced-vs-untraced digest check), or when the pin check
    fails. Otherwise the pass's own failed ops count. Returns (attempted,
    failed, problems)."""
    done = [p for p in passes if p is not None]
    problems = []
    if not done:
        return 1, 1, ["every pass crashed"]
    ref = model_view(done[0])
    attempted = failed = 0
    pin_ok = True
    if pins is not None:
        probe = pin_passes[0] if pin_passes else done[0]
        pin_ok = probe is not None and pin_view(probe) == pins
        if not pin_ok:
            problems.append("model outputs differ from the pins")
        for p in pin_passes:
            ops = done[0]["ops"] if p is None else p["ops"]
            attempted += ops
            failed += ops if not pin_ok else p["failed"]
    for i, p in enumerate(passes):
        if p is None:
            attempted += done[0]["ops"]
            failed += done[0]["ops"]
            problems.append(f"pass {i} crashed")
            continue
        attempted += p["ops"]
        if not pin_ok:
            failed += p["ops"]
        elif model_view(p) != ref:
            failed += p["ops"]
            problems.append(f"pass {i} ({'traced' if p['traced'] else 'untraced'}) "
                            "differs from pass 0")
        else:
            failed += p["failed"]
    return attempted, failed, problems


# --- metrics --------------------------------------------------------------

def end_to_end(untraced, ref):
    lat = sorted(ref["latency_ns"])
    fig4 = ref["fig4"]
    err = statistics.fmean(abs(fig4[k] - v) / v for k, v in FIG4_PAPER.items())
    med = lambda key: statistics.median(p[key] for p in untraced)  # noqa: E731
    return {
        "setup_s": med("setup_s"),
        "run_s": host_time(untraced, "sim_run_s"),
        "cpu_s": host_time(untraced, "sim_cpu_s"),
        "peak_rss_mb": med("peak_rss_kb") / 1024.0,
        "model_p50_us": percentile(lat, 50.0) / 1e3,
        "model_tail_us": percentile(lat, tail_percentile(len(lat))) / 1e3,
        "paper_err_pct": 100.0 * err,
    }


def per_layer(untraced, traced, ref, counters, ladder):
    run_ns = host_time(untraced, "sim_run_s") * 1e9
    switches = statistics.median(p["ctx_switches"] for p in untraced)
    traced_run = host_time(traced, "sim_run_s")
    c = lambda name: family(counters, name)  # noqa: E731
    wait, busy = c("topo.link_wait_ns"), c("topo.link_busy_ns")
    pool_reuse, pool_alloc = c("mem.pool_reuse"), c("mem.pool_alloc")
    m = dict(ladder)
    m.update({
        "sim.ctx_switches": switches,
        "sim.processes": ref["processes"],
        "sim.events": ref["events"],
        "sim.arena_handler_heap": c("sim.arena_handler_heap"),
        "sim.host_ns_per_event": ratio(run_ns, ref["events"]),
        "dc.buffers": c("dc.buffers_in"),
        "dc.blocked_ms": c("dc.blocked_ns") / 1e6,
        "dc.stall_ms": c("dc.stall_ns") / 1e6,
        "mem.copies": c("mem.copies"),
        "mem.copy_bytes": c("mem.copy_bytes"),
        "mem.pool_reuse_ratio": ratio(pool_reuse, pool_reuse + pool_alloc),
        "net.frames": c("fabric.frames"),
        "net.frames_retx": c("fabric.frames_retransmitted"),
        "net.link_wait_share": ratio(wait, wait + busy),
        "fault.frames_dropped": c("fault.frames_dropped"),
        "mux.batches": c("mux.batches"),
        "mux.records_per_batch": ratio(c("mux.batch_records"),
                                       c("mux.batches")),
        "mux.drops": c("mux.drops"),
        "mux.flushed": c("mux.flushed"),
        "slo.windows": c("slo.windows"),
        "slo.actions": c("slo.actions"),
        "slo.throttled": c("slo.throttled"),
        "obs.snapshots": c("obs.snapshots"),
        "sockets.messages": c("socket.messages_sent"),
        "sockets.timeouts": c("socket.timeouts"),
        "tcp.segments": c("tcpstack.segments_sent"),
        "tcp.acks": c("tcpstack.acks_sent"),
        "tcp.retx": c("tcpstack.segments_retransmitted"),
        "via.credit_updates": c("via_sock.credit_updates"),
        "obs.trace_overhead_pct": 100.0 * (traced_run * 1e9 / run_ns - 1.0),
    })
    # Estimates until in-program spans exist: rung ns/op x the workload's
    # count for that rung / run time. The workload's process switches are
    # its OS context switches over the ladder's OS switches per process
    # switch. The shares overlap: a hop holds frames, a frame switches.
    rounds = ratio(switches, m.pop("switches_per_round"))
    m["attr.switch_share"] = ratio(m["sim.switch_ns"] * rounds, run_ns)
    m["attr.hop_share"] = ratio(m["dc.hop_ns"] * m["dc.buffers"], run_ns)
    m["attr.copy_share"] = ratio(m["mem.charge_copy_ns"] * m["mem.copies"],
                                 run_ns)
    m["attr.frame_share"] = ratio(m["net.frame_ns"] * m["net.frames"], run_ns)
    return m


# --- main -----------------------------------------------------------------

def measure(driver, workload, seed, seconds, trace, scratch, cpus):
    """Runs the passes. The first pass is traced and untimed (warm-up, and
    the traced side of the digest check); then untraced passes, alternating
    with traced ones when `trace`, until `seconds` have gone.

    Each pass is pinned to one CPU: the simulator hands control between its
    process threads one at a time, and same-CPU handoffs time far more
    steadily than cross-CPU ones. Successive passes rotate through `cpus`,
    so a slow phase of one CPU moves a few passes, not the median."""
    start = time.monotonic()
    passes = [run_pass(driver, workload, seed, cpus[0], scratch / "warmup")]
    # Off the default seed, one untimed pass at the default seed checks
    # the pins, so every run checks the model against them.
    default = DEFAULT_SEEDS[workload]
    pin_passes = [] if seed == default else [
        run_pass(driver, workload, default, cpus[-1])]
    t0 = time.monotonic()
    slowest = t0 - start
    traced_next = False
    while True:
        now = time.monotonic()
        enough = now - t0 >= seconds and any(
            p is not None and not p["traced"] for p in passes[1:])
        if enough or now - start + 2 * slowest > WALL_BUDGET_S:
            break
        art = scratch / f"pass{len(passes)}" if traced_next else None
        cpu = cpus[len(passes) % len(cpus)]
        passes.append(run_pass(driver, workload, seed, cpu, art))
        if art is not None:
            shutil.rmtree(art, ignore_errors=True)
        slowest = max(slowest, time.monotonic() - now)
        traced_next = trace and not traced_next
    return passes, pin_passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's pinned seed)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-pins", action="store_true",
                    help="record this run's model outputs as the workload's "
                         "pins (default seed only)")
    args = ap.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0:
        ap.error("--seed must be non-negative")
    if args.update_pins and seed != DEFAULT_SEEDS[args.workload]:
        ap.error("--update-pins needs the default seed")

    try:
        bdir = build_dir()
        driver = build(bdir)
    except BenchError as e:
        log(str(e))
        return 2
    cpus = sorted(os.sched_getaffinity(0))
    scratch = bdir / "runs" / str(os.getpid())
    try:
        passes, pin_passes = measure(driver, args.workload, seed,
                                     args.seconds, args.trace == 1, scratch,
                                     cpus)
        done = [p for p in passes if p is not None]
        pins_path = HERE / "pins.json"
        all_pins = json.loads(pins_path.read_text())
        if args.update_pins and done:
            all_pins[args.workload] = pin_view(done[0])
            pins_path.write_text(json.dumps(all_pins, indent=1) + "\n")
        pins = all_pins.get(args.workload)
        if pins is None:
            log(f"no pins for {args.workload}")
            pins = {}
        attempted, failed, problems = account(passes, pins, pin_passes)
        untraced = [p for p in done[1:] if not p["traced"]]
        for msg in problems:
            log(msg)
        if not untraced:
            log("no untraced pass completed")
            return 1
        ref = done[0]
        run_spread = spread([p["run_s"] for p in untraced])
        if args.trace == 1:
            traced = [p for p in done[1:] if p["traced"]] or [done[0]]
            counters = load_counters(scratch / "warmup")
            ladder = run_driver([str(driver), "--mode=ladder"], timeout=60,
                                cpu=cpus[-1])
            if ladder is None:
                log("ladder failed")
                return 1
            metrics = per_layer(untraced, traced, ref, counters, ladder)
            units = dict(PER_LAYER)
        else:
            metrics = end_to_end(untraced, ref)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lat_n = len(ref["latency_ns"])
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"repobench: {args.workload} seed={seed} nproc={os.cpu_count()} "
          f"cpus={len(cpus)} loadavg={load} passes={len(untraced)} untraced "
          f"+ {len(done) - len(untraced)} traced, run_s spread "
          f"(IQR/median)={run_spread:.4f}, model latency samples={lat_n}, "
          f"tail=p{tail_percentile(lat_n):g}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
