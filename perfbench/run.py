#!/usr/bin/env python3
"""End-to-end benchmark of a live indissd over loopback.

    python3 perfbench/run.py --workload lookup|churn|directory --seed N
                             --seconds S --trace 0|1

Builds a Release indissd and the benchmark's native helpers from the tree
into .bench_build/, starts the daemon, drives it with the closed-loop load
generator (native/loadgen.cpp, which checks every answer with its own
codecs) and prints, as the last line, one JSON object: {correct,
attempted, failed, metrics}. With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json; with --trace 1 the per-layer ones (trace.py). Runs
must be serial: indissd binds the well-known SDP ports on lo.
"""

import time

T_START = time.monotonic()  # setup_s counts from here: the run's cold start

import argparse  # noqa: E402
import array  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gateway  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNDIR = os.path.join(ROOT, ".bench_build", "run")
LOADGEN_TIMEOUT_S = 170

# Workload shapes; README.md states them against the gateway's bounds.
# Operations measured in one gateway life (whole rounds of each mix).
LIFE_OPS = {"lookup": 1200, "churn": 30000, "directory": 28 * 1000}
INFLIGHT = os.cpu_count() or 4

GATEWAY_FLAGS = {
    "lookup": ["--sdps", "slp,upnp"],
    "churn": ["--sdps", "upnp,mdns", "--shards", "2"],
    "directory": ["--sdps", "slp,upnp,mdns", "--directory"],
}

# The generator runs on the first CPU, the gateway on the others, so that
# neither migrates onto the other's cores from run to run.
CPUS = sorted(os.sched_getaffinity(0))
LOADGEN_CPUS = set(CPUS[:1]) if len(CPUS) > 1 else None
GATEWAY_CPUS = set(CPUS[1:]) if len(CPUS) > 1 else None


def build():
    """Configures once, then lets ninja decide what is stale."""
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(INFLIGHT),
                    "--target", "indissd", "pb_loadgen", "pb_shim",
                    "pb_tracegw", "pb_layers"], check=True,
                   stdout=subprocess.DEVNULL)


def binary(name):
    path = {"indissd": os.path.join(BUILD, "indiss", "daemon", "indissd"),
            "pb_shim": os.path.join(BUILD, "libpb_shim.so")}.get(
                name, os.path.join(BUILD, name))
    if not os.path.exists(path):
        raise RuntimeError("missing build product " + path)
    return path


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    rank = -(-len(sorted_values) * round(q * 1000) // 1000)
    return sorted_values[max(0, min(len(sorted_values), rank) - 1)]


def summarize(r):
    lat = r["samples"]
    ok = r["completed"]
    r["ops_per_s"] = ok / r["wall_s"]
    r["latency_p50_ms"] = percentile(lat, 0.50) / 1e6
    r["latency_p99_ms"] = percentile(lat, 0.99) / 1e6
    r["gw_cpu_us_per_op"] = r["gw_cpu_ns"] / 1e3 / ok
    r["loadgen_cpu_us_per_op"] = r["loadgen_cpu_s"] * 1e6 / ok
    return r


def run_phase(name, argv, seed, seconds, tag, env_extra=None, pages=(),
              oplog=None, frames=None):
    """Measures `name` for `seconds`, as a sequence of gateway lives: new
    lives start until `seconds` of measurement are done. A life measures a
    fixed LIFE_OPS operations, because the gateway's memory grows with the
    work one life has done: with the square of the lookups it has bridged,
    and with every session finished in the last ten seconds. So peak RSS
    reads the memory that a fixed amount of work costs, whatever the speed.
    Operations, samples, CPU and counter-page deltas add up across lives;
    RSS is the highest peak. setup_s is the run's one cold set-up: from the
    start of this process (build check included) to the first measured
    operation of the first life. Later lives start warm, so they are not
    counted in it."""
    lives = []
    while not lives or sum(r["wall_s"] for r in lives) < seconds:
        k = len(lives)
        lives.append(gateway_life(
            name, argv, seed * 1000 + k, "%s-%d" % (tag, k), env_extra, pages,
            oplog and "%s.%d" % (oplog, k), frames if k == 0 else None))
    out = dict(lives[0])
    out["setup_s"] = lives[0]["t_measure_start_ns"] / 1e9 - T_START
    for key in ("attempted", "failed", "completed", "wall_s", "gw_cpu_ns",
                "loadgen_cpu_s", "retransmits", "life_ops"):
        out[key] = sum(r[key] for r in lives)
    out["pages"] = [[sum(v) for v in zip(*(r["pages"][i] for r in lives))]
                    for i in range(len(pages))]
    out["pages_end"] = lives[-1]["pages_end"]
    out["summaries"] = [r["summary"] for r in lives]
    out["samples"] = sorted(x for r in lives for x in r["samples"])
    out["gw_rss_mb"] = max(r["gw_rss_mb"] for r in lives)
    out["errors"] = [e for r in lives for e in r["errors"]]
    out["kind_p50_ms"] = {k: [r["kind_p50_ms"][k] for r in lives]
                          for k in lives[0]["kind_p50_ms"]}
    out["oplogs"] = [r["oplog"] for r in lives]
    out["lives"] = len(lives)
    return summarize(out)


def gateway_life(name, argv, seed, tag, env_extra=None, pages=(),
                 oplog=None, frames=None):
    """One gateway life: spawn, let the generator set up its fleet, warm up
    and measure, read the peak RSS, stop, check the exit summary."""
    samples_path = os.path.join(RUNDIR, tag + ".samples")
    gw = gateway.Gateway(argv, RUNDIR, tag, env_extra, GATEWAY_CPUS)
    try:
        gw.wait_ready()
        cmd = [binary("pb_loadgen"), "--workload", name, "--seed", str(seed),
               "--inflight", str(INFLIGHT), "--gw-pid", str(gw.proc.pid),
               "--samples", samples_path, "--ops", str(LIFE_OPS[name])]
        for path, slots in pages:
            cmd += ["--page", "%s:%d" % (path, slots)]
        if oplog:
            cmd += ["--oplog", oplog]
        if frames:
            cmd += ["--frames", frames]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=LOADGEN_TIMEOUT_S,
            preexec_fn=(lambda: os.sched_setaffinity(0, LOADGEN_CPUS))
            if LOADGEN_CPUS else None)
        if proc.returncode != 0:
            raise RuntimeError("load generator failed: " + proc.stderr[-2000:])
        r = json.loads(proc.stdout)
        r["gw_rss_mb"] = gw.peak_rss_mb()
        summary = gw.stop()
    finally:
        gw.kill()
    samples = array.array("Q")
    with open(samples_path, "rb") as f:
        samples.frombytes(f.read())
    os.remove(samples_path)
    r["samples"] = sorted(samples)
    if not r["samples"]:
        raise RuntimeError("no operation completed: %s" % r["errors"])
    r["summary"] = summary
    r["oplog"] = oplog
    r["errors"] += check_summary(name, r, summary)
    return summarize(r)


def check_summary(name, r, summary):
    """Checks of the gateway's exit summary against the generator's own
    bookkeeping."""
    errors = []
    if name == "churn":
        cached = gateway.summary_sum(summary, "mdns", "cached_services")
        if cached != r["resident"]:
            errors.append("gateway caches %d services, fleet holds %d" % (
                cached, r["resident"]))
        sent = gateway.summary_sum(summary, "mdns", "announcements_sent")
        if sent != r["frames_decoded"]:
            errors.append("gateway sent %d mDNS frames, generator decoded %d"
                          % (sent, r["frames_decoded"]))
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(GATEWAY_FLAGS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(RUNDIR, exist_ok=True)
    argv = [binary("indissd"), "--loopback", "--seed", str(args.seed)] + \
        GATEWAY_FLAGS[args.workload]

    if args.trace:
        import trace
        out = trace.traced_run(args, argv, run_phase, binary, RUNDIR)
    else:
        r = run_phase(args.workload, argv, args.seed, args.seconds, "indissd")
        metrics = {
            "ops_per_s": (r["ops_per_s"], "op/s"),
            "latency_p50_ms": (r["latency_p50_ms"], "ms"),
            "latency_p99_ms": (r["latency_p99_ms"], "ms"),
            "gw_cpu_us_per_op": (r["gw_cpu_us_per_op"], "us"),
            "gw_rss_mb": (r["gw_rss_mb"], "MB"),
            "setup_s": (r["setup_s"], "s"),
        }
        for e in r["errors"]:
            print("CHECK FAILED: " + e, file=sys.stderr)
        by_kind = {k: round(statistics.median(v), 4)
                   for k, v in r["kind_p50_ms"].items()}
        print("%s seed=%d: %d attempted, %d failed, %d completed in %.2f s "
              "(%d gateway lives, %d retransmitted requests); median ms by "
              "kind %s; loadgen %.1f us/op; process %.2f s" % (
                  args.workload, args.seed, r["attempted"], r["failed"],
                  r["completed"], r["wall_s"], r.get("lives", 1),
                  r["retransmits"], by_kind, r["loadgen_cpu_us_per_op"],
                  time.monotonic() - T_START), file=sys.stderr)
        out = {"correct": not r["errors"], "attempted": r["attempted"],
               "failed": r["failed"],
               "metrics": {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
