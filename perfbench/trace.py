"""The traced run (--trace 1): per-layer numbers taken from outside.

Four parts, each its own gateway life or process:
  base    the untraced indissd, as in a metric run: the reference for the
          tracing overhead and the source of the loadgen.* figures;
  shim    indissd with native/shim.c preloaded: syscall and allocation
          counts (live.*, gw.*) and the daemon's own exit counters (shard.*);
  tracegw native/tracegw.cpp, an in-process core::Indiss on a span-recording
          Transport decorator: monitor.*, unit.*, cache.*, directory.*,
          http.*;
  layers  native/layers.cpp, direct timed calls on the frames the base phase
          captured: parse.*, compose.*, cache.lookup_ns,
          directory.collect_ns, shard.route_ns.
The generator reads the counter pages at the quiesced boundaries of the
measured phase, so every *_per_op figure counts measured operations only;
the shard.* counts come from the daemon's exit summary and cover its whole
life, so they are divided by all the operations of its life, as is the
generator's retransmit count.
"""

import bisect
import json
import os
import re
import statistics
import subprocess
import sys

import gateway

HERE = os.path.dirname(os.path.abspath(__file__))

# Slot order of native/shim.c.
SHIM_SLOTS = ["recvmsg", "sendto", "epoll_wait", "epoll_wakeups",
              "timerfd_arms", "syscall_ns", "epoll_ns", "connects",
              "mallocs", "malloc_bytes", "sends", "recvs"]


def per_layer_units():
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def tracegw_slots():
    """Slot names of native/counters.hpp, in order (read from the header so
    the two cannot drift apart)."""
    with open(os.path.join(HERE, "native", "counters.hpp")) as f:
        text = f.read()
    block = text[text.index("#define PB_TRACE_SLOTS"):text.index("enum Slot")]
    return re.findall(r"X\((\w+)\)", block)


def fresh_page(path, slots):
    with open(path, "wb") as f:
        f.write(b"\0" * 8 * slots)
    return path, slots


def residence_us(oplog_paths, spans_path):
    """Per operation: the gateway's first receive of it to its last send for
    it, tied by client port (lookup, directory) or device identity (churn).
    Returns the median in microseconds."""
    by_port = {}
    by_token = {}
    with open(spans_path) as f:
        for line in f:
            start, _dur, kind, port, token = line.split()
            kind = int(kind)
            if kind in (0, 1, 5):
                rec = (int(start), False)   # receives
            elif kind in (3, 4):
                rec = (int(start), True)    # sends
            else:
                continue
            by_port.setdefault(port, []).append(rec)
            if token != "-":
                by_token.setdefault(token, []).append(rec)
    for lst in list(by_port.values()) + list(by_token.values()):
        lst.sort()
    ops = []
    for path in oplog_paths:
        with open(path) as f:
            ops += [line.split() for line in f]
    values = []
    for t0, t1, key in ops:
        t0, t1 = int(t0), int(t1)
        if key.startswith("t:"):
            lists = [by_token.get(key[2:], [])]
        else:
            lists = [by_port.get(p, []) for p in key[2:].split(",")]
        window = []
        for lst in lists:
            window += lst[bisect.bisect_left(lst, (t0, False)):
                          bisect.bisect_right(lst, (t1, True))]
        first = min((t for t, sent in window if not sent), default=None)
        last = max((t for t, sent in window if sent), default=None)
        if first is not None and last is not None and last >= first:
            values.append((last - first) / 1e3)
    if not values:
        raise RuntimeError("no operation could be tied to gateway spans")
    return statistics.median(values)


def traced_run(args, argv, run_phase, binary, rundir):
    name = args.workload
    errors = []

    frames_path = os.path.join(rundir, "frames.txt")
    # Each part measures half a metric run, so that the three fit in one
    # run's time limit.
    seconds = args.seconds / 2
    base = run_phase(name, argv, args.seed, seconds, "base",
                     frames=frames_path)
    errors += base["errors"]

    shim_page = fresh_page(os.path.join(rundir, "shim.bin"), len(SHIM_SLOTS))
    shim = run_phase(name, argv, args.seed, seconds, "shim",
                     env_extra={"LD_PRELOAD": binary("pb_shim"),
                                "PB_SHIM_FILE": shim_page[0]},
                     pages=[shim_page])
    errors += shim["errors"]

    names = tracegw_slots()
    tg_page = fresh_page(os.path.join(rundir, "tracegw.bin"), len(names))
    spans_path = fresh_page(os.path.join(rundir, "spans.txt"), 0)[0]
    oplog_path = os.path.join(rundir, "oplog.txt")
    tg = run_phase(name, [binary("pb_tracegw")] + argv[1:], args.seed,
                   seconds, "tracegw",
                   env_extra={"PB_TRACE_FILE": tg_page[0],
                              "PB_SPANS_FILE": spans_path},
                   pages=[tg_page], oplog=oplog_path)
    errors += tg["errors"]

    out = subprocess.run([binary("pb_layers"), frames_path], check=True,
                         capture_output=True, text=True).stdout
    m = {k: float(v) for k, v in (l.split() for l in out.splitlines())}

    d = dict(zip(SHIM_SLOTS, shim["pages"][0]))
    ops = shim["completed"]
    m["live.recvmsg_per_op"] = d["recvmsg"] / ops
    m["live.sendto_per_op"] = d["sendto"] / ops
    m["live.epoll_wakeups_per_op"] = d["epoll_wakeups"] / ops
    m["live.timerfd_arms_per_op"] = d["timerfd_arms"] / ops
    m["live.syscall_us_per_op"] = d["syscall_ns"] / 1e3 / ops
    m["live.epoll_wait_us_per_op"] = d["epoll_ns"] / 1e3 / ops
    m["live.tcp_connects_per_op"] = d["connects"] / ops
    m["gw.mallocs_per_op"] = d["mallocs"] / ops
    m["gw.malloc_bytes_per_op"] = d["malloc_bytes"] / ops
    if name == "churn" and d["sendto"] != ops:
        errors.append("churn: %d gateway sendto calls for %d operations "
                      "(one bridged frame each expected)" % (d["sendto"], ops))

    summaries = shim["summaries"]
    if summaries[0].get("shard"):
        ingested = {}
        for s in summaries:
            for x in s["shard"]:
                ingested[x["index"]] = (ingested.get(x["index"], 0) +
                                        float(x["ingested"]))
        m["shard.replicated_per_op"] = sum(
            gateway.summary_sum(s, "dispatch", "replicated")
            for s in summaries) / shim["life_ops"]
        m["shard.ring_dropped_per_op"] = sum(
            gateway.summary_sum(s, "shard", "ring_dropped")
            for s in summaries) / shim["life_ops"]
        m["shard.imbalance"] = (max(ingested.values()) /
                                max(1.0, min(ingested.values())))
    else:
        m["shard.replicated_per_op"] = 0.0
        m["shard.ring_dropped_per_op"] = 0.0
        m["shard.imbalance"] = 1.0

    d = dict(zip(names, tg["pages"][0]))
    end = dict(zip(names, tg["pages_end"][0]))
    ops = tg["completed"]
    m["monitor.datagrams_per_op"] = d["monitor_datagrams"] / ops
    m["monitor.handler_us_per_datagram"] = (
        d["monitor_handler_ns"] / 1e3 / max(1, d["monitor_datagrams"]))
    m["monitor.own_endpoints_at_end"] = float(end["own_endpoints"])
    m["unit.sessions_per_op"] = d["sessions_opened"] / ops
    m["unit.tasks_per_op"] = d["tasks"] / ops
    m["unit.task_us_per_op"] = d["task_ns"] / 1e3 / ops
    m["unit.residence_us_p50"] = residence_us(tg["oplogs"], spans_path)
    looked_up = d["cache_hits"] + d["cache_misses"]
    m["cache.hit_ratio"] = d["cache_hits"] / looked_up if looked_up else 0.0
    m["cache.replays_per_op"] = d["cache_replays"] / ops
    asked = d["dir_answered"] + d["dir_bridged"]
    m["directory.answered_ratio"] = d["dir_answered"] / asked if asked else 0.0
    m["directory.answer_replays_per_op"] = d["dir_answer_replays"] / ops
    m["http.description_fetch_us"] = (
        d["http_fetch_ns"] / 1e3 / d["http_fetches"]
        if d["http_fetches"] else 0.0)

    m["loadgen.cpu_us_per_op"] = base["loadgen_cpu_us_per_op"]
    m["loadgen.retransmits_per_op"] = base["retransmits"] / base["life_ops"]
    m["trace.shim_latency_p50_ratio"] = (shim["latency_p50_ms"] /
                                         base["latency_p50_ms"])
    m["trace.tracegw_latency_p50_ratio"] = (tg["latency_p50_ms"] /
                                            base["latency_p50_ms"])

    for e in errors:
        print("CHECK FAILED: " + e, file=sys.stderr)
    print("traced %s seed=%d: p50 %.4f ms untraced, %.4f ms shim, %.4f ms "
          "tracegw; wall per op %.1f us, generator CPU per op %.1f us" % (
              name, args.seed, base["latency_p50_ms"], shim["latency_p50_ms"],
              tg["latency_p50_ms"], base["wall_s"] * 1e6 / base["completed"],
              base["loadgen_cpu_us_per_op"]), file=sys.stderr)
    units = per_layer_units()
    if set(m) != set(units):
        raise RuntimeError("per-layer metrics out of step: %s" %
                           sorted(set(m) ^ set(units)))
    return {"correct": not errors, "attempted": base["attempted"],
            "failed": base["failed"],
            "metrics": {k: {"value": m[k], "unit": u}
                        for k, u in units.items()}}
