#!/usr/bin/env python3
"""Reproduces the three gateway faults that shape the benchmark.

    python3 perfbench/faults.py own-endpoints|reuseport|refresh-loss

  own-endpoints  one indissd --sdps slp,upnp bridges three batches of 1000
                 SLP<->UPnP lookups (pb_loadgen, a fresh client socket per
                 lookup). Every bridged request adds its per-session socket
                 to OwnEndpoints by copying the whole set, and every old
                 copy is kept: the resident set grows with the square of
                 the lookups, and a later client whose port the gateway
                 once used is dropped as the gateway's own traffic (lost
                 lookups time out after 2 s).
  reuseport      binds UDP sockets to port 0 with SO_REUSEADDR and
                 SO_REUSEPORT, as LiveUdpSocket does for its per-session
                 sockets, and counts the ports the kernel hands out twice
                 (none without the options).
  refresh-loss   sends 200 distinct SSDP alives 0.3 ms apart, three rounds,
                 through indissd --sdps upnp,mdns and counts the bridged
                 mDNS frames per round; every round should give 200.

Builds like run.py. Binds the well-known SDP ports on lo, so run it alone.
"""

import json
import os
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gateway  # noqa: E402
import run  # noqa: E402


def vm_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS for %d" % pid)


def own_endpoints():
    gw = gateway.Gateway([run.binary("indissd"), "--loopback", "--sdps",
                          "slp,upnp"], run.RUNDIR, "faults")
    try:
        gw.wait_ready()
        print("start: rss %.0f MB" % vm_rss_mb(gw.proc.pid))
        for batch in range(3):
            proc = subprocess.run(
                [run.binary("pb_loadgen"), "--workload", "lookup", "--seed",
                 str(batch + 1), "--inflight", "4", "--ops", "1000",
                 "--fresh-sockets", "1"],
                capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                raise RuntimeError(proc.stderr[-2000:])
            r = json.loads(proc.stdout)
            print("after batch %d: %d of %d lookups lost, rss %.0f MB" % (
                batch + 1, r["failed"], r["attempted"],
                vm_rss_mb(gw.proc.pid)))
        gw.stop()
    finally:
        gw.kill()


def reuseport(binds=2000):
    def shared_ports(options):
        socks = []
        try:
            for _ in range(binds):
                s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                socks.append(s)
                for opt in options:
                    s.setsockopt(socket.SOL_SOCKET, opt, 1)
                s.bind(("0.0.0.0", 0))
            ports = [s.getsockname()[1] for s in socks]
        finally:
            for s in socks:
                s.close()
        return len(ports) - len(set(ports))
    print("%d UDP sockets bound to port 0, all open at once:" % binds)
    print("  SO_REUSEADDR+SO_REUSEPORT: %d ports given twice" % shared_ports(
        (socket.SO_REUSEADDR, socket.SO_REUSEPORT)))
    print("  no options:                %d ports given twice" %
          shared_ports(()))


def refresh_loss(devices=200, gap_s=0.0003):
    gw = gateway.Gateway([run.binary("indissd"), "--loopback", "--sdps",
                          "upnp,mdns"], run.RUNDIR, "faults")
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        gw.wait_ready()
        rx.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        rx.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        rx.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
        rx.bind(("0.0.0.0", 5353))
        rx.setsockopt(socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP,
                      socket.inet_aton("224.0.0.251") +
                      socket.inet_aton("127.0.0.1"))
        rx.setblocking(False)
        tx.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_IF,
                      socket.inet_aton("127.0.0.1"))
        nt = "urn:schemas-upnp-org:device:tv:1"
        frames = [("NOTIFY * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\n"
                   "NT: %s\r\nNTS: ssdp:alive\r\nUSN: uuid:d%d::%s\r\n"
                   "CACHE-CONTROL: max-age=1800\r\n"
                   "LOCATION: http://127.0.0.1:49000/d%d/desc.xml\r\n\r\n"
                   % (nt, i, nt, i)).encode() for i in range(devices)]
        for rnd in range(3):
            for frame in frames:
                tx.sendto(frame, ("239.255.255.250", 1900))
                until = time.monotonic() + gap_s
                while time.monotonic() < until:
                    pass
            time.sleep(0.5)
            heard = 0
            while True:
                try:
                    rx.recvfrom(65536)
                except BlockingIOError:
                    break
                heard += 1
            print("round %d: %d alives sent, %d mDNS frames heard" % (
                rnd + 1, devices, heard))
        gw.stop()
    finally:
        rx.close()
        tx.close()
        gw.kill()


def main():
    faults = {"own-endpoints": own_endpoints, "reuseport": reuseport,
              "refresh-loss": refresh_loss}
    if len(sys.argv) != 2 or sys.argv[1] not in faults:
        print(__doc__, file=sys.stderr)
        return 2
    if sys.argv[1] != "reuseport":
        run.build()
        os.makedirs(run.RUNDIR, exist_ok=True)
    faults[sys.argv[1]]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
