"""A gateway process under test: spawn, readiness, peak RSS, exit
summary."""

import os
import re
import signal
import subprocess
import time


class Gateway:
    def __init__(self, argv, workdir, name, env_extra=None, cpus=None):
        self.out_path = os.path.join(workdir, name + ".out")
        self.err_path = os.path.join(workdir, name + ".err")
        env = dict(os.environ)
        env.update(env_extra or {})
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=env, preexec_fn=(lambda: os.sched_setaffinity(0, cpus))
                if cpus else None)

    def wait_ready(self, timeout_s=20.0):
        """Returns once the daemon has bound its ports and started its
        units (it says so on stderr)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("gateway exited during start-up: " +
                                   self._read(self.err_path))
            if " up on " in self._read(self.err_path):
                return
            time.sleep(0.002)
        raise RuntimeError("gateway not ready after %.0f s" % timeout_s)

    @staticmethod
    def _read(path):
        with open(path, "r", errors="replace") as f:
            return f.read()

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the gateway")

    def stop(self, timeout_s=20.0):
        """SIGTERM, wait, and return the exit summary as {line-key: {k: v}}
        (repeated keys such as `unit` and `shard` become lists)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("gateway ignored SIGTERM")
        if self.proc.returncode != 0:
            raise RuntimeError("gateway exited with %d: %s" % (
                self.proc.returncode, self._read(self.err_path)[-2000:]))
        return parse_summary(self._read(self.out_path))

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def parse_summary(text):
    out = {}
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        fields = dict(re.findall(r"(\w+)=(\S+)", line))
        out.setdefault(words[0], []).append(fields)
    return out


def summary_sum(summary, key, field, where=None):
    """Sums `field` over the summary lines starting with `key` (optionally
    only those whose fields include `where`)."""
    total = 0
    for fields in summary.get(key, []):
        if where and any(fields.get(k) != v for k, v in where.items()):
            continue
        if field in fields:
            total += float(fields[field])
    return total
