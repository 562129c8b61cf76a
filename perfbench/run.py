#!/usr/bin/env python3
"""Wall-clock benchmark of the real TCP cluster.

    python3 perfbench/run.py --workload write --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. Each run builds perfbench/pbnode.exe with
dune, then starts a loopback 3-replica kv cluster of separate `pbnode
replica` processes (the Tcp_node runtime with bin/replica.exe's
configuration and file storage in a per-run directory) and one `pbnode
load` process driving it with 2 closed-loop client sessions. No message
delay is injected: latency is processor time plus the client's wait.
Everything is timed on the host's wall clock and measured from outside
the program: /proc for CPU and memory, /health and /metrics scrapes,
and, with --trace 1, a timing functor over the service, a timing wrapper
over the storage record and span recorders stitched by request id.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
and a layer table. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Every run also writes a
result file with provenance under perfbench/_out/results/.

End-to-end metrics (gated by BENCHMARK.json's bounds):
  rrt_p50_ms           call_op issue to return, median over the requests
                       sent in the measured window
  ok_ratio             Ok replies / requests attempted (1 - fail_ratio)
  setup_s              spawn to window start (election, connect, preload),
                       median of SETUPS set-ups
  failover_unavail_ms  time without service after the cluster has no
                       leader, to the first Ok reply of a request sent
                       after that: on failover the median over the leader
                       kills, elsewhere the cold start (spawn to first Ok
                       reply) of the set-ups
Reported with every run but not gated, because on a shared 2-CPU host
their run-to-run spread exceeds any usable bound: rrt_p99_ms (the
highest percentile with ten samples beyond it), throughput_ops,
replica_cpu_ms_per_op (utime+stime of the replicas / Ok ops),
client_cpu_ms_per_op and replica_rss_mb (largest VmHWM). Host CPU steal
and spells of a faster or slower host move them by 15-50%; RRT is also
quantised by the client's 2 ms reply poll, so its p99 jumps between poll
multiples. Traced runs give all of them, as traced.*, next to the
per-layer metrics.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "pbnode.exe")

WORKLOADS = {
    "write": "Put of 16 B values over 64 keys: the accept round, a storage "
             "entry and commit persist per op and small delta ships.",
    "read": "X-Paxos Get over the same 64 keys: no accept round, persist or "
            "ship, so it isolates the client, the transport and the confirm "
            "path.",
    "bigstate": "Put of 850 B values over 2500 keys (2.1 MB of state): the "
                "leader's O(state) diff and the snapshot every 64 commits "
                "dominate.",
    "failover": "The write load plus a kill -9 of the leader every second: "
                "election, client retransmission, reconnect, file recovery "
                "and catch-up.",
}
SESSIONS = 2
SETUPS = 3           # set-ups per run; setup_s is their median
KILL_EVERY_S = 1.0   # failover kills the leader once per second of window
DEADLINE_S = 170     # whole run after the build
MSG_KINDS = ["accept", "client_req", "reply", "read_confirm", "catchup"]
SERVICE_CALLS = ["apply", "diff", "patch", "encode_state", "decode_state"]


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Helpers (covered by test_run.py)

def percentile(xs, p):
    """Linear-interpolated p-th percentile of a non-empty sample."""
    s = sorted(xs)
    k = (len(s) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(xs, want=99.0):
    """(p, value) for the highest percentile p <= want with at least ten
    samples beyond it; None if even the median has fewer."""
    n = len(xs)
    for p in (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0):
        if p <= want and round(n * (100.0 - p) / 100.0, 6) >= 10:
            return p, percentile(xs, p)
    return None


def parse_metrics(text):
    """Prometheus exposition text -> {series: value}."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


def parse_http(raw):
    """(status code, body) of an HTTP/1.x response."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ValueError("no header terminator")
    status = head.split(b"\r\n", 1)[0].split()
    return int(status[1]), body.decode("utf-8", "replace")


def parse_health(body):
    h = json.loads(body)
    for k in ("role", "ballot", "commit_point", "watchdog_violations"):
        if k not in h:
            raise ValueError("health lacks " + k)
    return h


def http_get(port, path, timeout=2.0):
    """GET over a raw socket. The admin endpoint closes without draining
    the request headers, so the kernel may answer our headers with a
    reset after the response: keep whatever body arrived before it."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(("GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n" % path).encode())
        while True:
            try:
                b = s.recv(1 << 16)
            except ConnectionResetError:
                break
            if not b:
                break
            chunks.append(b)
    return parse_http(b"".join(chunks))


def unavailability(rows, instants):
    """For each instant t (ms): the first completion of an Ok request sent
    at or after t, minus t. rows are (t_send, t_ret, status)."""
    ok = sorted((r[0], r[1]) for r in rows if r[2] == 0)
    sends = [r[0] for r in ok]
    suffix_min = [0.0] * len(ok)
    best = float("inf")
    for i in range(len(ok) - 1, -1, -1):
        best = min(best, ok[i][1])
        suffix_min[i] = best
    out = []
    for t in instants:
        i = bisect.bisect_left(sends, t)
        if i < len(ok):
            out.append(suffix_min[i] - t)
    return out


def steal_ticks():
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def median_or_zero(xs):
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------------------
# Processes

class Proc:
    """A child speaking pbnode's line protocol."""

    def __init__(self, argv, log):
        self.argv = argv
        self.log = open(log, "ab")
        self.p = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=self.log,
                                  cwd=ROOT)
        self.buf = b""
        LIVE.append(self)

    @property
    def pid(self):
        return self.p.pid

    def send(self, line):
        self.p.stdin.write((line + "\n").encode())
        self.p.stdin.flush()

    def expect(self, prefix, deadline):
        while True:
            nl = self.buf.find(b"\n")
            if nl >= 0:
                line, self.buf = self.buf[:nl].decode(), self.buf[nl + 1:]
                if line.startswith(prefix):
                    return line
                continue
            left = deadline - time.time()
            if left <= 0:
                raise BenchError("%s: no %r before the deadline" % (self.argv[1], prefix))
            r, _, _ = select.select([self.p.stdout], [], [], left)
            if r:
                b = os.read(self.p.stdout.fileno(), 4096)
                if not b:
                    raise BenchError("%s exited (code %s) before %r"
                                     % (self.argv[1], self.p.wait(), prefix))
                self.buf += b

    def alive(self):
        return self.p.poll() is None

    def kill(self):
        if self.alive():
            self.p.kill()
        self.p.wait()
        for f in (self.p.stdin, self.p.stdout, self.log):
            try:
                f.close()
            except OSError:
                pass
        if self in LIVE:
            LIVE.remove(self)

    def finish(self, timeout):
        try:
            self.p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        self.kill()


LIVE = []


def cpu_s(pid):
    """utime + stime of a process, in seconds."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def free_ports(n):
    socks = []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def stale_replicas():
    """pids of pbnode replicas from this checkout still alive."""
    found = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % d, "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue
        if len(argv) > 1 and argv[0] == EXE.encode() and argv[1] == b"replica":
            found.append(int(d))
    return found


# ---------------------------------------------------------------------------
# Cluster

class Cluster:
    def __init__(self, workdir, trace):
        self.dir = workdir
        self.trace = trace
        self.ports = free_ports(3)
        self.reps = [None, None, None]
        self.open_ms = []
        self.closed = False
        os.makedirs(workdir)
        CLUSTERS.append(self)

    def poll(self, deadline):
        """Sleep one polling step; False once the deadline has passed."""
        if self.closed:
            raise BenchError("cluster closed")
        time.sleep(0.005)
        return time.time() < deadline

    def spawn(self, i, deadline):
        argv = [EXE, "replica", "--id", str(i), "--dir", self.dir,
                "--ports", ",".join(map(str, self.ports))]
        if self.trace:
            argv.append("--trace")
        p = Proc(argv, os.path.join(self.dir, "r%d.stderr" % i))
        self.reps[i] = p
        line = p.expect("up ", deadline)
        self.open_ms.append(float(line.split()[2]))
        return p

    def health(self, i):
        try:
            code, body = http_get(self.ports[i], "/health", timeout=1.0)
            return parse_health(body) if code == 200 else None
        except (OSError, ValueError):
            return None

    def leader(self, among=(0, 1, 2), above_round=-1):
        best = None
        for i in among:
            h = self.health(i)
            if h and h["role"] == "leader" and h["ballot"]["round"] > above_round:
                if best is None or h["ballot"]["round"] > best[1]["ballot"]["round"]:
                    best = (i, h)
        return best

    def wait_leader(self, deadline, among=(0, 1, 2), above_round=-1):
        while True:
            got = self.leader(among, above_round)
            if got:
                return got
            if not self.poll(deadline):
                raise BenchError("no leader elected before the deadline")

    def wait_caught_up(self, i, lead, deadline):
        """Poll until replica i's commit point reaches the leader's."""
        while True:
            hl, hi = self.health(lead), self.health(i)
            if hl and hi and hi["commit_point"] >= hl["commit_point"]:
                return
            if not self.poll(deadline):
                raise BenchError("replica %d did not catch up" % i)

    def scrape(self):
        out = {}
        for i, p in enumerate(self.reps):
            try:
                code, body = http_get(self.ports[i], "/metrics")
                if code == 200:
                    out[(i, p.pid)] = parse_metrics(body)
            except OSError:
                pass
        return out

    def log_tails(self):
        for f in sorted(os.listdir(self.dir)):
            if f.endswith(".stderr"):
                with open(os.path.join(self.dir, f), "rb") as fh:
                    tail = fh.read()[-2000:].decode("utf-8", "replace").strip()
                if tail:
                    print("--- %s\n%s" % (f, tail), file=sys.stderr)

    def close(self):
        self.closed = True
        for p in self.reps:
            if p:
                p.kill()
        shutil.rmtree(self.dir, ignore_errors=True)
        if self in CLUSTERS:
            CLUSTERS.remove(self)


CLUSTERS = []


def setup(workload, seed, seconds, trace, workdir, deadline):
    """Spawn, elect, connect and preload. Returns (cluster, loader, timings)."""
    t_spawn = time.time()
    c = Cluster(workdir, trace)
    for i in range(3):
        c.spawn(i, deadline)
    lead, h = c.wait_leader(deadline)
    t_elected = time.time()
    argv = [EXE, "load", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--ports", ",".join(map(str, c.ports)),
            "--out", os.path.join(workdir, "load.json")]
    if trace:
        argv.append("--trace")
    loader = Proc(argv, os.path.join(workdir, "load.stderr"))
    line = loader.expect("ready", deadline)
    t_ready = time.time()
    return c, loader, {"setup_s": t_ready - t_spawn,
                       "unavail_ms": float(line.split()[1]) - t_spawn * 1000.0,
                       "election_ms": (t_elected - t_spawn) * 1000.0,
                       "election_rounds": h["ballot"]["round"]}


# ---------------------------------------------------------------------------
# Leader kills

class Kills:
    """Kill the leader, time the election, restart it from its files once
    service resumes and time its catch-up. Records the killed process's
    CPU and peak RSS just before the kill."""

    def __init__(self, cluster):
        self.c = cluster
        self.times_ms, self.election_ms, self.rounds = [], [], []
        self.open_ms, self.catchup_ms = [], []
        self.dead_cpu, self.dead_hwm, self.dead_metrics = {}, [], {}

    def kill_leader(self, deadline, in_window):
        c = self.c
        lead, h = c.wait_leader(deadline)
        p = c.reps[lead]
        if c.trace and in_window:
            # Close the victim's counter window and keep its transport
            # counters, so the window's totals include its share.
            stats = os.path.join(c.dir, "r%d-%d.stats.json" % (lead, p.pid))
            p.send("end")
            code, body = http_get(c.ports[lead], "/metrics")
            self.dead_metrics[(lead, p.pid)] = parse_metrics(body)
            while not os.path.exists(stats) and c.poll(deadline):
                pass
        self.dead_cpu[p.pid] = cpu_s(p.pid)
        self.dead_hwm.append(hwm_mb(p.pid))
        p.p.send_signal(signal.SIGKILL)
        t_kill = time.time()
        p.kill()
        others = [i for i in range(3) if i != lead]
        new, nh = c.wait_leader(deadline, others, h["ballot"]["round"])
        t_elected = time.time()
        self.times_ms.append(t_kill * 1000.0)
        self.election_ms.append((t_elected - t_kill) * 1000.0)
        self.rounds.append(nh["ballot"]["round"] - h["ballot"]["round"])
        if in_window:
            # Service has resumed once the new leader commits something.
            while c.poll(deadline):
                hn = c.health(new)
                if hn and hn["commit_point"] > nh["commit_point"]:
                    break
        t_restart = time.time()
        n_open = len(c.open_ms)
        c.spawn(lead, deadline)
        self.open_ms.append(c.open_ms[n_open])
        c.wait_caught_up(lead, new, deadline)
        self.catchup_ms.append((time.time() - t_restart) * 1000.0)


def run_kills(kills, t_go, seconds, deadline, errors):
    try:
        for j in range(max(1, int(seconds / KILL_EVERY_S))):
            due = t_go + (j + 0.25) * KILL_EVERY_S
            if due > time.time():
                time.sleep(due - time.time())
            if time.time() > t_go + seconds - 0.2:
                break
            kills.kill_leader(deadline, in_window=True)
    except Exception as e:  # reported by the main thread
        errors.append(e)


# ---------------------------------------------------------------------------
# One measured run

def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench", "dune-project"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base)
            if "_out" not in d for f in fs)
        for path in paths:
            h.update(path[len(ROOT):].encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "source-sha256:" + h.hexdigest()[:16]


def ocaml_version():
    try:
        r = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    r = subprocess.run(["ocaml", "-vnum"], capture_output=True, text=True, timeout=10)
    return r.stdout.strip()


def run(args, deadline):
    workload, seed, seconds, trace = args.workload, args.seed, args.seconds, args.trace
    stamp = "%d-%d" % (os.getpid(), int(time.time() * 1000))
    setups = []
    for k in range(SETUPS):
        c, loader, st = setup(workload, seed, seconds, trace,
                              os.path.join(OUT, "run-%s-%d" % (stamp, k)), deadline)
        setups.append(st)
        if k < SETUPS - 1:
            loader.kill()
            c.close()
    try:
        return measure(args, c, loader, setups, deadline)
    except BaseException:
        c.log_tails()
        raise
    finally:
        loader.kill()
        c.close()


def measure(args, c, loader, setups, deadline):
    workload, seconds, trace = args.workload, args.seconds, args.trace
    reps = list(c.reps)
    cpu0 = {p.pid: cpu_s(p.pid) for p in reps}
    load_cpu0 = cpu_s(loader.pid)
    steal0, t_steal0 = steal_ticks(), time.time()
    m0 = c.scrape() if trace else {}
    for p in reps:
        p.send("mark")
    loader.send("go")
    t_go = time.time()
    kills = Kills(c)
    errors = []
    if workload == "failover":
        th = threading.Thread(target=run_kills, daemon=True,
                              args=(kills, t_go, seconds, deadline, errors))
        th.start()
    line = loader.expect("window ", deadline)
    load_cpu1 = cpu_s(loader.pid)
    steal = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK") / (
        (time.time() - t_steal0) * os.cpu_count())
    if workload == "failover":
        th.join(max(0.0, deadline - time.time()))
        if errors:
            raise errors[0]
    t0, t1 = map(float, line.split()[1:3])
    for i, p in enumerate(c.reps):
        if not p.alive():
            raise BenchError("replica %d (pid %d) died during the window, exit status %s"
                             % (i, p.pid, p.p.returncode))
    live = list(c.reps)
    cpu1 = {p.pid: cpu_s(p.pid) for p in live}
    cpu1.update(kills.dead_cpu)
    for p in live:
        p.send("end")
    m1 = c.scrape() if trace else {}
    spans = []
    if trace:
        for i in range(3):
            code, body = http_get(c.ports[i], "/flightrec", timeout=30.0)
            path = os.path.join(c.dir, "r%d.spans.jsonl" % i)
            with open(path, "w") as f:
                f.write(body)
            spans.append(path)
    loader.send("verify")
    loader.expect("done", deadline)
    load = json.load(open(os.path.join(c.dir, "load.json")))

    # Correctness: read-back, agreement on the commit point, watchdogs.
    problems = []
    if load["mismatches"] or load["unreadable"]:
        problems.append("read-back: %d wrong, %d unreadable of %d keys"
                        % (load["mismatches"], load["unreadable"], load["keys"]))
    healths = []
    agree_by = min(deadline - 5, time.time() + 10)
    while True:
        healths = [c.health(i) for i in range(3)]
        cps = {h["commit_point"] for h in healths if h}
        if None not in healths and len(cps) == 1:
            break
        if time.time() > agree_by:
            problems.append("replicas disagree on the commit point: %s"
                            % [h and h["commit_point"] for h in healths])
            break
        time.sleep(0.01)
    for i, h in enumerate(healths):
        if h and h["watchdog_violations"]:
            problems.append("replica %d: %d watchdog violations"
                            % (i, h["watchdog_violations"]))
    rss = max([hwm_mb(p.pid) for p in c.reps if p.alive()] + kills.dead_hwm)

    # A traced run of a workload without kills probes election and
    # recovery once, after the window, on the state the workload built.
    if trace and workload != "failover":
        kills.kill_leader(deadline, in_window=False)
    for p in c.reps:
        p.send("quit")
    for p in c.reps:
        p.finish(max(0.1, min(20.0, deadline - time.time())))

    rows = [r for r in load["rows"] if t0 <= r[3] < t1]
    ok = [r for r in rows if r[5] == 0]
    done_ok = [r for r in ok if r[4] <= t1]
    nok = len(done_ok)
    if nok == 0:
        raise BenchError("no request completed in the window")
    rrts = [r[4] - r[3] for r in ok]
    p99 = tail_percentile(rrts, 99.0)
    unavail = []
    if workload == "failover":
        unavail = unavailability([(r[3], r[4], r[5]) for r in load["rows"]],
                                 kills.times_ms)
        if not unavail:
            raise BenchError("no leader kill completed in the window")
        if len(unavail) < len(kills.times_ms):
            problems.append("no request completed after %d of the kills"
                            % (len(kills.times_ms) - len(unavail)))
    wrong = sum(1 for r in rows if r[5] == 3)
    timeouts = sum(1 for r in rows if r[5] == 1)
    failed = sum(1 for r in rows if r[5] != 0)
    if wrong:
        problems.append("%d reads returned a value other than the last acked one" % wrong)
    if failed == len(rows):
        problems.append("every request failed")
    replica_cpu = sum(cpu1[pid] - cpu0.get(pid, 0.0) for pid in cpu1)
    e2e = {
        "rrt_p50_ms": (percentile(rrts, 50.0), "ms"),
        "ok_ratio": (len(ok) / len(rows), "ratio"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "failover_unavail_ms": (statistics.median(
            unavail if workload == "failover" else [s["unavail_ms"] for s in setups]), "ms"),
    }
    reported = {
        "rrt_p99_ms": (p99[1] if p99 else max(rrts), "ms"),
        "throughput_ops": (nok / seconds, "1/s"),
        "replica_cpu_ms_per_op": (replica_cpu * 1000.0 / nok, "ms"),
        "client_cpu_ms_per_op": ((load_cpu1 - load_cpu0) * 1000.0 / nok, "ms"),
        "replica_rss_mb": (rss, "MB"),
    }
    detail = {
        "samples": len(rrts), "attempted": len(rows),
        "host_steal_share": steal, "timeouts": timeouts,
        "non_ok": failed - timeouts - wrong, "wrong_reads": wrong,
        "fail_ratio": failed / len(rows),
        "p99_reported": p99[0] if p99 else None,
        "setups": setups, "kill_unavail_ms": unavail,
        "kills": len(kills.times_ms), "keys_checked": load["keys"],
        "problems": problems,
    }
    metrics = e2e
    if trace:
        metrics = {"traced." + k: v for k, v in {**e2e, **reported}.items()}
        metrics.update(layers(args, c, load, rows, spans, m0, m1, t0, t1, nok, kills))
    return {"correct": not problems, "attempted": len(rows), "failed": failed,
            "metrics": metrics, "reported": reported, "detail": detail}


# ---------------------------------------------------------------------------
# Per-layer metrics (traced runs)

def stitch(spans_files, t0, t1):
    r = subprocess.run([EXE, "stitch", "--from", repr(t0), "--to", repr(t1)] + spans_files,
                       capture_output=True, text=True, timeout=60)
    if r.returncode != 0:
        raise BenchError("stitch failed: " + r.stderr.strip())
    lines = r.stdout.splitlines()
    head = lines[0].split("\t")
    out = {}
    for line in lines[1:]:
        f = line.split("\t")
        rec = {h: float(v) for h, v in zip(head[3:], f[3:])}
        rec["protocol"] = f[2]
        out[(int(f[0]), int(f[1]))] = rec
    return out


def p50_of(xs):
    xs = [x for x in xs if x == x]
    return percentile(xs, 50.0) if xs else 0.0


def layers(args, c, load, rows, spans_files, m0, m1, t0, t1, nok, kills):
    window_us = (t1 - t0) * 1000.0
    ok = [r for r in rows if r[5] == 0]
    ok_writes = nok if args.workload != "read" else 0
    spans_files = spans_files + sorted(
        os.path.join(c.dir, f) for f in os.listdir(c.dir)
        if f.startswith("load.spans"))
    st = stitch(spans_files, t0, t1)
    joined = [(r, st.get((r[1], r[2]))) for r in ok]
    joined = [(r, s) for r, s in joined if s]

    def span(s, a, b):
        return s[b] - s[a]

    stats = []
    for f in os.listdir(c.dir):
        if f.endswith(".stats.json"):
            stats.append(json.load(open(os.path.join(c.dir, f))))

    def timer_sum(name, field):
        return sum(s["timers"][name][field] for s in stats if name in s["timers"])

    def timer_mean_us(name):
        calls = timer_sum(name, "calls")
        return timer_sum(name, "total_us") / calls if calls else 0.0

    def timer_busy(name):
        return max([s["timers"][name]["win_total_us"] / window_us
                    for s in stats if name in s["timers"]] or [0.0])

    ends = {**kills.dead_metrics, **m1}

    def delta(series):
        # Per replica process: its last scrape minus its window-start one
        # (zero for a process restarted inside the window).
        total = 0.0
        for key, b in ends.items():
            total += b.get(series, 0.0) - m0.get(key, {}).get(series, 0.0)
        for start, end in load["meters"]:
            a, b = parse_metrics(start), parse_metrics(end)
            total += b.get(series, 0.0) - a.get(series, 0.0)
        return total

    m = {}
    m["traced.stitched_requests"] = (len(joined), "count")
    m["client.wake_gap_ms.p50"] = (p50_of([r[4] - s["reply"] for r, s in joined]), "ms")
    m["client.protocol_rrt_ms.p50"] = (
        p50_of([span(s, "client_send", "reply") for _, s in joined]), "ms")
    m["client.issue_gap_ms.p50"] = (
        p50_of([s["client_send"] - r[3] for r, s in joined]), "ms")
    m["client.timeouts"] = (sum(1 for r in rows if r[5] == 1), "count")
    m["net.hop_ms.p50"] = (
        p50_of([span(s, "client_send", "leader_receive") for _, s in joined]), "ms")
    m["net.msgs_per_op"] = (delta("grid_net_messages_sent_total") / nok, "count")
    m["net.bytes_per_op"] = (delta("grid_net_bytes_sent_total") / nok, "B")
    for kind in MSG_KINDS:
        m["net.bytes_per_op." + kind] = (
            delta("grid_net_bytes_total_" + kind) / 2.0 / nok, "B")
    m["net.dial_failures"] = (delta("grid_net_dial_failures_total"), "count")
    m["net.decode_errors"] = (delta("grid_net_decode_errors_total"), "count")
    # The engine stamps every span of one step with the step's clock
    # reading, so receive -> apply is 0 by construction: E comes from the
    # leader's timed apply calls (the replica with the most of them).
    applier = max((s for s in stats if "apply" in s["timers"]),
                  key=lambda s: s["timers"]["apply"]["win_calls"], default=None)
    m["replica.exec_ms.p50"] = (
        applier["timers"]["apply"]["win_p50_us"] / 1000.0 if applier else 0.0, "ms")
    waits = [span(s, "leader_receive", "propose") for _, s in joined]
    waits = [w for w in waits if w == w]
    m["replica.queue_wait_ms.mean"] = (statistics.fmean(waits) if waits else 0.0, "ms")
    m["replica.accept_quorum_ms.p50"] = (
        p50_of([span(s, "propose", "accept_quorum") for _, s in joined]), "ms")
    m["replica.commit_to_ship_ms.p50"] = (
        p50_of([span(s, "commit", "state_ship") for _, s in joined]), "ms")
    leader_entries = max([s["timers"]["entry"]["win_calls"] for s in stats
                          if "entry" in s["timers"]] or [0])
    m["replica.ops_per_instance"] = (
        ok_writes / leader_entries if leader_entries else 0.0, "count")
    for name in SERVICE_CALLS:
        m["service.%s_us" % name] = (timer_mean_us(name), "us")
        m["service.%s.calls_per_op" % name] = (timer_sum(name, "win_calls") / nok, "count")
        m["service.%s.busy" % name] = (timer_busy(name), "share")
    for name in ("entry", "commit", "promise"):
        m["storage.%s_us" % name] = (timer_mean_us(name), "us")
    m["storage.snapshot_ms"] = (timer_mean_us("snapshot") / 1000.0, "ms")
    m["storage.snapshot_ms.max"] = (
        max([s["timers"]["snapshot"]["win_max_us"] for s in stats
             if "snapshot" in s["timers"]] or [0.0]) / 1000.0, "ms")
    for name in ("entry", "commit", "snapshot"):
        m["storage.%s.busy" % name] = (timer_busy(name), "share")
    m["storage.persists_per_op"] = (
        sum(timer_sum(n, "win_calls") for n in ("entry", "commit", "promise", "snapshot"))
        / nok, "count")
    m["election.ms"] = (median_or_zero(kills.election_ms), "ms")
    m["election.rounds"] = (median_or_zero(kills.rounds), "count")
    m["recovery.file_open_ms"] = (median_or_zero(kills.open_ms), "ms")
    m["recovery.catchup_ms"] = (median_or_zero(kills.catchup_ms), "ms")
    m["gc.minor_words_per_op"] = (sum(s["gc"]["minor_words"] for s in stats) / nok, "words")
    m["gc.major_per_kop"] = (
        sum(s["gc"]["major_collections"] for s in stats) * 1000.0 / nok, "count")
    m["gc.top_heap_mb"] = (max(s["gc"]["top_heap_mb"] for s in stats), "MB")
    return m


LAYER_GROUPS = [
    ("client", "client."), ("net", "net."), ("replica", "replica."),
    ("service", "service."), ("storage", "storage."),
    ("election", "election."), ("recovery", "recovery."), ("gc", "gc."),
]


def layer_table(workload, m, untraced):
    out = ["layer table: %s (traced, wall clock)" % workload]
    rrt = m["traced.rrt_p50_ms"][0]
    gap, proto = m["client.wake_gap_ms.p50"][0], m["client.protocol_rrt_ms.p50"][0]
    issue = m["client.issue_gap_ms.p50"][0]
    out.append("  rrt_p50 %.3f ms = issue gap %.3f + protocol rrt %.3f + wake gap %.3f"
               " (sum %.3f ms, %.0f%% of rrt)"
               % (rrt, issue, proto, gap, issue + proto + gap,
                  100.0 * (issue + proto + gap) / rrt if rrt else 0.0))
    for label, prefix in LAYER_GROUPS:
        for name in sorted(k for k in m if k.startswith(prefix)):
            v, unit = m[name]
            out.append("  %-9s %-34s %14.4f %s" % (label, name, v, unit))
    busiest = sorted(((m[k][0], k) for k in m if k.endswith(".busy")), reverse=True)[:3]
    out.append("  busiest calls: " + ", ".join(
        "%s %.1f%%" % (k[:-len(".busy")], 100.0 * v) for v, k in busiest))
    try:
        out.append("  tracing overhead vs untraced seed %s: rrt_p50 %+.3f ms, "
                   "throughput %+.1f ops/s"
                   % (untraced["seed"], rrt - untraced["metrics"]["rrt_p50_ms"]["value"],
                      m["traced.throughput_ops"][0]
                      - untraced["reported"]["throughput_ops"]["value"]))
    except (TypeError, KeyError):
        out.append("  tracing overhead: no untraced result for %s yet" % workload)
    return out


# ---------------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or \
            not os.path.isfile(os.path.join(ROOT, "lib", "net", "tcp_node.ml")):
        raise BenchError("not a checkout of the repository: %s lacks the sources" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/pbnode.exe"],
                       cwd=ROOT, env=env, capture_output=True, text=True, timeout=880)
    if r.returncode != 0 or not os.path.isfile(EXE):
        raise BenchError("build failed:\n" + r.stderr[-4000:])


def self_test():
    build()
    r = subprocess.run([sys.executable, os.path.join(HERE, "test_run.py")])
    s = subprocess.run([EXE, "selftest"])
    return 0 if r.returncode == 0 and s.returncode == 0 else 1


def on_signal(signum, _frame):
    raise KeyboardInterrupt("signal %d" % signum)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        build()
        stale = stale_replicas()
        if stale:
            raise BenchError("replicas of an earlier run are still alive: pids %s" % stale)
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        deadline = time.time() + DEADLINE_S
        res = run(args, deadline)
    except (BenchError, KeyboardInterrupt, OSError, ValueError, KeyError) as e:
        if not isinstance(e, BenchError):
            traceback.print_exc()
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        for p in list(LIVE):
            p.kill()
        for c in list(CLUSTERS):
            c.close()
    prov = {
        "workload": args.workload, "why": WORKLOADS[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "clock": "wall", "nproc": SESSIONS, "host_cpus": os.cpu_count(),
        "ocaml": ocaml_version(), "commit": git_commit(),
        "python": platform.python_version(),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    result_dir = os.path.join(OUT, "results")
    with open(os.path.join(result_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(prov, metrics=metrics, detail=res["detail"], correct=res["correct"],
                       reported={k: {"value": v, "unit": u}
                                 for k, (v, u) in res["reported"].items()}), f, indent=1)
    print("provenance: " + json.dumps(prov))
    d = res["detail"]
    print("workload %s: %d attempted, %d failed (fail_ratio %.5f: %d timeouts, "
          "%d non-Ok, %d wrong reads), %d rrt samples, p99 reported as p%s; "
          "host CPU steal %.1f%%"
          % (args.workload, d["attempted"], res["failed"], d["fail_ratio"],
             d["timeouts"], d["non_ok"], d["wrong_reads"], d["samples"],
             d["p99_reported"], 100.0 * d["host_steal_share"]))
    for k, (v, u) in res["reported"].items():
        print("%-34s %14.4f %s (reported, not gated)" % (k, v, u))
    for p in d["problems"]:
        print("CHECK FAILED: " + p)
    if args.trace:
        # Overhead against the untraced run of the same seed, else any.
        prefix = "%s-seed" % args.workload
        found = sorted((f != "%s%d-trace0.json" % (prefix, args.seed), f)
                       for f in os.listdir(result_dir)
                       if f.startswith(prefix) and f.endswith("-trace0.json"))
        untraced = (json.load(open(os.path.join(result_dir, found[0][1])))
                    if found else None)
        for line in layer_table(args.workload, res["metrics"], untraced):
            print(line)
    for k, (v, u) in res["metrics"].items():
        print("%-34s %14.4f %s" % (k, v, u))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
