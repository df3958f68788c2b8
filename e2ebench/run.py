#!/usr/bin/env python3
"""End-to-end benchmark of the mlpart partitioner (see README.md here).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

Run from the repository root. Builds the partitioner from source into
$CARGO_TARGET_DIR (default .bench_build), generates every input from the
seed, measures for S seconds, checks every output, and prints one JSON
line last: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones (and
a Chrome trace-event file is written). Exit status is non-zero when any
output is wrong or the benchmark cannot run.
"""

import argparse
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("ml-golem3", "ml-golem3-par", "serve-small")

# ML workloads: the paper's largest circuit through `mlpart partition`
# defaults. ML_STARTS is the fixed start set behind cut_avg and the traced
# run; untraced runs add further starts while time remains.
ML_INSTANCE = "golem3"
ML_STARTS = 8
ML_READS = 15
PAR_THREADS = 4

# serve-small: the five smallest Table I circuits, L2-resident.
SERVE_CIRCUITS = ("balu", "primary1", "struct", "test05", "primary2")
SERVE_WORKERS = 4
SERVE_CACHE = 1024
SERVE_CLIENTS = 4          # closed-loop clients in phase 1
OPEN_CONNS = 4             # connections the open-loop arrivals rotate over
# Open-loop Poisson arrival rate, jobs/s: about half the phase-1 capacity
# measured on the commit that introduced the benchmark (4-core x86 box),
# then frozen so every later commit is judged at the same offered load.
OPEN_RATE = 25.0
PHASE1_SHARE = 0.3         # share of --seconds spent in the closed loop
WINDOWS = 6                # serve phases are judged in this many equal windows
SETUP_SPAWNS = 31          # server spawns behind the setup_s median
REF_THREADS = 4
CUT_AVG_BLOCKS = 5         # serve cut_avg: k=2 CLIP jobs of the first blocks
BLOCK = 20                 # request mix per block, see make_requests()
EXTRAS = ("k4", "auto", "repeat", "repeat", "k2")
RUNS = (2, 3, 4, 5, 6)     # multi-start width per job, mean 4
REPEAT_MIN_DISTANCE = 8    # a repeat copies a job at least this far back
DRAIN_TIMEOUT = 60.0       # seconds to wait for in-flight jobs at phase end
LAG_VOID_MS = 50.0         # a run whose generator lags more is void
# Hypervisor steal (CPU-seconds withheld per wall second, summed over CPUs)
# below which a start or window counts as undisturbed; see undisturbed().
STEAL_CLEAN = 0.1


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def fail(msg):
    log("e2ebench: " + msg)
    sys.exit(1)


def pct(values, q):
    """Linear-interpolated percentile (q in [0, 1]); inf stays inf."""
    s = sorted(values)
    if not s:
        return float("nan")
    pos = (len(s) - 1) * q
    lo = int(pos)
    if pos == lo:
        return s[lo]
    if math.isinf(s[lo + 1]):
        return s[lo + 1]
    return s[lo] + (s[lo + 1] - s[lo]) * (pos - lo)


def median(values):
    return pct(values, 0.5)


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return v[7], sum(v)


def steal_seconds():
    """CPU-seconds the hypervisor has withheld from this machine so far."""
    return cpu_ticks()[0] / os.sysconf("SC_CLK_TCK")


def undisturbed(samples, steal_rates):
    """The samples measured while the hypervisor withheld less than
    STEAL_CLEAN CPU per second, or, when fewer than half qualify, the least
    disturbed half. On a shared host the neighbours' load comes and goes for
    minutes; timing only undisturbed samples keeps the figures about the
    program. Stderr reports how many samples were kept."""
    order = sorted(range(len(samples)), key=lambda i: steal_rates[i])
    clean = [samples[i] for i in order if steal_rates[i] < STEAL_CLEAN]
    if 2 * len(clean) >= len(samples):
        return clean
    return [samples[i] for i in order[:(len(samples) + 1) // 2]]


# ---- build ----------------------------------------------------------------

def result_tag(workload, seed, trace, scale):
    """Names a run's result record and trace in <build dir>/e2ebench."""
    return "%s-seed%d-trace%d-scale%g" % (workload, seed, trace, scale)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds the benchmark package; returns the bin dir."""
    bdir = build_dir()
    cmds = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", bdir, "-j", "4"])
    for cmd in cmds:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return bdir


class Bench:
    """One benchmark invocation: build outputs, a fresh run directory and
    the processes it must stop."""

    def __init__(self, args):
        self.args = args
        self.bdir = build()
        self.driver_bin = os.path.join(self.bdir, "e2ebench_driver")
        self.serve_bin = os.path.join(self.bdir, "mlpart_serve")
        self.tag = tag = result_tag(args.workload, args.seed, args.trace, args.scale)
        self.run_dir = os.path.join(self.bdir, "runs", "%s-%d" % (tag, os.getpid()))
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        self.out_dir = os.path.join(self.bdir, "e2ebench")
        os.makedirs(self.out_dir, exist_ok=True)
        self.procs = []
        self.env = dict(os.environ)
        # The synthetic instances must not be swapped for real circuits.
        self.env.pop("MLPART_BENCH_DIR", None)
        self.env.pop("MLPART_FAULT_INJECTION", None)

    def driver(self, *argv):
        p = subprocess.run([self.driver_bin] + [str(a) for a in argv], cwd=self.run_dir,
                           env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True)
        if p.returncode != 0:
            log(p.stderr)
            fail("e2ebench_driver %s failed" % argv[0])

    def driver_json(self, name, *argv):
        out = os.path.join(self.run_dir, name + ".json")
        self.driver(*(list(argv) + ["--out", out]))
        with open(out) as f:
            return json.load(f)

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            p.wait()
        self.procs = []


# ---- tracing ----------------------------------------------------------------

def driver_spans(out, offset):
    """The span rows [name, start_us, end_us, id, parent, req, tid] of a
    driver output, ids shifted by `offset`."""
    return [[name, t0, t1, i + offset, parent + offset if parent else 0, req, tid]
            for name, t0, t1, i, parent, req, tid in out["spans"]]


def child_time(rows):
    """Span id -> total duration of its children (children never overlap)."""
    t = {}
    for r in rows:
        if r[4]:
            t[r[4]] = t.get(r[4], 0) + (r[2] - r[1])
    return t


def unattributed_frac(rows):
    """Wall time inside spans that have children but covered by none of
    them, as a share of the time covered by root spans."""
    covered = child_time(rows)
    root = sum(r[2] - r[1] for r in rows if not r[4])
    gap = sum(max(0, (r[2] - r[1]) - covered[r[3]]) for r in rows if r[3] in covered)
    return gap / root if root > 0 else 0.0


def write_trace(bench, rows):
    path = os.path.join(bench.out_dir, bench.tag + ".trace.json")
    events = [{"name": r[0], "ph": "X", "pid": 1, "tid": r[6], "ts": r[1], "dur": r[2] - r[1],
               "args": {"id": r[3], "parent": r[4], "req": r[5]}} for r in rows]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    covered = child_time(rows)
    self_time = {}
    for r in rows:
        self_time[r[0]] = self_time.get(r[0], 0) + (r[2] - r[1]) - covered.get(r[3], 0)
    log("trace: %s (%d spans); self time by span name:" % (path, len(rows)))
    for name, us in sorted(self_time.items(), key=lambda kv: -kv[1]):
        log("  %-22s %10.1f ms" % (name, us / 1000.0))
    return path


# ---- ML workloads -------------------------------------------------------------

def ml_workload(bench, vcycle_threads):
    a = bench.args
    bench.driver("gen", "--dir", bench.run_dir, "--scale", a.scale, ML_INSTANCE)
    hgr = os.path.join(bench.run_dir, ML_INSTANCE + ".hgr")
    argv = ["ml", "--hgr", hgr, "--seed", a.seed, "--seconds", a.seconds,
            "--vcycle-threads", vcycle_threads, "--starts", ML_STARTS, "--reads", ML_READS]
    if a.trace:
        argv += ["--trace", 1]
    d = bench.driver_json("ml", *argv)

    bad = d["mismatches"]
    starts = d["starts"]
    fixed = [s for s in starts if s["run"] < ML_STARTS]
    if a.expect_cut is not None and fixed[0]["cut"] != a.expect_cut:
        bad.append({"run": 0, "what": "cut %d != expected reference cut %d"
                    % (fixed[0]["cut"], a.expect_cut)})
    mismatches = ["start %d: %s" % (m["run"], m["what"]) for m in bad]
    log("ml: %d starts, per-seed cuts %s" % (len(starts), [s["cut"] for s in fixed]))
    attempted = len(starts) + len(d["traced_starts"])
    failed = len({m["run"] for m in bad})
    counts = {"cuts": [s["cut"] for s in fixed], "levels": [s["levels"] for s in fixed]}

    if not a.trace:
        kept = undisturbed(starts, [s["steal_s"] / s["seconds"] for s in starts])
        secs = [s["seconds"] for s in kept]
        metrics = {
            "setup_s": (median(d["read_seconds"]), "s"),
            "latency_ms_p50": (median(secs) * 1e3, "ms"),
            "latency_ms_p90": (pct(secs, 0.9) * 1e3, "ms"),
            "jobs_per_s": (len(secs) / sum(secs), "jobs/s"),
            "cut_avg": (statistics.fmean(s["cut"] for s in fixed), "nets"),
            "peak_rss_mb": (d["peak_rss_kb"] / 1024.0, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "fraction"),
        }
        log("ml: latency over the n=%d of %d starts run with steal below %.2f CPU (median of "
            "all %d: %.1f ms); cut_avg over the first %d" % (
                len(kept), len(starts), STEAL_CLEAN, len(starts),
                median([s["seconds"] for s in starts]) * 1e3, len(fixed)))
        return metrics, mismatches, attempted, failed, counts

    t = d["traced_starts"]

    def med(key):
        return median([s[key] for s in t])

    chain_total = median([s["chain_match_s"] + s["chain_induce_s"] for s in t])
    moves = sum(s["moves"] for s in t)
    rollbacks = sum(s["rollbacks"] for s in t)
    other = median([s["seconds"] - s["coarsen_s"] - s["initial_s"] - s["refine_s"] for s in t])
    unprofiled = median([s["refine_s"] - s["build_s"] - s["select_s"] - s["apply_s"] - s["undo_s"]
                         for s in t])
    load = median(d["read_seconds"])
    rows = driver_spans(d, 0)
    metrics = layer_defaults()
    metrics.update({
        "hypergraph.load_s": (load, "s"),
        "hypergraph.mb_per_s": (d["input_bytes"] / 1e6 / load, "MB/s"),
        "coarsen.s": (med("coarsen_s"), "s"),
        "coarsen.match_s": (med("chain_match_s"), "s"),
        "coarsen.induce_s": (med("chain_induce_s"), "s"),
        "coarsen.levels": (med("levels"), "count"),
        "coarsen.chain_gap_frac": ((med("coarsen_s") - chain_total) / med("coarsen_s"), "fraction"),
        "core.initial_s": (med("initial_s"), "s"),
        "core.other_s": (other, "s"),
        "refine.s": (med("refine_s"), "s"),
        "refine.build_s": (med("build_s"), "s"),
        "refine.select_s": (med("select_s"), "s"),
        "refine.apply_s": (med("apply_s"), "s"),
        "refine.undo_s": (med("undo_s"), "s"),
        "refine.unprofiled_s": (unprofiled, "s"),
        "refine.passes": (statistics.fmean(s["passes"] for s in t), "count"),
        "refine.moves": (moves / len(t), "count"),
        "refine.rollbacks": (rollbacks / len(t), "count"),
        "refine.kept_ratio": ((moves - rollbacks) / moves if moves else 1.0, "fraction"),
        "trace.overhead_frac": (med("seconds") / median([s["seconds"] for s in starts]) - 1.0,
                                "fraction"),
        "trace.unattributed_frac": (unattributed_frac(rows), "fraction"),
    })
    log("ml: per-layer medians over n=%d traced starts; refine.kept_ratio base = %d moves"
        % (len(t), moves))
    write_trace(bench, rows)
    counts.update({"moves": [s["moves"] for s in t], "rollbacks": [s["rollbacks"] for s in t],
                   "passes": [s["passes"] for s in t]})
    return metrics, mismatches, attempted, failed, counts


# ---- serve workload -------------------------------------------------------------

def make_requests(rng, prefix, count, paths):
    """`count` request dicts in blocks of BLOCK. Each block holds every
    circuit four times: three k=2 CLIP jobs and one slot from EXTRAS. The
    extras rotate over the circuits, so every five blocks carry the same
    mix: 80% k=2 CLIP, 5% k=4 CLIP, 5% engine auto and 10% exact repeats
    of an earlier job, which the result cache can answer. Each (circuit,
    kind) pair cycles through the multi-start widths in RUNS, so every run
    sends the same multiset of job sizes and only seeds and order differ:
    the latency percentiles then move with the program, not with the draw."""
    reqs = []
    fresh = []
    turn = {}
    while len(reqs) < count:
        block = len(reqs) // BLOCK
        slots = [(c, "k2") for c in SERVE_CIRCUITS for _ in range(3)]
        slots += [(c, EXTRAS[(i + block) % len(EXTRAS)]) for i, c in enumerate(SERVE_CIRCUITS)]
        rng.shuffle(slots)
        for circuit, kind in slots:
            rid = "%s%05d" % (prefix, len(reqs))
            if kind == "repeat":
                pool = fresh[:max(0, len(fresh) - REPEAT_MIN_DISTANCE)]
                if pool:
                    twin = rng.choice(pool)
                    reqs.append(dict(twin, id=rid, twin=twin["id"], kind="repeat", block=block))
                    continue
                kind = "k2"
            n = turn.get((circuit, kind), 0)
            turn[(circuit, kind)] = n + 1
            r = {"id": rid, "circuit": circuit, "instance": paths[circuit],
                 "k": 4 if kind == "k4" else 2, "engine": "auto" if kind == "auto" else "clip",
                 "runs": RUNS[n % len(RUNS)], "seed": rng.randrange(1, 2 ** 31), "kind": kind,
                 "block": block, "twin": None}
            reqs.append(r)
            fresh.append(r)
    return reqs[:count]


def by_window(records, key, t0, seconds):
    """Splits records into WINDOWS equal windows of [t0, t0 + seconds) by
    their time `key`; records outside the span are dropped."""
    windows = [[] for _ in range(WINDOWS)]
    for r in records:
        i = int((r[key] - t0) / seconds * WINDOWS)
        if 0 <= i < WINDOWS:
            windows[i].append(r)
    return windows


def wire(req):
    return (json.dumps({"op": "partition", "id": req["id"], "instance": req["instance"],
                        "k": req["k"], "engine": req["engine"], "runs": req["runs"],
                        "seed": req["seed"]}, separators=(",", ":")) + "\n").encode()


def ref_key(req):
    return (req["instance"], req["k"], req["engine"], req["runs"], req["seed"])


class Conn:
    """A client connection. Reads happen only when the selector reports the
    socket readable, so the blocking socket never stalls the generator."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(DRAIN_TIMEOUT)
        self.sock.connect(path)
        self.buf = b""

    def send(self, data):
        self.sock.sendall(data)

    def lines(self):
        """Reads once; returns the complete lines received so far."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk
        *done, self.buf = self.buf.split(b"\n")
        return [json.loads(x) for x in done if x.strip()]

    def close(self):
        self.sock.close()


class Server:
    """One mlpart_serve process on a fresh socket and state dir."""

    def __init__(self, bench, name):
        self.dir = os.path.join(bench.run_dir, name)
        os.makedirs(os.path.join(self.dir, "state"))
        self.sock_path = os.path.relpath(os.path.join(self.dir, "serve.sock"))
        if len(self.sock_path) > 100:
            fail("socket path too long: " + self.sock_path)
        self.out = open(os.path.join(self.dir, "serve.log"), "w")
        # Timed from spawn to the first accepted connect, retried without
        # sleeping so no poll interval enters the figure.
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [bench.serve_bin, "--socket", "serve.sock", "--workers", str(SERVE_WORKERS),
             "--cache", str(SERVE_CACHE), "--state-dir", "state"],
            cwd=self.dir, env=bench.env, stdin=subprocess.DEVNULL, stdout=self.out,
            stderr=subprocess.STDOUT)
        bench.procs.append(self.proc)
        while True:
            try:
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                probe.connect(self.sock_path)
                probe.close()
                break
            except OSError:
                probe.close()
                if self.proc.poll() is not None:
                    fail("mlpart_serve exited during start-up (see %s)" % self.out.name)
                if time.monotonic() - t0 > 30:
                    fail("mlpart_serve did not accept within 30 s")
        self.setup_s = time.monotonic() - t0

    def journal_bytes(self):
        try:
            return os.stat(os.path.join(self.dir, "state", "journal.wal")).st_size
        except OSError:
            return 0

    def status(self):
        c = Conn(self.sock_path)
        c.send(b'{"op":"status"}\n')
        while True:
            for msg in c.lines():
                if msg.get("event") == "status":
                    c.close()
                    return msg

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.out.close()


class LoadGen:
    """The single load-generator process: paced sends over unix-socket
    connections, one record per request."""

    def __init__(self, server, traced):
        self.server = server
        self.traced = traced
        self.sel = selectors.DefaultSelector()
        self.rec = {}            # id -> record
        self.journal_growth = 0
        self.journal_last = server.journal_bytes()
        self.trace_cost = 0.0    # seconds of traced-only work while measuring
        self.steal = [(time.monotonic(), steal_seconds())]  # (time, steal so far)

    def connect(self, n):
        conns = [Conn(self.server.sock_path) for _ in range(n)]
        for c in conns:
            self.sel.register(c.sock, selectors.EVENT_READ, c)
        return conns

    def close(self, conns):
        for c in conns:
            self.sel.unregister(c.sock)
            c.close()

    def send(self, conn, req, due):
        now = time.monotonic()
        self.rec[req["id"]] = {"req": req, "due": due, "sent": now, "done": None, "res": None}
        conn.send(wire(req))

    def steal_rate(self, t0, t1):
        """CPU-seconds stolen per second over [t0, t1), from the samples."""
        def at(t):
            v = self.steal[0][1]
            for ts, sv in self.steal:
                if ts > t:
                    break
                v = sv
            return v
        return (at(t1) - at(t0)) / (t1 - t0)

    def poll(self, timeout):
        """Reads every available result; returns the records completed.
        Samples the machine's steal counter at most every 100 ms."""
        now = time.monotonic()
        if now - self.steal[-1][0] >= 0.1:
            self.steal.append((now, steal_seconds()))
        done = []
        for key, _ in self.sel.select(timeout):
            conn = key.data
            for msg in conn.lines():
                if msg.get("event") != "result":
                    continue
                r = self.rec.get(msg.get("id"))
                if r is None or r["res"] is not None:
                    continue
                r["done"] = time.monotonic()
                r["res"] = msg
                done.append(r)
        if done and self.traced:
            t0 = time.perf_counter()
            size = self.server.journal_bytes()
            self.journal_growth += max(0, size - self.journal_last)
            self.journal_last = size
            self.trace_cost += time.perf_counter() - t0
        return done

    def closed_loop(self, reqs, seconds, min_sent):
        """SERVE_CLIENTS clients, each sending its next request when its
        previous one is answered, for `seconds` and at least `min_sent`
        requests. A repeat waits for its twin's answer, so whether the cache
        can answer it does not depend on timing."""
        conns = self.connect(SERVE_CLIENTS)
        it = iter(reqs)
        inflight = {}
        held = {}                # conn index -> request waiting for its twin
        t0 = time.monotonic()
        end = t0 + seconds
        sent = []

        def more():
            return time.monotonic() < end or len(sent) < min_sent

        def next_for(i):
            req = held.pop(i, None) or next(it, None)
            if req is None:
                return
            twin = req["twin"]
            if twin is not None and self.rec[twin]["res"] is None:
                held[i] = req
                return
            self.send(conns[i], req, time.monotonic())
            inflight[i] = req["id"]
            sent.append(req["id"])

        for i in range(len(conns)):
            next_for(i)
        while inflight or held:
            now = time.monotonic()
            if now > end + DRAIN_TIMEOUT:
                break
            for r in self.poll(0.05):
                for i, rid in list(inflight.items()):
                    if rid == r["req"]["id"]:
                        del inflight[i]
                        if more():
                            next_for(i)
            for i in list(held):
                if more():
                    next_for(i)
                else:
                    held.pop(i)
        self.close(conns)
        return sent, t0

    def open_loop(self, reqs, rate, seconds, rng):
        """Poisson arrivals at `rate` for `seconds`, sent when due whatever
        the backlog; each timed from its due time."""
        conns = self.connect(OPEN_CONNS)
        t0 = time.monotonic() + 0.01
        self.open_t0 = t0
        schedule = []
        t = t0
        for req in reqs:
            t += rng.expovariate(rate)
            if t - t0 >= seconds:
                break
            schedule.append((t, req))
        i = 0
        pending = 0
        while True:
            now = time.monotonic()
            while i < len(schedule) and schedule[i][0] <= now:
                due, req = schedule[i]
                self.send(conns[i % len(conns)], req, due)
                pending += 1
                i += 1
            if i == len(schedule) and pending == 0:
                break
            if now > t0 + seconds + DRAIN_TIMEOUT:
                break
            wait = schedule[i][0] - time.monotonic() if i < len(schedule) else 0.05
            pending -= len(self.poll(max(0.0, min(wait, 0.05))))
        self.close(conns)
        return [req["id"] for _, req in schedule]


def check_served(recs, ref):
    """Every request must be answered ok with its reference's cut and
    part_crc: a request that was rejected, crashed, timed out or never
    answered fails the command just as a wrong answer does. Returns
    (mismatch descriptions, number of failed requests)."""
    mismatches = []
    failed = 0
    for r in recs:
        res, want, q = r["res"], ref[ref_key(r["req"])], r["req"]
        if res is None or not res["ok"]:
            failed += 1
            mismatches.append("%s (%s k=%d %s seed %d): not answered ok: %s" % (
                q["id"], q["circuit"], q["k"], q["engine"], q["seed"],
                res["status"] if res else "no result line"))
        elif want["error"] or res["cut"] != want["cut"] or res["part_crc"] != want["part_crc"]:
            failed += 1
            mismatches.append("%s (%s k=%d %s seed %d%s): served cut %s crc %s, reference cut "
                              "%s crc %s %s" % (q["id"], q["circuit"], q["k"], q["engine"],
                                                q["seed"], ", cached" if res["cached"] else "",
                                                res["cut"], res["part_crc"], want["cut"],
                                                want["part_crc"], want["error"]))
    return mismatches, failed


def serve_workload(bench):
    a = bench.args
    bench.driver("gen", "--dir", bench.run_dir, "--scale", a.scale, *SERVE_CIRCUITS)
    paths = {c: os.path.join(bench.run_dir, c + ".hgr") for c in SERVE_CIRCUITS}
    rng = random.Random("serve-small/%d" % a.seed)
    phase1 = make_requests(rng, "c", 20000, paths)
    phase2 = make_requests(rng, "o", 20000, paths)

    # Set-up: spawn until the socket accepts, on an empty state dir. Each
    # spawn gets its own socket and state dir; the last one serves the load.
    servers = []
    for n in range(SETUP_SPAWNS):
        s = Server(bench, "serve%d" % n)
        servers.append(s)
        if n + 1 < SETUP_SPAWNS:
            s.stop()
    server = servers[-1]
    spawns = [s.setup_s * 1e3 for s in servers]
    setup_s = median(spawns) / 1e3
    log("serve: set-up over n=%d spawns: median %.2f ms, quartiles %.2f / %.2f ms, min %.2f ms"
        % (len(spawns), median(spawns), pct(spawns, 0.25), pct(spawns, 0.75), min(spawns)))

    gen = LoadGen(server, a.trace)
    p1_seconds = a.seconds * PHASE1_SHARE
    t_start = time.monotonic()
    p1_ids, p1_t0 = gen.closed_loop(phase1, p1_seconds, CUT_AVG_BLOCKS * BLOCK)
    p2_seconds = a.seconds - p1_seconds
    p2_ids = gen.open_loop(phase2, OPEN_RATE, p2_seconds, rng)
    measure_s = time.monotonic() - t_start
    status = server.status()
    rss_mb = server.peak_rss_mb()
    server.stop()

    # Reference runs: every distinct request, in process.
    recs = [gen.rec[i] for i in p1_ids + p2_ids]
    distinct = {}
    for r in recs:
        distinct.setdefault(ref_key(r["req"]), r["req"])
    keys = list(distinct)
    req_file = os.path.join(bench.run_dir, "requests.txt")
    with open(req_file, "w") as f:
        for n, k in enumerate(keys):
            q = distinct[k]
            f.write("r%d %s %d %s %d %d\n" % (n, q["instance"], q["k"], q["engine"], q["runs"],
                                              q["seed"]))
    argv = ["ref", "--requests", req_file, "--threads", REF_THREADS]
    if a.trace:
        argv += ["--trace", 1]
    ref_out = bench.driver_json("ref", *argv)
    refs = ref_out["results"]
    ref = {k: refs[n] for n, k in enumerate(keys)}
    if a.perturb_reference:
        ref[keys[0]]["cut"] += 1

    mismatches, failed = check_served(recs, ref)
    attempted = len(recs)

    # Each phase is cut into WINDOWS equal windows; throughput and
    # percentiles come from the windows the hypervisor left undisturbed.
    def window_steal(t0, seconds):
        step = seconds / WINDOWS
        return [gen.steal_rate(t0 + i * step, t0 + (i + 1) * step) for i in range(WINDOWS)]

    p1_ok = [r for r in (gen.rec[i] for i in p1_ids) if r["res"] and r["res"]["ok"]]
    p1_windows = by_window(p1_ok, "done", p1_t0, p1_seconds)
    p1_kept = undisturbed(p1_windows, window_steal(p1_t0, p1_seconds))
    jobs_per_s = sum(len(w) for w in p1_kept) / (len(p1_kept) * p1_seconds / WINDOWS)
    p2 = [gen.rec[i] for i in p2_ids]

    def latency(r):
        return (r["done"] - r["due"]) * 1e3 if r["res"] and r["res"]["ok"] else float("inf")

    p2_steal = window_steal(gen.open_t0, p2_seconds)
    p2_windows = [[latency(r) for r in w] for w in by_window(p2, "due", gen.open_t0, p2_seconds)]
    lat = [x for w in undisturbed(p2_windows, p2_steal) for x in w]
    all_lat = [latency(r) for r in p2]
    lag = [(r["sent"] - r["due"]) * 1e3 for r in p2]
    lag_p90 = pct(lag, 0.9)
    if lag_p90 > LAG_VOID_MS:
        fail("load generator lagged %.1f ms at p90 behind its schedule: run void" % lag_p90)
    fixed = [gen.rec[i] for i in p1_ids
             if gen.rec[i]["req"]["block"] < CUT_AVG_BLOCKS and gen.rec[i]["req"]["kind"] == "k2"]
    cuts = [r["res"]["cut"] for r in fixed if r["res"] and r["res"]["ok"]]
    counts = {"cuts": [(r["req"]["id"], r["res"]["cut"] if r["res"] else None,
                        r["res"]["part_crc"] if r["res"] else None) for r in fixed],
              "cached": [r["req"]["id"] for r in recs[:len(p1_ids)]
                         if r["res"] and r["res"]["cached"]
                         and r["req"]["block"] < CUT_AVG_BLOCKS]}
    log("serve: phase 1 %d jobs closed-loop (%d clients) in %.1f s, %d of %d windows kept "
        "(all: %.1f jobs/s); phase 2 %d jobs open-loop at %.1f/s, latency over n=%d jobs in "
        "%d of %d windows kept (all: p50 %.1f ms, p90 %.1f ms); window steal %s CPU; cut_avg "
        "over %d k=2 jobs; %d reference runs" % (
            len(p1_ids), SERVE_CLIENTS, p1_seconds, len(p1_kept), WINDOWS,
            len(p1_ok) / p1_seconds, len(p2_ids), OPEN_RATE, len(lat),
            len(undisturbed(p2_windows, p2_steal)), WINDOWS, median(all_lat), pct(all_lat, 0.9),
            [round(x, 2) for x in p2_steal], len(cuts), len(keys)))

    p2_computed = [r for r in p2 if r["res"] and r["res"]["ok"] and not r["res"]["cached"]]
    log("serve: phase 2 computed jobs n=%d: exec p50 %.1f ms, queue p50 %.2f ms, other p50 "
        "%.2f ms (front end, framing, journal, cache, emit)" % (
            len(p2_computed), median([r["res"]["seconds"] * 1e3 for r in p2_computed]),
            median([r["res"]["queue_seconds"] * 1e3 for r in p2_computed]),
            median([(r["done"] - r["sent"] - r["res"]["queue_seconds"] - r["res"]["seconds"])
                    * 1e3 for r in p2_computed])))

    if not a.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "latency_ms_p50": (median(lat), "ms"),
            "latency_ms_p90": (pct(lat, 0.9), "ms"),
            "jobs_per_s": (jobs_per_s, "jobs/s"),
            "cut_avg": (statistics.fmean(cuts) if cuts else float("nan"), "nets"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "fraction"),
        }
        return metrics, mismatches, attempted, failed, counts

    # Per-layer attribution from result lines, status and reference runs.
    ok = [r for r in recs if r["res"] and r["res"]["ok"]]
    computed = [r for r in ok if not r["res"]["cached"]]
    inproc = {k: ref[k]["load_s"] + ref[k]["run_s"] for k in keys}
    auto = [r for r in computed if r["req"]["engine"] == "auto"]
    lanes = [l for r in auto for l in r["res"]["engine_report"]["lanes"]
             if l["outcome"] != "skipped"]
    rows = []
    for r in p2_computed:
        due, sent, done = (int(r[x] * 1e6) for x in ("due", "sent", "done"))
        res = r["res"]
        q_us, x_us = int(res["queue_seconds"] * 1e6), int(res["seconds"] * 1e6)
        rid = len(rows) + 1
        rows.append(["serve.request", due, done, rid, 0, r["req"]["id"], 1])
        rows.append(["loadgen.lag", due, sent, rid + 1, rid, r["req"]["id"], 1])
        rows.append(["serve.queue", sent, sent + q_us, rid + 2, rid, r["req"]["id"], 1])
        rows.append(["serve.exec", sent + q_us, sent + q_us + x_us, rid + 3, rid, r["req"]["id"], 1])
    rows += driver_spans(ref_out, len(rows) + 1)
    metrics = layer_defaults()
    refs_of = lambda pred: [ref[k] for k in keys if pred(distinct[k])]
    metrics.update({
        "hypergraph.load_s": (median([x["load_s"] for x in refs]), "s"),
        "hypergraph.mb_per_s": (median([os.path.getsize(distinct[k]["instance"]) / 1e6 /
                                        ref[k]["load_s"] for k in keys]), "MB/s"),
        "kway.inproc_ms_p50": (median([x["run_s"] * 1e3 for x in refs_of(lambda q: q["k"] == 4)]),
                               "ms"),
        "portfolio.inproc_ms_p50": (median([x["run_s"] * 1e3 for x in
                                            refs_of(lambda q: q["engine"] == "auto")]), "ms"),
        "portfolio.lane_s_sum_p50": (median([sum(l["seconds"] for l in
                                                 r["res"]["engine_report"]["lanes"])
                                             for r in auto]), "s"),
        "portfolio.lanes_verified_ratio": (sum(1 for l in lanes if l["verified"]) / len(lanes)
                                           if lanes else 1.0, "fraction"),
        "portfolio.fallbacks": (sum(1 for r in auto if r["res"]["fallback"]), "count"),
        "serve.queue_ms_p50": (median([r["res"]["queue_seconds"] * 1e3 for r in p2_computed]),
                               "ms"),
        "serve.queue_ms_p90": (pct([r["res"]["queue_seconds"] * 1e3 for r in p2_computed], 0.9),
                               "ms"),
        "serve.exec_ms_p50": (median([r["res"]["seconds"] * 1e3 for r in p2_computed]), "ms"),
        "serve.exec_over_inproc": (median([r["res"]["seconds"] / inproc[ref_key(r["req"])]
                                           for r in computed]), "ratio"),
        "serve.overhead_ms_p50": (median([(r["done"] - r["sent"] - r["res"]["queue_seconds"]
                                           - r["res"]["seconds"]) * 1e3 for r in p2_computed]),
                                  "ms"),
        "serve.cache_hit_ratio": (sum(1 for r in ok if r["res"]["cached"]) / len(ok), "fraction"),
        "serve.journal_bytes_per_job": (gen.journal_growth / len(ok), "bytes"),
        "serve.journal_compactions": (status["journal_compactions"], "count"),
        "serve.attempts_per_job": (statistics.fmean(r["res"]["attempts"] for r in computed),
                                   "count"),
        "serve.crashes": (sum(r["res"]["crashes"] for r in recs if r["res"]), "count"),
        "serve.rejected": (status["rejected"], "count"),
        "serve.shed": (status["shed"], "count"),
        "loadgen.lag_ms_p90": (lag_p90, "ms"),
        "trace.overhead_frac": (gen.trace_cost / measure_s, "fraction"),
        "trace.unattributed_frac": (unattributed_frac(rows), "fraction"),
    })
    log("serve: cache_hit_ratio base = %d answered ok; exec/overhead over n=%d computed phase-2 "
        "jobs; %d portfolio jobs" % (len(ok), len(p2_computed), len(auto)))
    write_trace(bench, rows)
    return metrics, mismatches, attempted, failed, counts


# Per-layer metrics of layers a workload does not run read 0 there (for
# example serve.* on the ML workloads); README.md lists which apply where.
LAYER_UNITS = {
    "hypergraph.load_s": "s", "hypergraph.mb_per_s": "MB/s",
    "coarsen.s": "s", "coarsen.match_s": "s", "coarsen.induce_s": "s", "coarsen.levels": "count",
    "coarsen.chain_gap_frac": "fraction",
    "core.initial_s": "s", "core.other_s": "s",
    "refine.s": "s", "refine.build_s": "s", "refine.select_s": "s", "refine.apply_s": "s",
    "refine.undo_s": "s", "refine.unprofiled_s": "s", "refine.passes": "count",
    "refine.moves": "count", "refine.rollbacks": "count", "refine.kept_ratio": "fraction",
    "kway.inproc_ms_p50": "ms",
    "portfolio.inproc_ms_p50": "ms", "portfolio.lane_s_sum_p50": "s",
    "portfolio.lanes_verified_ratio": "fraction", "portfolio.fallbacks": "count",
    "serve.queue_ms_p50": "ms", "serve.queue_ms_p90": "ms", "serve.exec_ms_p50": "ms",
    "serve.exec_over_inproc": "ratio", "serve.overhead_ms_p50": "ms",
    "serve.cache_hit_ratio": "fraction", "serve.journal_bytes_per_job": "bytes",
    "serve.journal_compactions": "count", "serve.attempts_per_job": "count",
    "serve.crashes": "count", "serve.rejected": "count", "serve.shed": "count",
    "loadgen.lag_ms_p90": "ms",
    "trace.overhead_frac": "fraction", "trace.unattributed_frac": "fraction",
}


def layer_defaults():
    return {name: (0, unit) for name, unit in LAYER_UNITS.items()}


# ---- entry points -------------------------------------------------------------

def run_once(args):
    bench = Bench(args)
    ticks0 = cpu_ticks()
    try:
        env = bench.driver_json("env", "env")
        env["nproc_os"] = os.cpu_count()
        log("env: " + json.dumps(env, sort_keys=True))
        if args.workload == "serve-small":
            out = serve_workload(bench)
        else:
            out = ml_workload(bench, PAR_THREADS if args.workload == "ml-golem3-par" else 0)
    finally:
        bench.stop()
    ticks1 = cpu_ticks()
    # CPU time the hypervisor withheld: a run measured while it is high ran
    # on a disturbed machine.
    env["steal_frac"] = (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])
    log("env: hypervisor steal %.2f%% of CPU time during the run" % (100 * env["steal_frac"]))
    metrics, mismatches, attempted, failed, counts = out
    for m in mismatches:
        log("MISMATCH: " + m)
    # A failed run keeps its inputs, server logs and driver outputs.
    if mismatches or failed:
        log("run directory kept: " + bench.run_dir)
    else:
        shutil.rmtree(bench.run_dir, ignore_errors=True)
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, scale=args.scale, env=env, counts=counts)
    with open(os.path.join(bench.out_dir, bench.tag + ".result.json"), "w") as f:
        json.dump(record, f, indent=1, default=str)
    for k, (v, u) in metrics.items():
        log("  %-32s %14.6g %s" % (k, v, u))
    print(json.dumps(result, allow_nan=False))
    return 0 if not mismatches else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="synthetic-instance scale in (0, 1]; below 1 only for smoke runs")
    p.add_argument("--expect-cut", type=int, default=None,
                   help="ML: reference cut start 0 must reach (mlpart_bench gives 424 for "
                        "golem3 seed 1)")
    p.add_argument("--perturb-reference", action="store_true",
                   help="serve: deliberately corrupt one reference cut (self-test)")
    p.add_argument("--selftest", action="store_true",
                   help="smoke-run every workload and check the benchmark itself")
    args = p.parse_args()
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        p.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
