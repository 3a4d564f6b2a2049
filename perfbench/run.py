#!/usr/bin/env python3
"""Pinpoint benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

  python3 perfbench/run.py --workload {scale,table1,serve-edits} \\
      --seed N --seconds S --trace {0,1}
  python3 perfbench/run.py --steady [--workload W] [--runs N] [--seconds S]
  python3 perfbench/run.py --smoke

A run builds the worker (perfbench/pb.exe) and the pinpoint CLI with dune,
generates the workload's inputs from the seed, measures for --seconds
seconds, checks the outputs and prints, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics: every end-to-end metric of BENCHMARK.json with --trace 0, every
per-layer metric with --trace 1.  The line before it is the run's
fingerprint.  See README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from statistics import mean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
PB = os.path.join(ROOT, "_build", "default", "perfbench", "pb.exe")
PINPOINT = os.path.join(ROOT, "_build", "default", "bin", "pinpoint_cli.exe")

# BENCHMARK.json lists scale and serve-edits; table1 (the paper's
# evaluation set) runs by hand and in --smoke (see README.md).
WORKLOADS = ["scale", "table1", "serve-edits"]
# scale and serve-edits: subject size in MLoC; table1: number of Table-1
# subjects (0 = all 30).  "tiny" is the smoke test's size.
SIZES = {
    "full": {"scale": 0.1, "table1": 0, "serve-edits": 0.025},
    "tiny": {"scale": 0.004, "table1": 3, "serve-edits": 0.004},
}
# Untraced legs run at jobs 1: on a 2-vCPU shared host a jobs-2 leg was
# slower than a jobs-1 leg and its timings swung with the neighbours' load
# on either vCPU.  The traced run of scale adds one jobs-PAR_JOBS leg for
# the par.* metrics.
JOBS = {"scale": 1, "table1": 1}
PAR_JOBS = 2
MIN_LEGS = 2  # untraced legs per batch run, so setup_s is a median
# serve-edits runs several identical sessions (spawn, status, the seeded
# request lines, shutdown) and reports medians over them; the percentiles
# pool every request of the run, at least MIN_SESSIONS * SESSION_REQUESTS
# = 120, so p90 has >= 10 samples beyond it.
SESSION_REQUESTS = 40
MIN_SESSIONS = 3
SETUP_PROBES = 4  # extra server spawns per serve run, for setup_s
RECHECK_EVERY = 5  # every fifth request re-checks without files
# After acknowledging shutdown the server should exit by itself; the
# client waits this long with stdin open, then closes stdin and waits as
# long again for the exit.
SHUTDOWN_GRACE_S = 0.5
REQUEST_TIMEOUT_S = 60.0
# Generator seeds of the fixed subjects.  The seed of a run varies the
# table1 subjects and the serve-edits edit stream only: on one 0.1 MLoC
# subject the few planted bugs swing single checkers' times by a quarter
# between seeds, which would swamp what scale measures.
SUBJECT_SEED = {"scale": 1, "serve-edits": 1}


class GateError(Exception):
    """A correctness check failed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_pb(args, timeout=170):
    r = subprocess.run(
        [PB] + [str(a) for a in args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if r.returncode != 0:
        raise RuntimeError("pb %s failed (%d): %s" % (args[0], r.returncode, r.stderr[-2000:]))
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log("not a pinpoint checkout: %s is missing" % need)
            sys.exit(2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/pb.exe", "./bin/pinpoint_cli.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        timeout=850,
    )
    if r.returncode != 0:
        log("build failed")
        sys.exit(2)


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def manifest(work):
    """(name, number) rows of a generated input directory; the serve
    workload's total LoC is the row named "#loc"."""
    rows = []
    with open(os.path.join(work, "manifest")) as f:
        for line in f:
            name, n = line.rstrip("\n").split("\t")
            rows.append((name, int(n)))
    return rows


def check_legs_agree(legs):
    """Every leg of a run must report the same findings and score."""
    keys = ("digest", "sites", "real", "found", "false_pos", "trap_hits")
    ref = tuple(legs[0][k] for k in keys)
    for leg in legs[1:]:
        got = tuple(leg[k] for k in keys)
        if got != ref:
            raise GateError("report sets differ between legs: %s vs %s" % (ref, got))


def check_truth(score):
    """The planted-truth score: every real bug found, no path trap reported."""
    if score["found"] != score["real"]:
        raise GateError("recall below 1: %d of %d planted bugs found" % (score["found"], score["real"]))
    if score["trap_hits"] != 0:
        raise GateError("%d planted path-sensitivity traps reported" % score["trap_hits"])


def quality(score):
    tp = score["sites"] - score["false_pos"]
    return {
        "recall": score["found"] / score["real"] if score["real"] else 1.0,
        "precision": tp / score["sites"] if score["sites"] else 1.0,
    }


# ----------------------------------------------------------------------
# Batch workloads: scale, table1


def run_batch(workload, a, work):
    run_pb(["gen", workload, SUBJECT_SEED.get(workload, a.seed), SIZES[a.size][workload], work])
    trace_out = os.path.join(work, "trace.json")
    base = ["batch", work, "--jobs", JOBS[workload]]
    untraced, traced, spent = [], [], []
    deadline = time.monotonic() + a.seconds
    while True:
        t0 = time.monotonic()
        if a.trace and len(traced) < len(untraced):
            traced.append(run_pb(base + ["--traced", "--trace-out", trace_out]))
        else:
            drop = ["--drop-report"] if a.drop_report and not untraced else []
            untraced.append(run_pb(base + drop))
        spent.append(time.monotonic() - t0)
        enough = len(untraced) >= MIN_LEGS and (not a.trace or len(traced) >= 1)
        if enough and time.monotonic() + median(spent) > deadline:
            break
    par = None
    if a.trace and workload == "scale":
        par = run_pb(["batch", work, "--jobs", PAR_JOBS, "--traced", "--trace-out", os.path.join(work, "trace_par.json")])
    legs = untraced + traced + ([par] if par else [])
    check_legs_agree(legs)
    check_truth(untraced[0])
    attempted = sum(len(leg["ops_ms"]) for leg in untraced)
    failed = sum(leg["ops_failed"] for leg in untraced)
    ops_ms = [x for leg in untraced for x in leg["ops_ms"]]

    # wall_s, check_s and req_per_s are means over a run's legs (sessions
    # in serve-edits).  A shared host's speed switches between regimes some
    # 20% apart that last tens of seconds: a run's median lands in one or
    # the other, its mean moves with the share of time spent in each.  On
    # ten scale runs the spread of wall_s was 0.073 with the mean and 0.125
    # with the median of the same legs.  setup_s stays a median.
    def over_legs(f, avg=mean):
        return avg([f(leg) for leg in untraced])

    e2e = {
        "wall_s": over_legs(lambda leg: leg["wall_s"]),
        "setup_s": over_legs(lambda leg: leg["setup_s"], median),
        "check_s": over_legs(lambda leg: leg["check_s"]),
        "peak_rss_mb": over_legs(lambda leg: leg["peak_rss_mb"], median),
        "ok_ratio": 1.0 - failed / attempted,
        "req_p50_ms": median(ops_ms),
        "req_p90_ms": p90(ops_ms),
        "req_per_s": over_legs(lambda leg: len(leg["ops_ms"]) / (sum(leg["ops_ms"]) / 1000.0)),
    }
    e2e.update(quality(untraced[0]))
    layers = None
    if a.trace:
        layers = median_layers(traced)
        if par:
            for k in ("par.busy_s", "par.tasks", "par.steals"):
                layers[k] = par["layers"][k]
        tw = mean([leg["wall_s"] for leg in traced])
        layers["trace_overhead_pct"] = 100.0 * (tw - e2e["wall_s"]) / e2e["wall_s"]
        add_truth_layers(layers, untraced[0])
        layers["serve.shutdown_s"] = 0.0
    fp = {
        "loc": untraced[0]["loc"],
        "files": untraced[0]["files"],
        "jobs": untraced[0]["jobs"],
        "par_jobs": par["jobs"] if par else None,
        "ocaml": untraced[0]["ocaml"],
        "untraced_legs": len(untraced),
        "traced_legs": len(traced),
        "percentile_samples": len(ops_ms),
        "false_pos": untraced[0]["false_pos"],
        "reports": untraced[0]["sites"],
        "legs": [{k: leg[k] for k in ("wall_s", "setup_s", "check_s", "peak_rss_mb")} for leg in untraced],
        "samples": {"ops_ms": [leg["ops_ms"] for leg in untraced]},
    }
    return e2e, layers, attempted, failed, fp


def median_layers(traced):
    return {k: median([leg["layers"][k] for leg in traced]) for k in traced[0]["layers"]}


def add_truth_layers(layers, score):
    layers["truth.false_pos"] = float(score["false_pos"])
    layers["truth.reports"] = float(score["sites"])


# ----------------------------------------------------------------------
# serve-edits: a closed-loop client of `pinpoint serve` over stdio

FILL_RE = re.compile(r"^int\*? (u\d+_fill_\d+)\(")
EDIT_RE = re.compile(r"^(\s+int v\d+ = \w+ - )(\d+)(;)$")


def edit_sites(files):
    """One editable line per filler function: its first `int v = a - k;`.
    Bumping k changes the body and keeps the program's structure and
    every line number."""
    sites = []
    for name, lines in files.items():
        current = None
        for i, line in enumerate(lines):
            m = FILL_RE.match(line)
            if m:
                current = m.group(1)
            elif line.startswith("}"):
                current = None
            elif current and EDIT_RE.match(line):
                sites.append((name, i))
                current = None
    return sorted(sites)


def edit_stream(seed, files, n):
    """The seeded request lines of one session, and the file contents
    after them.  Four in five requests change one filler function body;
    every fifth re-checks without files.  Edits visit the files in a
    seeded order, round robin, so every run spreads its edits evenly over
    the units; the function edited in a file is a seeded choice."""
    rng = random.Random(seed)
    files = {name: list(lines) for name, lines in files.items()}
    by_file = {}
    for name, i in edit_sites(files):
        by_file.setdefault(name, []).append(i)
    order = sorted(by_file)
    rng.shuffle(order)
    lines, edits = [], 0
    for k in range(1, n + 1):
        req = {"id": k, "op": "check"}
        if k % RECHECK_EVERY != 0:
            name = order[edits % len(order)]
            edits += 1
            i = rng.choice(by_file[name])
            body = files[name]
            m = EDIT_RE.match(body[i])
            body[i] = m.group(1) + str(int(m.group(2)) + 1) + m.group(3)
            req["files"] = [{"name": name, "contents": "\n".join(body)}]
        lines.append(json.dumps(req, separators=(",", ":")))
    return lines, files


class Server:
    """`pinpoint serve` over stdio with a non-blocking line reader, so
    that no read can hang the harness."""

    def __init__(self, work, names):
        self.err = open(os.path.join(work, "serve.stderr"), "ab")
        self.proc = subprocess.Popen(
            [PINPOINT, "serve"] + names,
            cwd=os.path.join(work, "init"),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.err,
            bufsize=0,
        )
        self.buf = b""

    def send(self, line):
        data = line.encode() + b"\n"
        while data:
            n = os.write(self.proc.stdin.fileno(), data)
            data = data[n:]

    def recv(self, timeout=REQUEST_TIMEOUT_S):
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("no response within %.0f s" % timeout)
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise EOFError("server closed its output")
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def close(self):
        """Close stdin (EOF ends the server) and reap it; kill on timeout."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()

    def shutdown(self):
        """Send shutdown and return (ok, exited_on_its_own, seconds from
        the acknowledgement until the process is reaped).  The client keeps
        stdin open for SHUTDOWN_GRACE_S, then closes it; ok means
        acknowledged and exited within SHUTDOWN_GRACE_S of that.  The
        server is reaped either way (killed if it does not exit)."""
        acked = own = exited = False
        t_ack = time.monotonic()
        try:
            self.send('{"op":"shutdown"}')
            ack = self.recv(10)
            t_ack = time.monotonic()
            acked = ack.get("ok") is True and ack.get("shutdown") is True
            try:
                self.proc.wait(timeout=SHUTDOWN_GRACE_S)
                own = True
            except subprocess.TimeoutExpired:
                self.proc.stdin.close()
            self.proc.wait(timeout=SHUTDOWN_GRACE_S)
            exited = True
        except (OSError, TimeoutError, EOFError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            self.close()
        return acked and exited, own, time.monotonic() - t_ack


def spawn_until_ready(work, names):
    """Spawn the server and time it to its first response (a status op)."""
    t0 = time.monotonic()
    srv = Server(work, names)
    try:
        srv.send('{"op":"status"}')
        resp = srv.recv()
    except BaseException:
        srv.close()
        raise
    ready = time.monotonic() - t0
    return srv, ready, resp.get("ok") is True


def response_failed(resp):
    if resp.get("ok") is not True or resp.get("overloaded"):
        return True
    if resp.get("incidents", {}).get("new", 0) > 0:
        return True
    for c in resp.get("checkers", []):
        s = c.get("stats", {})
        if s.get("rung_halved", 0) + s.get("rung_linear", 0) + s.get("rung_gave_up", 0) > 0:
            return True
        if any(r.get("degraded") for r in c.get("reports", [])):
            return True
    return False


def renders_digest(renders):
    return hashlib.md5("\n".join(sorted(renders)).encode()).hexdigest()


def serve_session(work, names, lines):
    """One session: spawn, a status op, the request lines, shutdown."""
    t_spawn = time.monotonic()
    srv = Server(work, names)
    s = {"lat": [], "attempted": 0, "failed": 0}
    try:
        srv.send('{"op":"status"}')
        resp = srv.recv()
        s["setup"] = time.monotonic() - t_spawn
        s["attempted"] += 1
        s["failed"] += 0 if resp.get("ok") is True else 1
        server_s = 0.0
        for line in lines:
            t0 = time.monotonic()
            srv.send(line)
            resp = srv.recv()
            s["lat"].append((time.monotonic() - t0) * 1000.0)
            server_s += resp.get("latency_s", 0.0)
            s["attempted"] += 1
            s["failed"] += 1 if response_failed(resp) else 0
        s["wall"] = time.monotonic() - t_spawn
        s["check"] = server_s
        s["rss"] = srv.peak_rss_mb()
        s["last"] = resp
    except BaseException:
        srv.close()
        raise
    ok, s["exit_on_shutdown"], s["shutdown_s"] = srv.shutdown()
    s["attempted"] += 1
    s["failed"] += 0 if ok else 1
    return s


def run_serve(a, work):
    run_pb(["gen", "serve-edits", SUBJECT_SEED["serve-edits"], SIZES[a.size]["serve-edits"], work])
    names = [n for n, _ in manifest(work) if not n.startswith("#")]
    files = {}
    for n in names:
        with open(os.path.join(work, "init", n)) as f:
            files[n] = f.read().split("\n")
    lines, final_files = edit_stream(a.seed, files, SESSION_REQUESTS)
    attempted = failed = 0
    setups = []
    deadline = time.monotonic() + a.seconds
    for _ in range(SETUP_PROBES):
        srv, ready, ok = spawn_until_ready(work, names)
        srv.close()
        setups.append(ready)
        attempted += 1
        failed += 0 if ok else 1
    sessions, spent = [], []
    while len(sessions) < MIN_SESSIONS or time.monotonic() + median(spent) <= deadline:
        t0 = time.monotonic()
        s = serve_session(work, names, lines)
        spent.append(time.monotonic() - t0)
        sessions.append(s)
        setups.append(s["setup"])
        attempted += s["attempted"]
        failed += s["failed"]

    # Gate: every session's final response equals an in-process batch
    # check over the same file contents.
    final_dir = os.path.join(work, "final")
    os.makedirs(final_dir)
    for n in names:
        with open(os.path.join(final_dir, n), "w") as f:
            f.write("\n".join(final_files[n]))
    batch = run_pb(["serve-batch", work, final_dir] + (["--drop-report"] if a.drop_report else []))
    for s in sessions:
        served = [r["render"] for c in s["last"].get("checkers", []) for r in c["reports"]]
        if renders_digest(served) != batch["digest"]:
            raise GateError("final server responses differ from batch check_all")
    check_truth(batch)
    lat = [x for s in sessions for x in s["lat"]]

    def over_sessions(f, avg=mean):
        return avg([f(s) for s in sessions])

    e2e = {
        "wall_s": over_sessions(lambda s: s["wall"]),
        "setup_s": median(setups),
        "check_s": over_sessions(lambda s: s["check"]),
        "peak_rss_mb": over_sessions(lambda s: s["rss"], median),
        "ok_ratio": 1.0 - failed / attempted,
        "req_p50_ms": median(lat),
        "req_p90_ms": p90(lat),
        "req_per_s": over_sessions(lambda s: len(s["lat"]) / (sum(s["lat"]) / 1000.0)),
    }
    e2e.update(quality(batch))
    layers = None
    if a.trace:
        requests = os.path.join(work, "requests.jsonl")
        with open(requests, "w") as f:
            f.write("\n".join(lines) + "\n")
        traced = run_pb(["serve-trace", work, requests, os.path.join(work, "trace.json")])
        if traced["digest"] != batch["digest"]:
            raise GateError("traced replay's final reports differ from the server's")
        layers = dict(traced["layers"])
        layers["trace_overhead_pct"] = 100.0 * (median(traced["req_ms"]) - median(lat)) / median(lat)
        add_truth_layers(layers, batch)
        layers["serve.shutdown_s"] = over_sessions(lambda s: s["shutdown_s"], median)
    fp = {
        "loc": dict(manifest(work))["#loc"],
        "files": len(names),
        "jobs": 1,
        "ocaml": batch["ocaml"],
        "sessions": len(sessions),
        "requests": len(lat),
        "setup_samples": len(setups),
        "percentile_samples": len(lat),
        "false_pos": batch["false_pos"],
        "reports": batch["sites"],
        "exits_on_shutdown": sum(1 for s in sessions if s["exit_on_shutdown"]),
        "setups": setups,
        "session_walls": [s["wall"] for s in sessions],
        "samples": {"lat_ms": [s["lat"] for s in sessions], "check_s": [s["check"] for s in sessions]},
    }
    return e2e, layers, attempted, failed, fp


# ----------------------------------------------------------------------


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_commit():
    try:
        r = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(a):
    spec = load_spec()
    build()
    work = os.path.join(OUT, a.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    correct, attempted, failed = True, 1, 1
    e2e, layers, fp = {}, {}, {}
    try:
        if a.workload == "serve-edits":
            e2e, layers, attempted, failed, fp = run_serve(a, work)
        else:
            e2e, layers, attempted, failed, fp = run_batch(a.workload, a, work)
    except GateError as e:
        log("CORRECTNESS GATE FAILED: %s" % e)
        correct = False
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    values = layers if a.trace else e2e
    metrics = {}
    if correct:
        for m in wanted:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    fp.update(
        {
            "workload": a.workload,
            "seed": a.seed,
            "seconds": a.seconds,
            "trace": a.trace,
            "nproc": os.cpu_count(),
            "ocamlrunparam": os.environ.get("OCAMLRUNPARAM", ""),
            "commit": git_commit(),
        }
    )
    samples = fp.pop("samples", None)
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"fingerprint": fp, "end_to_end": e2e, "per_layer": layers, "samples": samples}, f, indent=1)
    print(json.dumps({"fingerprint": fp}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Steadiness report and smoke test


def self_run(args, timeout=600):
    p = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)] + [str(x) for x in args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = p.communicate(timeout=timeout)
    except BaseException:
        # SIGTERM, not SIGKILL: the run cleans up its own children.
        p.terminate()
        p.communicate()
        raise
    lines = out.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), err


def steady(a):
    """Repeat a workload over seeds 1..N and report each end-to-end
    metric's median and quartiles; flag spreads above the bound."""
    spec = load_spec()
    workloads = [a.workload] if a.workload else [w["name"] for w in spec["workloads"]]
    seconds = a.seconds or spec["run_seconds"]
    flagged = 0
    os.makedirs(os.path.join(OUT, "steady"), exist_ok=True)
    for w in workloads:
        runs = []
        for seed in range(1, a.runs + 1):
            code, res, err = self_run(["--workload", w, "--seed", seed, "--seconds", seconds, "--trace", 0])
            result = os.path.join(OUT, w, "result.json")
            if os.path.exists(result):
                shutil.copy(result, os.path.join(OUT, "steady", "%s.%d.json" % (w, seed)))
            if code != 0 or not res or not res["correct"]:
                print("%s seed %d: FAILED\n%s" % (w, seed, err[-2000:]))
                flagged += 1
                continue
            runs.append(res["metrics"])
        if len(runs) < 2:
            continue
        print("== %s: %d runs, %d s each" % (w, len(runs), seconds))
        print("%-14s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            xs = [r[m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag = "OVER BOUND"
                flagged += 1
            elif spread > m["bound"] / 3:
                flag = "over 1/3 bound"
            print("%-14s %12.5g %12.5g %12.5g %8.4f %6.2f %s" % (m["name"], med, q1, q3, spread, m["bound"], flag))
            print("    runs: " + " ".join("%.5g" % x for x in xs))
    return 1 if flagged else 0


def smoke(a):
    """Each workload at a tiny size: every metric printed with its unit,
    and the gate rejects a deliberately altered report set."""
    spec = load_spec()
    problems = []
    for w in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, res, err = self_run(["--workload", w, "--seed", 1, "--seconds", 1, "--trace", trace, "--size", "tiny"])
            if code != 0 or not res or not res["correct"]:
                problems.append("%s trace %d failed: %s" % (w, trace, err[-1500:]))
                continue
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append("%s trace %d: metric names/units differ: %s" % (w, trace, sorted(set(got.items()) ^ set(want.items()))))
            if not (isinstance(res["attempted"], int) and res["attempted"] >= 1 and isinstance(res["failed"], int)):
                problems.append("%s: bad attempted/failed" % w)
        code, res, _ = self_run(["--workload", w, "--seed", 1, "--seconds", 1, "--trace", 1, "--size", "tiny", "--drop-report"])
        if code == 0 or not res or res["correct"]:
            problems.append("%s: the gate accepted an altered report set" % w)
    for p in problems:
        print("SMOKE FAILURE: " + p)
    print("smoke: %s" % ("ok" if not problems else "%d failure(s)" % len(problems)))
    return 1 if problems else 0


def main():
    # SIGTERM unwinds like an exception, so that every child process is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full", help=argparse.SUPPRESS)
    p.add_argument("--drop-report", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--steady", action="store_true", help="steadiness report over seeds 1..--runs")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--smoke", action="store_true", help="the benchmark's own smoke test")
    a = p.parse_args()
    if a.smoke:
        return smoke(a)
    if a.steady:
        return steady(a)
    if not a.workload:
        p.error("--workload is required")
    if a.seconds <= 0:
        a.seconds = load_spec()["run_seconds"]
    return run_once(a)


if __name__ == "__main__":
    sys.exit(main())
