#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper-quick|cycle-loop|service-sweep
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. It builds the `perfbench` helper and
the `experiments` binary (release, offline), runs one workload as a
closed loop for about `--seconds`, checks every output against the
oracle, prints one line per metric (median, quartiles, n) and, as the
last line of stdout, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics of BENCHMARK.json, `--trace 1` the per-layer metrics of a
separate traced run. Without a buildable program it exits with 2 and
prints no result.
"""

import argparse
import http.client
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spans as sp  # noqa: E402

WORKLOADS = ("paper-quick", "cycle-loop", "service-sweep")
MODELS = ("single-1c", "single-2c-full", "rfc", "replicated", "onelevel")
THREADS = 2  # in-process worker threads; the host is sized for nproc = 2
WORKERS = 2  # `work --jobs 1` processes on the service path
POLL_S = 0.02  # service status poll interval: coarse, so polling steals little CPU
SETUP_REPS = 9  # stand-alone service set-ups per run, so setup_s is a median of many
CAMPAIGN_TIMEOUT_S = 60.0  # a service campaign that has not completed by then has failed
HELPER_TIMEOUT_S = 170  # a run must end within 180 s


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------- processes


class Child:
    """A child process reaped with wait4, so its CPU time and peak RSS are
    its own. With `capture`, stderr is collected line by line."""

    def __init__(self, root, argv, capture=False):
        self.lines = []
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self.code = None
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE if capture else None,
        )
        self.reader = None
        if capture:
            self.reader = threading.Thread(target=self._drain, daemon=True)
            self.reader.start()

    def _drain(self):
        for raw in self.proc.stderr:
            self.lines.append(raw.decode(errors="replace").rstrip("\n"))

    def poll(self):
        """True once the process has exited (reaping it)."""
        if self.code is not None:
            return True
        pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
        if pid == 0:
            return False
        self._reaped(status, ru)
        return True

    def _reaped(self, status, ru):
        self.code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.code
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        if self.reader:
            self.reader.join(timeout=5)

    def wait(self, timeout):
        """Waits up to `timeout` seconds, then kills; returns the exit code."""
        deadline = time.monotonic() + timeout
        while not self.poll():
            if time.monotonic() >= deadline:
                self.proc.kill()
                _, status, ru = os.wait4(self.proc.pid, 0)
                self._reaped(status, ru)
                break
            time.sleep(0.005)
        return self.code

    def line_match(self, pattern, timeout):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in list(self.lines):
                m = re.search(pattern, line)
                if m:
                    return m
            if self.poll():
                return None
            time.sleep(0.0005)
        return None


def build(root):
    """Builds both binaries from source; returns their paths."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "rfcache-bench", "--bin", "experiments"],
    ]
    for cmd in steps:
        try:
            code = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode
        except OSError as e:
            die(f"cannot run cargo: {e}")
        if code != 0:
            die(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release", "perfbench"), os.path.join(target, "release", "experiments")


def helper(root, bins, args):
    """Runs the perfbench helper; returns (its document, the Child)."""
    out = args[args.index("--out") + 1]
    child = Child(root, [bins[0]] + args)
    if child.wait(HELPER_TIMEOUT_S) != 0:
        return None, child
    with open(out) as f:
        return json.load(f), child


# ------------------------------------------------------------- service path


def request(addr, method, path, body=None):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=5)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


class Clock:
    """Python-side spans, on the same Unix-nanosecond clock as the helper's."""

    def __init__(self):
        self.spans = []

    def span(self, name, parent=0):
        s = {"id": len(self.spans) + 1, "parent": parent, "name": name, "run": 0,
             "start": time.time_ns(), "end": None}
        self.spans.append(s)
        return s

    @staticmethod
    def close(s):
        s["end"] = time.time_ns()


def start_service(root, bins, workdir, tag):
    """Spawns `experiments serve` with a fresh journal and waits until
    /healthz answers: the service-sweep set-up. Returns the child, the
    worker and HTTP addresses and the set-up seconds.

    The journal is synced once, at completion, and no `--cache` is given:
    a cache store and a per-record journal sync each wait on the disk
    (about 1.3 ms per store on a shared virtio disk), so with them the
    campaign's wall time follows the neighbours' I/O rather than the
    program. The traced run still times `Cache::store` on its own."""
    journal = os.path.join(workdir, f"journal-{tag}")
    shutil.rmtree(journal, ignore_errors=True)
    t0 = time.perf_counter()
    serve = Child(root, [bins[1], "serve", "--bind", "127.0.0.1:0", "--http", "127.0.0.1:0",
                         "--journal", journal, "--journal-sync", "0", "--max-campaigns", "1"], capture=True)
    m = serve.line_match(r"workers on (\S+), submissions on http://(\S+)/campaigns", 30)
    while m:
        try:
            if request(m.group(2), "GET", "/healthz")[0] == 200:
                return serve, m.group(1), m.group(2), time.perf_counter() - t0
        except OSError:
            pass
        if time.perf_counter() - t0 > 30:
            break
        time.sleep(0.0005)
    serve.wait(0)
    print("\n".join(serve.lines[-5:]), file=sys.stderr)
    die("the service did not start")


def service_campaign(root, bins, sweep, workdir, tag, clock):
    """One campaign on a fresh service (set-up), then: POST the sweep,
    start the workers once it is serving, poll until complete and fetch
    the results (wall). A worker that dies, a failed campaign or the
    timeout ends the campaign without results."""
    top = clock.span("service.campaign")
    setup = clock.span("service.setup", top["id"])
    serve, worker_addr, http_addr, setup_s = start_service(root, bins, workdir, tag)
    clock.close(setup)
    workers = []
    out = {"results": None, "journal": None, "setup_s": setup_s}
    t1 = time.perf_counter()
    try:
        submit = clock.span("service.submit", top["id"])
        code, body = request(http_addr, "POST", "/campaigns",
                             json.dumps({"scenarios": [sweep["name"]], "sweeps": [sweep]}))
        clock.close(submit)
        if code != 201:
            raise RuntimeError(f"POST /campaigns answered {code}: {body.strip()}")
        cid = json.loads(body)["id"]
        complete = clock.span("service.complete", top["id"])
        deadline = time.monotonic() + CAMPAIGN_TIMEOUT_S
        state = None
        while time.monotonic() < deadline:
            code, body = request(http_addr, "GET", f"/campaigns/{cid}")
            state = json.loads(body).get("state") if code == 200 else None
            if state in ("complete", "fetched", "failed"):
                break
            if state == "serving" and not workers:
                # Started only once the campaign serves: a worker that finds
                # nothing to serve backs off for 500 ms before retrying.
                workers = [Child(root, [bins[1], "work", "--connect", worker_addr, "--jobs", "1"], capture=True)
                           for _ in range(WORKERS)]
            if workers and all(w.poll() for w in workers):
                break  # every worker exited before the campaign completed
            time.sleep(POLL_S)
        clock.close(complete)
        if state not in ("complete", "fetched"):
            raise RuntimeError(f"campaign {cid} ended {state or 'unfinished'}")
        fetch = clock.span("service.fetch", top["id"])
        code, body = request(http_addr, "GET", f"/campaigns/{cid}/results")
        clock.close(fetch)
        if code != 200:
            raise RuntimeError(f"GET results answered {code}")
        out["results"] = json.loads(body)
        out["journal"] = os.path.join(workdir, f"journal-{tag}", f"campaign-{cid}.journal")
    except (RuntimeError, OSError, ValueError) as e:
        print(f"perfbench: service campaign {tag}: {e}", file=sys.stderr)
        for child in [serve] + workers:
            print("\n".join(child.lines[-5:]), file=sys.stderr)
    out["wall_s"] = time.perf_counter() - t1
    # A served-and-fetched service exits by itself (--max-campaigns 1), and
    # so do workers told `done`; anything else is killed.
    grace = 10 if out["results"] is not None else 0.2
    processes = [serve] + workers
    for child in processes:
        child.wait(grace)
    clock.close(top)
    out["releases"] = sum(
        int(m.group(1)) for m in (re.search(r"re-queued (\d+) index", line) for line in serve.lines) if m)
    out["cpu_s"] = sum(c.cpu_s for c in processes)
    out["rss_mb"] = max(c.rss_mb for c in processes)
    return out


def service_failures(results, expected, planned):
    """Runs whose fetched row differs from the in-process reference (all of
    them when there is no result or no reference)."""
    if results is None or expected is None:
        return planned
    got = {e.get("name"): e for e in results.get("scenarios", [])}
    failed = 0
    for want in expected:
        rows = want["csv"].splitlines()[1:]
        g = got.get(want["name"])
        if g is None:
            failed += len(rows)
            continue
        have = g.get("csv", "").splitlines()[1:]
        bad = sum(1 for i, row in enumerate(rows) if i >= len(have) or have[i] != row)
        if bad == 0 and (g.get("report") != want["report"] or g.get("json") != want["json"]):
            bad = len(rows)
        failed += bad
    return failed


# --------------------------------------------------------------- workloads


def run_inprocess(root, bins, workload, seed, seconds, trace, workdir):
    out = os.path.join(workdir, "helper.json")
    doc, child = helper(root, bins, [
        workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--oracle", os.path.join(HERE, "oracle.json"), "--dir", os.path.join(workdir, "cache"),
        "--out", out,
    ])
    if doc is None:
        die(f"the {workload} helper exited with {child.code}")
    return {
        "walls": doc["wall_s"],
        "cpus": doc["cpu_s"],
        "setups": doc["setup_s"],
        "rss_mb": child.rss_mb,
        "insts": doc["insts"],
        "sim_cycles": doc["sim_cycles"],
        "attempted": doc["planned"],
        "failed": doc["failed"] + doc.get("traced_failed", 0),
        "jobs": doc["jobs"],
        "campaign_seed": doc["campaign_seed"],
        "docs": [doc],
        "untraced_inprocess_s": doc["wall_s"][0],
        "traced_inprocess_s": doc.get("traced_wall_s"),
    }


def run_service(root, bins, seed, seconds, trace, workdir, sweep=None):
    """The service-sweep workload. The helper defines the sweep for the
    seed (or takes `sweep`, a definition dict) and runs it in process as
    the reference; the campaigns then go through the service."""
    path = os.path.join(workdir, "sweep.json")
    args = ["sweep", "--trace", str(trace), "--out", os.path.join(workdir, "sweep-ref.json")]
    if sweep is None:
        args += ["--seed", str(seed), "--oracle", os.path.join(HERE, "oracle.json")]
    else:
        with open(path, "w") as f:
            json.dump(sweep, f)
        args += ["--sweep", path]
    ref, _ = helper(root, bins, args)
    if ref is None:
        die("the in-process reference of the service sweep could not run")
    sweep = ref["sweep"]
    with open(path, "w") as f:
        json.dump(sweep, f)
    setups = []
    for i in range(SETUP_REPS):
        serve, _, _, setup_s = start_service(root, bins, workdir, f"setup-{i}")
        serve.wait(0)
        setups.append(setup_s)
    clock = Clock()
    campaigns = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        campaigns.append(service_campaign(root, bins, sweep, workdir, len(campaigns), clock))
        took = time.perf_counter() - t
        if trace or time.perf_counter() - start + took > seconds:
            break
    planned = ref["planned"]
    failed = sum(service_failures(c["results"], ref["scenarios"], planned) for c in campaigns)
    docs = [ref]
    if trace and campaigns[-1]["journal"]:
        codec, _ = helper(root, bins, ["codec-cache", "--sweep", path, "--journal", campaigns[-1]["journal"],
                                       "--dir", os.path.join(workdir, "codec-cache"),
                                       "--out", os.path.join(workdir, "codec.json")])
        if codec is not None:
            docs.append(codec)
    walls = [c["wall_s"] for c in campaigns]
    return {
        "walls": walls,
        "cpus": [c["cpu_s"] for c in campaigns],
        "setups": setups + [c["setup_s"] for c in campaigns],
        "rss_mb": max(c["rss_mb"] for c in campaigns),
        "insts": ref["insts"],
        "sim_cycles": ref.get("sim_cycles", 0),
        "attempted": planned * (len(campaigns) + trace),
        "failed": failed + ref.get("traced_failed", 0),
        "jobs": THREADS,
        "campaign_seed": ref["campaign_seed"],
        "docs": docs,
        "clock": clock,
        "releases": sum(c["releases"] for c in campaigns),
        "untraced_inprocess_s": ref["wall_s"],
        "traced_inprocess_s": ref.get("traced_wall_s"),
    }


# ------------------------------------------------------------------ metrics


def end_to_end(r):
    wall = statistics.median(r["walls"])
    return {
        "wall_s": (wall, r["walls"]),
        "insts_per_s": (r["insts"] / wall, [r["insts"] / w for w in r["walls"]]),
        "setup_s": (statistics.median(r["setups"]), r["setups"]),
        "cpu_s": (statistics.median(r["cpus"]), r["cpus"]),
        "peak_rss_mb": (r["rss_mb"], [r["rss_mb"]]),
        "sim_cycles": (r["sim_cycles"], [r["sim_cycles"]]),
        "ok_frac": (1 - r["failed"] / r["attempted"], [1 - r["failed"] / r["attempted"]]),
    }


def percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(r):
    spans, runs, counts = [], [], {}
    for i, doc in enumerate(r["docs"]):
        offset = (i + 1) * 10**9
        spans += sp.from_rows(doc.get("spans", []), offset)
        runs += [dict(x, run=x["run"] + offset) for x in doc.get("runs", [])]
        counts.update(doc.get("layers", {}))
    clock = r.get("clock")
    if clock:
        spans += [s for s in clock.spans if s["end"] is not None]
    selft = sp.self_times(spans)
    loop_by_run = {}
    for s in spans:
        if s["name"] == "pipeline.loop":
            loop_by_run[s["run"]] = loop_by_run.get(s["run"], 0.0) + (s["end"] - s["start"]) / 1e9
    div = lambda a, b: a / b if b else 0.0  # noqa: E731
    out = {
        "workload.gen_s": selft["workload.gen"],
        "workload.gen_insts_per_s": div(sum(x["gen_insts"] for x in runs), selft["workload.gen"]),
        "workload.trace_read_s": selft["workload.trace_read"],
        "pipeline.new_s": selft["pipeline.new"],
        "pipeline.loop_s": selft["pipeline.loop"],
        "pipeline.cycles_per_s": div(sum(x["cycles"] for x in runs), selft["pipeline.loop"]),
        "scenario.plan_s": selft["scenario.plan"],
        "scenario.assemble_s": selft["scenario.assemble"],
        "scenario.render_s": selft["scenario.render"],
        "sweep.parse_s": selft["sweep.parse"],
        "codec.encode_s": selft["codec.encode"],
        "codec.decode_s": selft["codec.decode"],
        "cache.store_s": selft["cache.store"],
        "cache.lookup_s": selft["cache.lookup"],
    }
    for model in MODELS:
        mine = [x for x in runs if x["model"] == model]
        out[f"pipeline.{model}.cycles_per_s"] = div(
            sum(x["cycles"] for x in mine), sum(loop_by_run.get(x["run"], 0.0) for x in mine))
    run_s = sp.durations(spans, "executor.run")
    out["executor.run_s.p50"] = percentile(run_s, 50)
    out["executor.run_s.p90"] = percentile(run_s, 90)
    out["executor.busy_frac"] = div(sum(run_s), r["jobs"] * sum(sp.durations(spans, "campaign")))
    for name in ("service.submit", "service.complete", "service.fetch"):
        out[name + "_s"] = sum(sp.durations(spans, name))
    out["service.releases"] = r.get("releases", 0)
    out["transport.overhead_s"] = statistics.median(r["walls"]) - r["untraced_inprocess_s"] if clock else 0.0
    traced = r.get("traced_inprocess_s")
    out["trace.overhead_s"] = traced - r["untraced_inprocess_s"] if traced is not None else 0.0
    for name in ("workload.streams_distinct", "workload.stream_reuse", "scenario.runs_planned",
                 "scenario.specs_distinct", "scenario.useful_ratio", "core.read_port_stalls",
                 "core.upper_miss_stalls", "core.demand_transfers", "core.prefetch_transfers",
                 "mem.dcache_hit_rate", "frontend.mispredict_rate", "pipeline.stall_window_full",
                 "pipeline.stall_rob_full", "codec.bytes_per_record"):
        out[name] = counts.get(name, 0.0)
    return out, spans


# ------------------------------------------------------------------ driver


def host_facts(root):
    def git(*args):
        try:
            p = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=10)
            return p.stdout.strip() if p.returncode == 0 else None
        except OSError:
            return None

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    rev = git("rev-parse", "--short", "HEAD")
    status = git("status", "--porcelain") if rev else None
    return {"nproc": os.cpu_count(), "cpu": cpu, "git_rev": rev or "unknown",
            "git_dirty": "unknown" if status is None else bool(status)}


def measure(root, bins, workload, seed, seconds, trace, workdir, sweep=None):
    """Runs one workload; returns the raw record, {metric: (value, samples)}
    and, traced, the spans."""
    if workload == "service-sweep":
        r = run_service(root, bins, seed, seconds, trace, workdir, sweep)
    else:
        r = run_inprocess(root, bins, workload, seed, seconds, trace, workdir)
    if trace:
        values, spans = per_layer(r)
        return r, {k: (v, [v]) for k, v in values.items()}, spans
    return r, end_to_end(r), []


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must not be negative")
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    bins = build(root)

    workdir = os.path.join(root, ".bench_runs", f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        r, values, spans = measure(root, bins, args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die(f"no value for {', '.join(missing)}")
    facts = host_facts(root)
    meta = dict(facts, workload=args.workload, seed=args.seed, campaign_seed=r["campaign_seed"],
                threads=r["jobs"], workers=WORKERS if args.workload == "service-sweep" else 0,
                n=len(r["walls"]), traced=bool(args.trace),
                tracing_overhead_s=values["trace.overhead_s"][0] if args.trace else None,
                failed_frac=r["failed"] / r["attempted"], attempted=r["attempted"], failed=r["failed"])
    print("# " + json.dumps(meta))
    for m in wanted:
        value, samples = values[m["name"]]
        q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (value, value, value)
        print(f"{m['name']:<34} {value:>16.6g} {m['unit']:<8} q1={q1:.6g} q3={q3:.6g} n={len(samples)}")
    print(f"{'failed_frac':<34} {r['failed'] / r['attempted']:>16.6g} ratio    n={r['attempted']}")
    if spans:
        out_dir = os.path.join(root, ".bench_runs")
        name = f"spans-{args.workload}-seed{args.seed}.json"
        with open(os.path.join(out_dir, name), "w") as f:
            json.dump({"meta": meta, "spans": spans}, f)
        print(f"# spans written to .bench_runs/{name}")
    result = {
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
