#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end metrics, a per-layer ledger.

Builds a pinned copy of the simulator and the pw_bench harness into
benchmark/build/, checks that the harness reproduces `pw_run --json` byte
for byte, runs the workloads BENCHMARK.json names, checks every output, and
prints every metric by name with its unit. Writes only under
benchmark/build/ and benchmark/out/.

  python3 benchmark/run.py [--seed=N]
      every workload, 5 timed runs each, then one traced run each
  python3 benchmark/run.py --quick
      self-test: one run of each workload at conformance sizes (< 60 s)
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      one workload measured for about S seconds; with --trace 1 the
      per-layer metrics instead of the end-to-end ones

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. See benchmark/README.md.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = BENCH_DIR / "build"
OUT = BENCH_DIR / "out"
TMP = OUT / "tmp"
TRACES = OUT / "traces"
PW_BENCH = BUILD / "pw_bench"
PW_RUN = BUILD / "politewifi" / "src" / "runtime" / "pw_run"
ENV = dict(os.environ, PW_THREADS="1", TMPDIR=str(TMP))

PROCESS_TIMEOUT_S = 170  # every run of the benchmark must end within 180 s
BUILD_TIMEOUT_S = 880
FULL_REPS = 5
SETUP_SAMPLES = 15  # cold set-ups per workload; setup_s is their median
CHILD_RUNS = 5
PROCS = 2  # campaign pool width, within nproc on the 4-core sizing box
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Sizes come from the seed sizing in README.md; `quick` overrides give the
# conformance sizes, used by --quick and by the gate on every invocation.
# A workload's experiment seed is its experiment's default seed plus --seed.
WORKLOADS = {
    "survey_static": {
        "experiment": "wardriving", "seed": 99,
        "params": {"scale": "0.1"},
        "quick": {"scale": "0.01"},
    },
    "survey_fading": {
        "experiment": "wardriving", "seed": 99,
        "params": {"scale": "0.05", "fading_rho": "0.9",
                   "fading_sigma_db": "2", "fading_coherence_us": "1000"},
        "quick": {"scale": "0.01"},
    },
    "flood_ack": {
        "experiment": "battery_drain", "seed": 62,
        "params": {"measure_s": "2400"},
        "quick": {"measure_s": "5"},
    },
    "campaign_spawn": {
        "experiment": "quickstart", "seed": 1, "smoke": True,
        "params": {}, "quick": {},
        "jobs": 256, "quick_jobs": 8,
    },
}


def fail(message):
    """Ends the run without a result line."""
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(1)


# --- Processes -----------------------------------------------------------------

class Proc:
    def __init__(self, code, wall_s, rss_mb, stdout, stderr):
        self.code = code
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr

    def last_json(self):
        lines = self.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return None

    def describe(self):
        tail = self.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return f"exit {self.code}: {tail[0]}"


_live = set()


def _kill(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except OSError:
        pass


def run(cmd):
    """Runs `cmd` to completion through `pw_bench spawn`, which measures
    its wall time and peak RSS from outside (the larger of the program's
    own peak and its waited-for children's, so a campaign driver's figure
    covers its workers). The tree runs in its own session, so a timeout
    kills all of it."""
    fd, usage_path = tempfile.mkstemp(dir=TMP, suffix=".usage.json")
    os.close(fd)
    try:
        with tempfile.TemporaryFile(dir=TMP) as out, \
                tempfile.TemporaryFile(dir=TMP) as err:
            proc = subprocess.Popen(
                [str(PW_BENCH), "spawn", f"--usage={usage_path}", "--",
                 *(str(c) for c in cmd)],
                cwd=TMP, env=ENV, stdout=out, stderr=err,
                start_new_session=True)
            _live.add(proc.pid)
            try:
                proc.wait(timeout=PROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                _kill(proc.pid)
                proc.wait()
            finally:
                _live.discard(proc.pid)
            out.seek(0)
            err.seek(0)
            usage = json.loads(Path(usage_path).read_text() or "{}")
            return Proc(proc.returncode, usage.get("wall_s", math.nan),
                        usage.get("peak_rss_mb", math.nan),
                        out.read().decode(errors="replace"),
                        err.read().decode(errors="replace"))
    finally:
        os.unlink(usage_path)


def run_parallel(cmds):
    results = [None] * len(cmds)

    def worker(i):
        results[i] = run(cmds[i])

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(cmds))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


# --- Build and provenance --------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no politewifi source tree to build")
    for d in (OUT, TMP, TRACES):
        d.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD, *generator])
    steps.append(["cmake", "--build", BUILD, "--target", "pw_run", "pw_bench",
                  "--parallel", str(min(4, os.cpu_count() or 1))])
    log_path = OUT / "build.log"
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run([str(s) for s in step], cwd=BENCH_DIR,
                                  env=ENV, stdout=log,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                fail(f"build failed; see {log_path}")


def provenance(args, mode):
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or "unknown"
        except OSError:
            pass
    info = run([PW_BENCH, "info"]).last_json() or {}
    return {
        "git_sha": sha,
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "metrics_compiled": info.get("metrics_compiled"),
        "nproc": os.cpu_count(),
        "mode": mode,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# --- Experiments -------------------------------------------------------------------

def experiment_args(w, seed, quick, overrides=None):
    params = {**w["params"], **(w["quick"] if quick else {}),
              **(overrides or {})}
    args = [w["experiment"], f"--seed={seed}"]
    args += [f"--{k}={v}" for k, v in params.items()]
    if w.get("smoke"):
        args.append("--smoke")
    return args


def check_results(experiment, r):
    """Domain checks on one result document's results block."""
    problems = []
    if experiment == "wardriving":
        if not 0 < r["discovered"] <= r["population"]:
            problems.append("survey discovered no device or more than exist")
        elif r["responded"] < 0.99 * r["discovered"]:
            problems.append("fewer than 99% of discovered devices answered")
    elif experiment == "battery_drain":
        rates = [row["rate_pps"] for row in r["rate_sweep"]]
        if rates != [0, 10, 50, 150, 450, 900]:
            problems.append(f"unexpected attack rates {rates}")
        for row in r["rate_sweep"]:
            # At 10 pps the victim still dozes and misses most fakes.
            awake = row["sleep_fraction"] == 0
            if awake and row["acks_elicited"] < 0.99 * row["frames_injected"]:
                problems.append(f"awake victim ACKed under 99% at {row['rate_pps']} pps")
        if not r.get("power_increase_x", 0) > 10:
            problems.append("the flood no longer multiplies the victim's power")
    elif experiment == "quickstart":
        if not r.get("stranger_acked"):
            problems.append("the tablet did not ACK the stranger")
        elif abs(r["ack_gap_us"] - 10.0) > 0.5:
            problems.append(f"ACK came {r['ack_gap_us']} us after the frame, not at SIFS")
    return problems


def outcome_rates(experiment, results):
    """(discovery_rate, response_rate) from result blocks (README.md)."""
    if experiment == "wardriving":
        r = results[0]
        return r["discovered"] / r["population"], r["responded"] / r["discovered"]
    if experiment == "battery_drain":
        attacked = [row for row in results[0]["rate_sweep"] if row["rate_pps"] > 0]
        reached = sum(row["acks_elicited"] > 0 for row in attacked)
        return (reached / len(attacked),
                sum(row["acks_elicited"] for row in attacked)
                / sum(row["frames_injected"] for row in attacked))
    reached = sum(r["fake_frames_discarded"] >= 1 for r in results)
    return reached / len(results), sum(bool(r["stranger_acked"]) for r in results) / len(results)


def conformance(names, seed_offset):
    """Runs each workload's experiment at conformance size through pw_run
    and pw_bench at once and compares their documents byte for byte.
    Returns the problems and, per workload, pw_bench's output and pw_run's
    parsed document."""
    gate_dir = OUT / "conformance"
    gate_dir.mkdir(exist_ok=True)
    problems, outputs = [], {}
    for name in names:
        w = WORKLOADS[name]
        args = experiment_args(w, w["seed"] + seed_offset, quick=True)
        want, got = gate_dir / f"{name}.pw_run.json", gate_dir / f"{name}.pw_bench.json"
        for path in (want, got):
            path.unlink(missing_ok=True)
        ran, benched = run_parallel([[PW_RUN, *args, f"--json={want}"],
                                     [PW_BENCH, "run", *args, f"--doc={got}"]])
        if ran.code != 0 or benched.code != 0 or not want.exists() or not got.exists():
            problems.append(f"conformance {name}: pw_run {ran.describe()}; "
                            f"pw_bench {benched.describe()}")
            continue
        if want.read_bytes() != got.read_bytes():
            problems.append(f"conformance {name}: pw_bench's document differs "
                            f"from `pw_run {' '.join(args)} --json`")
        outputs[name] = (benched.last_json(), json.loads(want.read_text()))
    return problems, outputs


# --- Measurement -------------------------------------------------------------------

class Plan:
    """How many runs: a fixed count, or back-to-back runs for about
    `seconds` (a run starts only if it should end by then, give or take
    half a run; at least one)."""

    def __init__(self, quick, reps=None, seconds=None):
        self.quick = quick
        self.reps = reps
        self.seconds = seconds

    def done(self, runs, start, last_wall):
        if self.reps is not None:
            return runs >= self.reps
        return time.perf_counter() - start + 0.5 * last_wall >= self.seconds


class Measurement:
    def __init__(self):
        self.samples = {}   # end-to-end metric -> one value per run
        self.walls = []     # measured seconds per run (sim: run phase)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.per_layer = {}
        self.campaign = None  # the last completed campaign (campaign_spawn)

    def add(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def reject(self, problems):
        self.failed += 1
        self.problems.extend(problems)


def measure_sim(name, w, seed, plan):
    m = Measurement()
    reference = None
    start = time.perf_counter()
    runs = 0
    while True:
        proc = run([PW_BENCH, "run", *experiment_args(w, seed, plan.quick)])
        out = proc.last_json()
        runs += 1
        m.attempted += 1
        if proc.code != 0 or out is None or out["failed"]:
            m.reject([f"{name}: {proc.describe()}"])
        else:
            bad = check_results(w["experiment"], out["results"])
            if reference is None:
                reference = out["results"]
            elif out["results"] != reference:
                bad.append("results differ from the first run at the same seed")
            if bad:
                m.reject([f"{name}: {p}" for p in bad])
            else:
                discovery, response = outcome_rates(w["experiment"], [out["results"]])
                m.add("sim_s_per_wall_s", out["sim_s"] / out["run_s"])
                m.add("jobs_per_s", 1.0 / proc.wall_s)
                m.add("setup_s", out["setup_s"])
                m.add("peak_rss_mb", proc.rss_mb)
                m.add("discovery_rate", discovery)
                m.add("response_rate", response)
                m.walls.append(out["run_s"])
        if plan.done(runs, start, proc.wall_s):
            break
    while not m.failed and len(m.samples.get("setup_s", [])) < SETUP_SAMPLES:
        proc = run([PW_BENCH, "run", *experiment_args(w, seed, plan.quick),
                    "--setup-only"])
        out = proc.last_json()
        if proc.code != 0 or out is None:
            m.reject([f"{name} set-up: {proc.describe()}"])
            break
        m.add("setup_s", out["setup_s"])
    return m


class Campaign:
    """One campaign directory of `jobs` identical quickstart jobs."""

    def __init__(self, tag, seed, jobs):
        self.jobs = jobs
        self.dir = OUT / "campaign" / tag
        self.manifest = OUT / "campaign" / f"{tag}.manifest.json"
        self.doc = OUT / "campaign" / f"{tag}.json"
        self.metrics = OUT / "campaign" / f"{tag}.metrics.json"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.parent.mkdir(parents=True, exist_ok=True)
        manifest = {
            "base_seed": seed,
            "campaign": tag,
            "jobs": [{"experiment": "quickstart", "id": f"job{i:04d}",
                      "params": {}, "seed": seed, "smoke": True}
                     for i in range(jobs)],
            "policy": {"backoff_ms": 100, "max_attempts": 3, "timeout_ms": 0},
            "suite_version": "benchmark",
        }
        self.manifest.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    def invoke(self, metrics=False):
        cmd = [PW_RUN, f"--campaign={self.manifest}", f"--campaign-dir={self.dir}",
               f"--procs={PROCS}", f"--json={self.doc}"]
        if metrics:
            cmd.append(f"--metrics={self.metrics}")
        return run(cmd)

    def check(self, proc, reference):
        """Returns (problems, failed job attempts, queued jobs, job result
        blocks). Retried and quarantined attempts count as failed, as do
        jobs whose document differs from pw_run's standalone one."""
        queued = re.search(r"(\d+) queued across", proc.stdout)
        try:
            state = json.loads((self.dir / "state.json").read_text())["jobs"]
            doc = json.loads(self.doc.read_text())
        except (OSError, ValueError, KeyError) as e:
            return [f"campaign {self.dir.name}: {proc.describe()} ({e})"], self.jobs, 0, []
        failed = sum(max(0, job.get("attempts", 1) - 1) for job in state.values())
        failed += sum(job.get("status") == "quarantined" for job in state.values())
        documents = [job["document"] for job in doc["jobs"]]
        wrong = sum(d != reference for d in documents)
        failed += wrong
        problems = []
        if proc.code != 0 or doc["failed"] or doc["summary"] != {"failed_jobs": 0, "jobs": self.jobs}:
            problems.append(f"campaign {self.dir.name}: {proc.describe()}, summary {doc['summary']}")
        if wrong:
            problems.append(f"campaign {self.dir.name}: {wrong} job documents differ from pw_run's")
        if failed:
            problems.append(f"campaign {self.dir.name}: {failed} failed job attempts")
        return problems, failed, int(queued.group(1)) if queued else 0, [d["results"] for d in documents]


def measure_campaign(name, w, seed, plan, gate):
    m = Measurement()
    if name not in gate:
        m.reject([f"{name}: no conformance reference"])
        return m
    bench_out, reference = gate[name]
    jobs = w["quick_jobs"] if plan.quick else w["jobs"]
    start = time.perf_counter()
    runs = 0
    while True:
        campaign = Campaign(name, seed, jobs)
        proc = campaign.invoke()
        runs += 1
        m.attempted += jobs
        problems, failed, queued, results = campaign.check(proc, reference)
        m.failed += failed
        m.problems += problems
        if not problems:
            discovery, response = outcome_rates(w["experiment"], results)
            m.add("sim_s_per_wall_s", jobs * bench_out["sim_s"] / proc.wall_s)
            m.add("jobs_per_s", jobs / proc.wall_s)
            m.add("peak_rss_mb", proc.rss_mb)
            m.add("discovery_rate", discovery)
            m.add("response_rate", response)
            m.walls.append(proc.wall_s)
            m.campaign = (campaign, queued, failed)
        if plan.done(runs, start, proc.wall_s):
            break
    if m.problems or m.campaign is None:
        return m
    # Set-up: re-invoking the completed campaign (manifest parse, journal
    # load and verify, reduce), timed from outside.
    for _ in range(SETUP_SAMPLES):
        proc = m.campaign[0].invoke()
        if proc.code != 0 or "0 queued" not in proc.stdout:
            m.problems.append(f"{name} re-invocation: {proc.describe()}")
            break
        m.add("setup_s", proc.wall_s)
    return m


# --- Per-layer metrics -----------------------------------------------------------------

def ratio(a, b):
    return a / b if b else 0.0


def runtime_layer(seed, quick, gate, campaign_measurement):
    """Runtime-layer numbers on a campaign of campaign_spawn's shape: from
    that workload's own runs when it was measured, else from one run."""
    name, w = "campaign_spawn", WORKLOADS["campaign_spawn"]
    problems = []
    child = [run([PW_RUN, *experiment_args(w, w["seed"] + seed, quick=True)])
             for _ in range(CHILD_RUNS)]
    problems += [f"child run: {p.describe()}" for p in child if p.code != 0]
    child_ms = statistics.median(p.wall_s for p in child) * 1e3
    m = campaign_measurement
    if m is None:
        if name not in gate:
            _, more = conformance([name], seed)
            gate.update(more)
        m = measure_campaign(name, w, w["seed"] + seed, Plan(quick, reps=1), gate)
        problems += m.problems
    if m.problems or m.campaign is None:
        return problems, {}
    campaign, queued, failed = m.campaign
    return problems, {
        "runtime.child_run_ms": child_ms,
        "runtime.campaign.job_overhead_ms":
            statistics.median(m.walls) * PROCS / campaign.jobs * 1e3 - child_ms,
        "runtime.campaign.resume_us_per_record":
            statistics.median(m.samples["setup_s"]) / campaign.jobs * 1e6,
        "runtime.campaign.jobs_retried": failed,
        "runtime.campaign.queue_depth_peak": queued,
    }


def counter_metrics(c, template_hits, template_misses, sim_s):
    """Per-layer ratios from obs/ counters (catalogue names)."""
    tx = c["sim.medium.transmissions"]
    link = c["sim.medium.link_cache_hits"], c["sim.medium.link_cache_misses"]
    fer = c["sim.medium.fer_cache_hits"], c["sim.medium.fer_cache_misses"]
    pool = c["sim.ppdu_pool.reuses"], c["sim.ppdu_pool.allocations"]
    fading_hits = c["sim.medium.fading_cache_hits"]
    return {
        "sim.medium.candidates_per_tx": ratio(c["sim.medium.fanout_candidates"], tx),
        "sim.medium.receptions_per_tx": ratio(c["sim.medium.receptions"], tx),
        "sim.medium.delivery_events_per_tx": ratio(c["sim.medium.delivery_events"], tx),
        "sim.medium.fading_advances_per_tx": ratio(c["sim.medium.fading_advances"], tx),
        "sim.medium.link_cache_hit_rate": ratio(link[0], sum(link)),
        "sim.medium.fer_cache_hit_rate": ratio(fer[0], sum(fer)),
        "sim.medium.fading_cache_hit_rate":
            ratio(fading_hits, fading_hits + c["sim.medium.fading_advances"]),
        "sim.scheduler.events_per_sim_s": ratio(c["sim.scheduler.events_executed"], sim_s),
        "sim.ppdu_pool.reuse_rate": ratio(pool[0], sum(pool)),
        "frames.template_hit_rate": ratio(template_hits, template_hits + template_misses),
        "mac.retries_per_ack": ratio(c["mac.retries"], c["mac.acks_sent"]),
    }


def ledger(c, layers, busy_s, jobs):
    """share.<layer> = traced count x microbenchmark unit cost / busy time.
    A campaign's child runs hold its simulation work, so there only the
    child share counts toward the unaccounted rest."""
    ns = 1e-9
    fade_step_ns = layers["phy.fade_cold_ns"] / layers["phy.fade_cold_steps"]
    sim = {
        "share.phy.fading": c["sim.medium.fading_advances"] * fade_step_ns * ns,
        # Every candidate of the fan-out microbenchmark is an awake
        # receiver, so its cost per candidate is a cost per reception.
        "share.sim.fanout": c["sim.medium.receptions"]
        * layers["sim.medium.fanout_ns_per_candidate"] * ns,
        "share.sim.scheduler": (c["sim.scheduler.events_executed"]
                                - c["sim.medium.delivery_events"])
        * layers["sim.scheduler.push_pop_ns"] * ns,
        "share.frames.render": c["sim.medium.transmissions"]
        * layers["frames.template_render_ns"] * ns,
    }
    shares = {k: v / busy_s for k, v in sim.items()}
    shares["share.runtime.child"] = jobs * layers["runtime.child_run_ms"] * 1e-3 / busy_s
    top = shares["share.runtime.child"] if jobs else sum(shares.values())
    shares["share.unaccounted"] = 1.0 - top
    return shares


def trace_sim(name, w, seed, plan, m, layers):
    trace_path = TRACES / f"{name}-seed{seed}.json"
    proc = run([PW_BENCH, "run", *experiment_args(w, seed, plan.quick),
                "--traced", f"--trace-out={trace_path}"])
    out = proc.last_json()
    if proc.code != 0 or out is None or "counters" not in out:
        return [f"{name} traced run: {proc.describe()}"]
    c = out["counters"]
    base = statistics.median(m.walls)
    twin = 0.0
    if float(w["params"].get("fading_rho", 0)) > 0:
        # The rho = 0 twin: what the same survey costs without fading.
        proc = run([PW_BENCH, "run", *experiment_args(w, seed, plan.quick,
                                                      {"fading_rho": "0"})])
        twin_out = proc.last_json()
        if proc.code != 0 or twin_out is None:
            return [f"{name} rho=0 twin: {proc.describe()}"]
        twin = 1.0 - twin_out["run_s"] / base
    m.per_layer = {
        **layers,
        **counter_metrics(c, out["template_hits"], out["template_misses"],
                          out["sim_total_s"]),
        **ledger(c, layers, base, jobs=0),
        "share.phy.fading_twin": twin,
        "obs.trace_overhead_frac": out["run_s"] / base - 1.0,
    }
    return []


def trace_campaign(name, w, seed, plan, m, layers, gate):
    bench_out = gate[name][0]
    jobs = w["quick_jobs"] if plan.quick else w["jobs"]
    campaign = Campaign(f"{name}-traced", seed, jobs)
    proc = campaign.invoke(metrics=True)
    try:
        c = json.loads(campaign.doc.read_text())["metrics"]["counters"]
    except (OSError, ValueError, KeyError):
        return [f"{name} traced campaign: {proc.describe()}"]
    base = statistics.median(m.walls)
    m.per_layer = {
        **layers,
        **counter_metrics(c, bench_out["template_hits"], bench_out["template_misses"],
                          jobs * bench_out["sim_total_s"]),
        **ledger(c, layers, base * PROCS, jobs=jobs),
        "share.phy.fading_twin": 0.0,
        "obs.trace_overhead_frac": proc.wall_s / base - 1.0,
    }
    return []


# --- Reporting ---------------------------------------------------------------------------

def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def report(spec, names, measurements):
    """Per workload: every declared end-to-end metric summarized, and the
    per-layer metrics when traced. Prints one line per metric."""
    out = {}
    for name in names:
        m = measurements[name]
        e2e = {}
        for metric in spec["end_to_end"]:
            values = m.samples.get(metric["name"])
            if values:
                e2e[metric["name"]] = {"unit": metric["unit"], "better": metric["better"],
                                       "bound": metric["bound"], **summarize(values)}
                s = e2e[metric["name"]]
                print(f"{name:15s} {metric['name']:40s} {s['median']:14.6g} "
                      f"{metric['unit']:10s} [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
        layer = {}
        for metric in spec["per_layer"]:
            if metric["name"] in m.per_layer:
                value = m.per_layer[metric["name"]]
                layer[metric["name"]] = {"unit": metric["unit"], "value": value}
                print(f"{name:15s} {metric['name']:40s} {value:14.6g} {metric['unit']}")
        out[name] = {"attempted": m.attempted, "failed": m.failed,
                     "problems": m.problems, "end_to_end": e2e, "per_layer": layer}
    return out


def self_test(spec, names, measurements):
    """--quick: every declared metric emitted as a finite number for every
    workload, nothing emitted undeclared, valid names and units."""
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not NAME_RE.fullmatch(metric["name"]) or not UNIT_RE.fullmatch(metric.get("unit", "")):
            problems.append(f"bad metric name or unit: {metric}")
    for name in names:
        m = measurements[name]
        emitted = {"end_to_end": {k: statistics.median(v) for k, v in m.samples.items()},
                   "per_layer": m.per_layer}
        for kind, values in emitted.items():
            declared = {metric["name"] for metric in spec[kind]}
            for metric in sorted(declared - set(values)):
                problems.append(f"{name}: {kind} metric {metric} not emitted")
            for metric in sorted(set(values) - declared):
                problems.append(f"{name}: {kind} metric {metric} not declared")
            for metric, value in values.items():
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{name}: {kind} metric {metric} is {value}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    build()
    started = time.perf_counter()

    if args.workload:
        names = [args.workload]
        args.seconds = args.seconds or spec["run_seconds"]
        plan = Plan(quick=args.quick, seconds=args.seconds)
        traced = bool(args.trace)
        mode = f"workload:{args.workload}:trace{args.trace}"
    else:
        names = list(WORKLOADS)
        plan = Plan(quick=args.quick, reps=1 if args.quick else FULL_REPS)
        traced = True
        mode = "quick" if args.quick else "full"
    meta = provenance(args, mode)

    problems, gate = conformance(names, args.seed)
    measurements = {}
    for name in names:
        w = WORKLOADS[name]
        seed = w["seed"] + args.seed
        print(f"[{time.perf_counter() - started:6.1f}s] measuring {name} (seed {seed})",
              file=sys.stderr)
        if "jobs" in w:
            measurements[name] = measure_campaign(name, w, seed, plan, gate)
        else:
            measurements[name] = measure_sim(name, w, seed, plan)

    if traced:
        layer_proc = run([PW_BENCH, "layers",
                          f"--trace-out={TRACES / f'layers-seed{args.seed}.json'}"])
        layers = layer_proc.last_json()
        if layer_proc.code != 0 or layers is None:
            problems.append(f"layer microbenchmarks: {layer_proc.describe()}")
        else:
            more, runtime = runtime_layer(args.seed, plan.quick, gate,
                                          measurements.get("campaign_spawn"))
            problems += more
            layers.update(runtime)
            for name in names:
                w, m = WORKLOADS[name], measurements[name]
                if m.failed or m.problems or not m.walls or not runtime:
                    continue
                print(f"[{time.perf_counter() - started:6.1f}s] tracing {name}",
                      file=sys.stderr)
                seed = w["seed"] + args.seed
                if "jobs" in w:
                    problems += trace_campaign(name, w, seed, plan, m, layers, gate)
                else:
                    problems += trace_sim(name, w, seed, plan, m, layers)

    workloads_out = report(spec, names, measurements)
    for name in names:
        problems += measurements[name].problems
    if args.quick and not args.workload:
        problems += self_test(spec, names, measurements)
        elapsed = time.perf_counter() - started
        print(f"self-test took {elapsed:.1f} s (limit 60 s)", file=sys.stderr)
        if elapsed > 60:
            problems.append(f"--quick took {elapsed:.0f} s, over its 60 s budget")
    attempted = sum(m.attempted for m in measurements.values())
    failed = sum(m.failed for m in measurements.values())
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)

    result = {"meta": meta, "correct": not problems, "attempted": attempted,
              "failed": failed, "problems": problems, "workloads": workloads_out}
    path = (OUT / "results" / f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-"
            f"{mode.replace(':', '-')}-seed{args.seed}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"result file: {path}", file=sys.stderr)

    kind = "per_layer" if traced and args.workload else "end_to_end"
    metrics = {}
    for name in names:
        for metric, s in workloads_out[name][kind].items():
            key = metric if args.workload else f"{name}.{metric}"
            metrics[key] = {"value": s["value"] if kind == "per_layer" else s["median"],
                            "unit": s["unit"]}
    print(json.dumps({"correct": not problems, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        for pid in list(_live):
            _kill(pid)
        sys.exit(130)
