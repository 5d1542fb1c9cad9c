#!/usr/bin/env python3
"""Campaign inspector/author (the Python face of `pw_run --campaign`).

Subcommands:

    init     author a canonical manifest from experiment specs
    status   summarize a campaign directory's journal
    resume   re-invoke `pw_run --campaign` over an existing directory
    repair   truncate a torn tail in either log after a writer crash

`init` takes positional job specs `experiment[:key=value...]` and emits
the byte-exact canonical manifest the C++ side would re-serialize:
json.dumps(indent=2, sort_keys=True) matches the common::Json writer
for the manifest's value types (ints, strings, bools), and the derived
per-job sub-seeds use the same splitmix64(base_seed ^ fnv1a64(id))
arithmetic as runtime/campaign/manifest.cpp (campaign_test pins a
Python-authored golden against the C++ round-trip).

    tools/pw_campaign.py init --campaign=nightly --suite-version=pr10 \
        --seed=4242 --smoke quickstart wardriving:scale=0.01 > m.json
    pw_run --campaign=m.json --procs=4 --json=nightly.json
    tools/pw_campaign.py status m.campaign

`status` reads the same two append-only logs the driver resumes from,
results.jsonl and attempts.jsonl, and replays them by the driver's
rules (runtime/campaign/journal.cpp, replay_attempt_event): it is
correct while a campaign runs, when state.json (written once, at the
driver's exit) is stale. The pw_campaign_replay ctest pins the two
replays to each other.

CAMPAIGNS.md documents the manifest schema and journal semantics.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import zlib

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_PW_RUN = REPO / "build" / "src" / "runtime" / "pw_run"

MASK64 = (1 << 64) - 1


def fnv1a64(text):
    h = 1469598103934665603
    for byte in text.encode():
        h = ((h ^ byte) * 1099511628211) & MASK64
    return h


def splitmix64(z):
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_job_seed(base_seed, job_id):
    """Mirrors campaign::derive_job_seed: masked into --seed's range."""
    return splitmix64(base_seed ^ fnv1a64(job_id)) & 0x7FFFFFFFFFFFFFFF


def cmd_init(args):
    jobs = []
    for index, spec in enumerate(args.jobs, start=1):
        parts = spec.split(":")
        experiment, params = parts[0], {}
        for part in parts[1:]:
            if "=" not in part:
                sys.exit(f"pw_campaign: bad job spec {spec!r}: "
                         f"expected experiment[:key=value...]")
            key, value = part.split("=", 1)
            params[key] = value
        job_id = f"{index:03d}-{experiment}"
        jobs.append({
            "experiment": experiment,
            "id": job_id,
            "params": params,
            "seed": derive_job_seed(args.seed, job_id),
            "smoke": args.smoke,
        })
    manifest = {
        "base_seed": args.seed,
        "campaign": args.campaign,
        "jobs": jobs,
        "policy": {
            "backoff_ms": args.backoff_ms,
            "max_attempts": args.max_attempts,
            "timeout_ms": args.timeout_ms,
        },
        "suite_version": args.suite_version,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"manifest: {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


LOGS = ("results.jsonl", "attempts.jsonl")


def read_log(path):
    """Returns (lines, torn_offset_or_None) of a JSONL log, ([], None)
    when it does not exist. A final line without a newline that does not
    parse is a torn tail; any other line that does not parse is fatal."""
    if not path.exists():
        return [], None
    data = path.read_bytes()
    lines, offset = [], 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        end = len(data) if newline < 0 else newline
        try:
            lines.append(json.loads(data[offset:end]))
        except ValueError:
            if newline < 0:
                return lines, offset
            sys.exit(f"pw_campaign: {path}: corrupt interior record at byte "
                     f"{offset}")
        offset = end + 1
    return lines, None


def replay(campaign_dir, manifest, attempts, records):
    """Per-job progress shaped like state.json's jobs, by the driver's
    replay rules, plus the ids whose latest claim is still open."""
    def fail(where, message):
        sys.exit(f"pw_campaign: {campaign_dir / where}: {message}")

    ids = {job["id"] for job in manifest["jobs"]}
    progress, open_claims = {}, set()
    if attempts:
        digest = "crc32:%08x" % zlib.crc32(
            (campaign_dir / "manifest.json").read_bytes())
        header = {"campaign": manifest["campaign"], "manifest_digest": digest,
                  "schema_version": 1,
                  "suite_version": manifest["suite_version"]}
        if attempts[0] != header:
            fail("attempts.jsonl", f"header {attempts[0]} does not match "
                 f"this manifest ({header}): refusing to mix campaigns")
    for number, event in enumerate(attempts[1:], start=2):
        where = f"attempts.jsonl line {number}"
        if not isinstance(event, dict) or event.get("id") not in ids:
            fail(where, "event for a job that is not in this manifest")
        job_id, kind = event["id"], event.get("event")
        attempt = event.get("attempt")
        entry = progress.get(job_id)
        if kind == "claimed":
            if entry is None or entry.get("status") == "quarantined":
                expected = 1  # a fresh entry, as after a resume
            else:
                expected = entry["attempts"] + 1
            if attempt != expected:
                fail(where, f"job {job_id!r} claims attempt {attempt} where "
                     f"{expected} was next")
            if expected == 1:
                entry = progress[job_id] = {"attempts": 0, "backoff_ms": []}
            entry["attempts"] = attempt
            entry["log"] = event["log"]
            open_claims.add(job_id)
        elif kind in ("failed", "quarantined"):
            if job_id not in open_claims or attempt != entry["attempts"]:
                fail(where, f"job {job_id!r}: {kind} attempt {attempt} does "
                     f"not end the open claim")
            open_claims.discard(job_id)
            if kind == "failed":
                entry["backoff_ms"].append(event["backoff_ms"])
            else:
                entry["status"] = "quarantined"
        else:
            fail(where, f"unknown event {kind!r}")
    for record in records:
        job_id = record.get("id")
        if job_id not in progress:
            fail("results.jsonl", f"record for {job_id!r} but attempts.jsonl "
                 f"never claimed it")
        progress[job_id]["status"] = "completed"
        progress[job_id]["digest"] = record["digest"]
        open_claims.discard(job_id)
    return progress, open_claims


def load_journal(campaign_dir):
    """Returns (records, progress, open_claims, torn) where torn maps a
    log's name to the byte offset of its torn tail."""
    manifest = json.loads((campaign_dir / "manifest.json").read_text())
    records, torn_results = read_log(campaign_dir / "results.jsonl")
    attempts, torn_attempts = read_log(campaign_dir / "attempts.jsonl")
    torn = {name: offset for name, offset in zip(
        LOGS, (torn_results, torn_attempts)) if offset is not None}
    progress, open_claims = replay(campaign_dir, manifest, attempts, records)
    return records, progress, open_claims, torn


def cmd_status(args):
    campaign_dir = pathlib.Path(args.dir)
    manifest_path = campaign_dir / "manifest.json"
    if not manifest_path.exists():
        sys.exit(f"pw_campaign: {campaign_dir} is not a campaign directory "
                 f"(no manifest.json)")
    manifest = json.loads(manifest_path.read_text())
    records, progress, open_claims, torn = load_journal(campaign_dir)
    completed = {record["id"] for record in records}
    quarantined = sorted(job_id for job_id, entry in progress.items()
                         if entry.get("status") == "quarantined")
    total = len(manifest["jobs"])
    retries = sum(max(0, entry.get("attempts", 0) - 1)
                  for entry in progress.values())
    print(f"campaign:    {manifest['campaign']} "
          f"(suite {manifest['suite_version']})")
    print(f"jobs:        {len(completed)}/{total} completed, "
          f"{len(quarantined)} quarantined, {retries} retried attempts")
    for job in manifest["jobs"]:
        job_id = job["id"]
        entry = progress.get(job_id, {})
        if job_id in completed:
            status = f"completed  {entry.get('digest', '?')}"
        elif job_id in quarantined:
            status = f"QUARANTINED (see {entry.get('log', 'logs/')})"
        elif job_id in open_claims:
            status = f"claimed, no result (attempt {entry['attempts']})"
        elif entry.get("attempts"):
            status = f"pending after {entry['attempts']} attempt(s)"
        else:
            status = "pending"
        print(f"  {job_id:24} {status}")
    for name, offset in torn.items():
        print(f"torn tail:   {name} has a partial record at byte {offset}; "
              f"run `tools/pw_campaign.py repair {campaign_dir}`")
    return 1 if (quarantined or torn) else 0


def cmd_resume(args):
    campaign_dir = pathlib.Path(args.dir)
    manifest_path = campaign_dir / "manifest.json"
    if not manifest_path.exists():
        sys.exit(f"pw_campaign: {campaign_dir} is not a campaign directory "
                 f"(no manifest.json)")
    if not args.pw_run.exists():
        sys.exit(f"pw_campaign: pw_run not found at {args.pw_run} "
                 f"(build it first)")
    cmd = [str(args.pw_run), f"--campaign={manifest_path}",
           f"--campaign-dir={campaign_dir}", f"--procs={args.processes}"]
    if args.json is not None:
        cmd.append(f"--json={args.json}")
    if args.metrics is not None:
        cmd.append(f"--metrics={args.metrics}")
    return subprocess.run(cmd).returncode


def cmd_repair(args):
    campaign_dir = pathlib.Path(args.dir)
    for name in LOGS:
        log = campaign_dir / name
        if not log.exists():
            print(f"{name} does not exist yet; nothing to repair")
            continue
        _, torn = read_log(log)
        if torn is None:
            print(f"{name} is clean; nothing to repair")
            continue
        data = log.read_bytes()
        log.write_bytes(data[:torn])
        print(f"{name}: truncated torn tail, {len(data) - torn} bytes "
              f"dropped at byte {torn} (the line was never durable; the "
              f"attempt re-runs on resume)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    init = sub.add_parser("init", help="author a canonical manifest")
    init.add_argument("--campaign", required=True,
                      help="campaign name ([a-z0-9_.-]+)")
    init.add_argument("--suite-version", required=True,
                      help="version tag stamped into every artifact")
    init.add_argument("--seed", type=int, default=0,
                      help="base seed (default: %(default)s)")
    init.add_argument("--smoke", action="store_true",
                      help="mark every job as a smoke run")
    init.add_argument("--max-attempts", type=int, default=3,
                      help="retry budget per job (default: %(default)s)")
    init.add_argument("--backoff-ms", type=int, default=100,
                      help="base retry backoff (default: %(default)s)")
    init.add_argument("--timeout-ms", type=int, default=0,
                      help="per-attempt timeout, 0 = none "
                           "(default: %(default)s)")
    init.add_argument("--output", default=None,
                      help="write the manifest here (default: stdout)")
    init.add_argument("jobs", nargs="+",
                      help="job specs: experiment[:key=value...]")
    init.set_defaults(func=cmd_init)

    status = sub.add_parser("status", help="summarize a campaign directory")
    status.add_argument("dir", help="campaign directory")
    status.set_defaults(func=cmd_status)

    resume = sub.add_parser("resume",
                            help="continue a campaign from its journal")
    resume.add_argument("dir", help="campaign directory")
    resume.add_argument("--pw-run", type=pathlib.Path,
                        default=DEFAULT_PW_RUN,
                        help="pw_run binary (default: %(default)s)")
    resume.add_argument("--processes", type=int, default=4,
                        help="worker pool width (default: %(default)s)")
    resume.add_argument("--json", default=None,
                        help="write the final campaign document here")
    resume.add_argument("--metrics", default=None,
                        help="children collect metrics; merged block "
                             "written here")
    resume.set_defaults(func=cmd_resume)

    repair = sub.add_parser("repair",
                            help="truncate a torn tail in either log")
    repair.add_argument("dir", help="campaign directory")
    repair.set_defaults(func=cmd_repair)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
