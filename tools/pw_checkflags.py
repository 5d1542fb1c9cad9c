#!/usr/bin/env python3
"""CLI <-> documentation drift check (a ctest entry; needs no build).

The pw_run CLI surface is defined in exactly one place —
`kReservedFlags` plus the experiment ParamSpecs — and is documented in
prose across README.md, EXPERIMENTS.md, OBSERVABILITY.md and
CAMPAIGNS.md. Those drift apart silently: a flag lands in the driver
but never in the docs, or a doc keeps advertising a flag that was
renamed away. This check extracts both sides *statically* (it needs no
build, and ctest runs it as `pw_checkflags`) and fails on:

  undocumented-flag   a driver flag absent from pw_run's own usage text
                      or from every documentation file
  undocumented-param  an experiment parameter EXPERIMENTS.md never names
  unknown-doc-flag    a documented `--flag` that neither the driver, nor
                      any experiment spec, nor the tool allowlist defines
  unknown-usage-flag  a usage-text `--flag` the driver does not accept
  unused-tool-flag    a TOOL_FLAGS entry no documentation file mentions
  shadowing-tool-flag a TOOL_FLAGS entry that is already a driver flag
                      or an experiment parameter

Flags the docs quote that pw_run does not parse itself (the per-run
--seed, cmake's and ctest's) are listed in TOOL_FLAGS below rather
than discovered, so a typo in a doc cannot hide behind the allowlist
by accident. Like the pw_lint and pw_analyze
allowlists, TOOL_FLAGS can only shrink: an entry the docs no longer
need, or one the driver already defines, is itself a failure.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
RUNNER = REPO / "src" / "runtime" / "runner.cpp"
EXPERIMENTS_DIR = REPO / "src" / "runtime" / "experiments"
DOCS = ["README.md", "EXPERIMENTS.md", "OBSERVABILITY.md", "CAMPAIGNS.md"]

# Documented flags that are neither driver flags nor experiment
# parameters: the per-run --seed every experiment takes, and external
# tools the docs quote (cmake, ctest). Keep sorted; every entry must be
# mentioned by a doc.
TOOL_FLAGS = {
    "build",              # cmake, quoted in build instructions
    "preset",             # cmake, quoted in build instructions
    "seed",               # the per-run seed every experiment takes
    "test-dir",           # ctest, quoted in build instructions
}

# Usage-text placeholders like `--<param>=<value>`.
PLACEHOLDER_RE = re.compile(r"^<.*>$")
FLAG_RE = re.compile(r"--([a-z][a-z0-9_-]*|<[a-z>=<-]+>)")


def driver_flags(text):
    m = re.search(r"kReservedFlags\[\]\s*=\s*\{(.*?)\}", text, re.S)
    if not m:
        sys.exit("pw_checkflags: cannot find kReservedFlags in runner.cpp")
    return set(re.findall(r'"([a-z0-9_-]+)"', m.group(1)))


def usage_flags(text):
    start = text.index("void print_pw_run_usage")
    end = text.index("\n}", start)
    return {f for f in FLAG_RE.findall(text[start:end])
            if not PLACEHOLDER_RE.match(f)}


def experiment_params(text):
    # `{.name = "x", ...}` starts a ParamSpec; scenario device entries
    # use `.kind` on the same line and are skipped.
    params = set()
    for line in text.splitlines():
        m = re.search(r'\{\.name = "([a-z0-9_]+)"', line)
        if m and ".kind" not in line:
            params.add(m.group(1))
    return params


def main():
    runner_text = RUNNER.read_text()
    driver = driver_flags(runner_text)
    usage = usage_flags(runner_text)
    params = set()
    for path in sorted(EXPERIMENTS_DIR.glob("*.cpp")):
        params |= experiment_params(path.read_text())

    known = driver | params | TOOL_FLAGS
    failures = []

    for flag in sorted(usage - known):
        failures.append(f"unknown-usage-flag: pw_run usage text names "
                        f"--{flag}, which the driver does not accept")
    for flag in sorted(driver - usage):
        failures.append(f"undocumented-flag: driver flag --{flag} missing "
                        f"from pw_run's usage text (print_pw_run_usage)")

    doc_mentions = {}
    for doc in DOCS:
        path = REPO / doc
        if not path.exists():
            failures.append(f"missing-doc: {doc} does not exist")
            continue
        for flag in FLAG_RE.findall(path.read_text()):
            if not PLACEHOLDER_RE.match(flag):
                doc_mentions.setdefault(flag, set()).add(doc)

    for flag in sorted(doc_mentions.keys() - known):
        where = ", ".join(sorted(doc_mentions[flag]))
        failures.append(f"unknown-doc-flag: --{flag} ({where}) matches no "
                        f"driver flag, experiment parameter or tool flag")
    for flag in sorted(driver - doc_mentions.keys()):
        failures.append(f"undocumented-flag: driver flag --{flag} appears "
                        f"in none of {', '.join(DOCS)}")

    for flag in sorted(TOOL_FLAGS - doc_mentions.keys()):
        failures.append(f"unused-tool-flag: TOOL_FLAGS entry --{flag} is "
                        f"mentioned by none of {', '.join(DOCS)}; delete it")
    for flag in sorted(TOOL_FLAGS & (driver | params)):
        failures.append(f"shadowing-tool-flag: TOOL_FLAGS entry --{flag} "
                        f"is already a driver flag or experiment parameter; "
                        f"delete it")

    experiments_text = (REPO / "EXPERIMENTS.md").read_text() \
        if (REPO / "EXPERIMENTS.md").exists() else ""
    documented_params = set(FLAG_RE.findall(experiments_text))
    for param in sorted(params - documented_params):
        failures.append(f"undocumented-param: experiment parameter "
                        f"--{param} never appears in EXPERIMENTS.md")

    if failures:
        print(f"pw_checkflags: {len(failures)} drift failure(s)")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"pw_checkflags: OK ({len(driver)} driver flags, "
          f"{len(params)} experiment parameters, {len(DOCS)} docs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
