#!/usr/bin/env python3
"""pw_lint: repo-specific determinism and hygiene checks for src/.

The simulator's results are exact-equivalence claims (byte-identical
survey output, bit-reproducible sweeps), so the classic ways C++ code
goes quietly nondeterministic are outright banned here and enforced by
CI rather than by review vigilance:

  wall-clock            time()/clock()/gettimeofday()/system_clock reads
                        anywhere outside common/clock.h — simulated time
                        comes from the Scheduler, never the host.
  raw-random            rand()/srand()/random_device/drand48 and any
                        #include <random> outside common/rng — all
                        randomness flows from seeded politewifi::Rng.
  raw-new               new/delete in the sim hot paths (src/sim,
                        src/mac, src/phy): per-event allocations are the
                        engine's historical perf bugs; use pools,
                        SmallFn capture, or values.
  missing-override      a `virtual` re-declaration in a derived class
                        without `override`: silently forks the vtable
                        when a base signature changes.
  banned-include        <ctime> (wall clock), <iostream> (iostream's
                        static init order + interleaved buffering;
                        library code does not print: results go to the
                        runtime's ResultSink, counts to obs/ metrics).
  by-value-bytes        a by-value `Bytes` / `std::vector<std::uint8_t>`
                        parameter in src/sim or src/frames: the payload
                        pipeline is zero-copy (shared PpduRef buffers);
                        a by-value octet parameter reintroduces a hidden
                        copy per call. Pass std::span<const std::uint8_t>
                        to read, Bytes&& to adopt, or a PpduRef to share.
                        Intentional owning sinks (builder-style setters
                        that move) use the inline escape hatch.
  raw-sim-construction  naming sim::Simulation / SimulationConfig inside
                        src/runtime/experiments/: an experiment's only
                        sanctioned seed source is RunContext::make_sim
                        (seeded from the run seed), so hand-constructed
                        simulations — and with them wall-clock or ad-hoc
                        seeds — can't sneak back into the suite.
  direct-timing         std::chrono::steady_clock reads in the
                        instrumented layers (src/sim, src/mac, src/phy,
                        src/runtime): timing there routes through
                        PW_TIMEIT / obs::ScopedTimer so it lands in the
                        metrics registry and the timeline profiler, and
                        compiles out with -DPW_METRICS=OFF. src/obs is
                        the one place allowed to read the clock.
  scalar-fer-in-fanout  a scalar phy::frame_error_rate call in
                        src/sim/medium.cpp: a frame-loss decision is
                        settled from the memoized FER bracket of its
                        SINR's 1/64 dB cell (Medium::frame_lost), and
                        the erfc/pow chain runs only to fill a memo line
                        or when the uniform lands inside the bracket; a
                        stray per-reception scalar call is exactly the
                        per-receiver FER cost the bracket removed. The
                        memo fill (fer_cell_end, which the coherence
                        auditor reuses) and the exact fallback (which
                        the test-only reference oracle takes for every
                        decision) carry the only sanctioned inline
                        allows.
  per-receiver-decode   a frames::deserialize / deserialize_into /
                        audit_deserialize call in src/sim/: the medium
                        decodes a transmission's shared intact octets
                        once and hands every intact receiver that one
                        result, and a damaged copy goes to the station as
                        octets, whose FCS is checked before any parse. A
                        parse on the delivery path brings back the
                        per-receiver CRC + parse + body copy the shared
                        decode removed. The record's decode and its audit
                        re-decode (both in Medium::intact_decode) and the
                        trace recorder's once-per-transmission packet
                        view carry the only sanctioned inline allows.

The unordered-iteration rule (range-for over an unordered container)
used to live here as a regex; it moved to tools/pw_analyze.py, whose
type resolution follows aliases, auto, find()-iterators and structured
bindings that a line regex cannot. pw_lint stays the cheap
token-pattern tier; pw_analyze is the AST-grade tier (see
CONTRIBUTING.md, "Static analysis & invariants").

Violations can be acknowledged in tools/pw_lint_allowlist.txt as
`path:rule  # justification` (the justification is mandatory), or
inline with `// pw-lint: allow(rule)` on the offending line. Unused
allowlist entries are themselves errors, so the file can only shrink.

Usage:
  python3 tools/pw_lint.py             # lint src/ (the CI gate)
  python3 tools/pw_lint.py FILES...    # lint specific files (pre-push)
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOWLIST_PATH = REPO / "tools" / "pw_lint_allowlist.txt"

# Directories whose event-rate makes per-event heap traffic a perf bug.
HOT_PATH_DIRS = ("src/sim", "src/mac", "src/phy")

# Directories on the zero-copy payload pipeline, where a by-value octet
# parameter means a hidden per-call copy.
BY_VALUE_DIRS = ("src/sim", "src/frames")

# Experiment pipelines must obtain simulations (and therefore seeds) from
# RunContext::make_sim, never by naming the Simulation type themselves.
EXPERIMENT_DIRS = ("src/runtime/experiments",)

# Layers instrumented by obs/: ad-hoc steady_clock reads there bypass
# the metrics registry and the PW_METRICS=OFF compile gate.
INSTRUMENTED_DIRS = ("src/sim", "src/mac", "src/phy", "src/runtime")

# Files on the medium fan-out, where per-receiver scalar FER calls are
# the historical throughput wall (the SoA batch pass exists to kill them).
FANOUT_FILES = ("src/sim/medium.cpp",)

# The simulator layer, where a frame parse per reception is the decode
# cost the shared per-transmission decode removed.
DECODE_DIRS = ("src/sim",)

# Linted roots for a no-argument run.
LINT_ROOTS = ("src",)

WALL_CLOCK_RE = re.compile(
    r"\b(?:time|clock|gettimeofday|clock_gettime|getrandom)\s*\("
    r"|std::chrono::(?:system_clock|high_resolution_clock)"
)
RAW_RANDOM_RE = re.compile(
    r"\b(?:rand|srand|rand_r|drand48|lrand48|random)\s*\("
    r"|std::random_device|\brandom_device\b"
)
RANDOM_INCLUDE_RE = re.compile(r'#\s*include\s*<random>')
BANNED_INCLUDE_RE = re.compile(r'#\s*include\s*<(ctime|iostream)>')
NEW_DELETE_RE = re.compile(r"(?<!::)\bnew\b(?!\s*\()|\bdelete\b")
VIRTUAL_RE = re.compile(r"^\s*virtual\b")
CLASS_WITH_BASE_RE = re.compile(
    r"\b(?:class|struct)\s+(\w+)[^;{]*:\s*(?:public|protected|private)\s"
)
INLINE_ALLOW_RE = re.compile(r"//\s*pw-lint:\s*allow\((\s*[\w-]+\s*)\)")
RAW_SIM_RE = re.compile(r"\bsim::Simulation\b|\bSimulationConfig\b")
# Clock *reads*, not duration math: duration_cast and chrono literals stay
# legal everywhere; naming steady_clock is what this rule fences off.
DIRECT_TIMING_RE = re.compile(r"\bsteady_clock\b")
# The scalar FER entry point exactly — `frame_error_rate_batch(` has a
# different next character and deliberately does not match.
SCALAR_FER_RE = re.compile(r"\bphy::frame_error_rate\s*\(")
# Every spelling of the MPDU parser, the audit's uncounted one included;
# the FCS check alone (fcs_valid) is not a parse.
DECODE_RE = re.compile(r"\b(?:audit_)?deserialize(?:_into)?\s*\(")
# A by-value octet-buffer parameter: `Bytes name` (no &/&&) directly after
# an opening paren or comma, or starting a continuation line of a wrapped
# signature. Matches parameters, not declarations (`Bytes x;`) or
# rvalue-reference adopters (`Bytes&& x`).
BY_VALUE_BYTES_RE = re.compile(
    r"(?:[(,]|^)\s*(?:politewifi::)?(?:frames::)?(?:common::)?"
    r"(?:Bytes|std::vector<std::uint8_t>)\s+\w+\s*[,)]"
)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure
    so reported line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(" " * (j - i))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Linter:
    def __init__(self, allowlist: dict[tuple[str, str], str]):
        self.allowlist = allowlist
        self.used_allows: set[tuple[str, str]] = set()
        self.violations: list[str] = []

    def report(self, path: Path, lineno: int, rule: str, message: str,
               raw_line: str) -> None:
        rel = path.relative_to(REPO).as_posix()
        inline = INLINE_ALLOW_RE.search(raw_line)
        if inline and inline.group(1).strip() == rule:
            return
        if (rel, rule) in self.allowlist:
            self.used_allows.add((rel, rule))
            return
        self.violations.append(f"{rel}:{lineno}: [{rule}] {message}")

    def lint_file(self, path: Path) -> None:
        rel = path.relative_to(REPO).as_posix()
        raw_text = path.read_text()
        raw_lines = raw_text.splitlines()
        code_lines = strip_comments_and_strings(raw_text).splitlines()
        in_rng = rel.startswith("src/common/rng")
        in_clock = rel == "src/common/clock.h"
        hot = rel.startswith(HOT_PATH_DIRS)
        zero_copy = rel.startswith(BY_VALUE_DIRS)
        experiment = rel.startswith(EXPERIMENT_DIRS)
        instrumented = rel.startswith(INSTRUMENTED_DIRS)
        fanout = rel in FANOUT_FILES
        decode_scope = rel.startswith(DECODE_DIRS)

        # Track "inside a derived class" with a brace-depth heuristic good
        # enough for this codebase's one-class-per-header style.
        derived_depth: list[int] = []
        depth = 0

        for idx, line in enumerate(code_lines):
            raw = raw_lines[idx] if idx < len(raw_lines) else ""
            lineno = idx + 1

            if not in_clock and WALL_CLOCK_RE.search(line):
                self.report(path, lineno, "wall-clock",
                            "host wall-clock read; simulated time comes "
                            "from the Scheduler", raw)
            if not in_rng:
                if RAW_RANDOM_RE.search(line):
                    self.report(path, lineno, "raw-random",
                                "raw randomness source; draw from a seeded "
                                "politewifi::Rng instead", raw)
                if RANDOM_INCLUDE_RE.search(line):
                    self.report(path, lineno, "raw-random",
                                "<random> outside common/rng", raw)
            if (m := BANNED_INCLUDE_RE.search(line)):
                self.report(path, lineno, "banned-include",
                            f"<{m.group(1)}> is banned in src/", raw)
            if hot and NEW_DELETE_RE.search(line) \
                    and not re.search(r"=\s*delete", line):
                self.report(path, lineno, "raw-new",
                            "raw new/delete in a sim hot path; pool it or "
                            "hold it by value", raw)
            if instrumented and DIRECT_TIMING_RE.search(line):
                self.report(path, lineno, "direct-timing",
                            "direct steady_clock read in an instrumented "
                            "layer; route timing through PW_TIMEIT "
                            "(obs/metrics.h) so it reaches the registry "
                            "and compiles out with PW_METRICS=OFF", raw)
            if fanout and SCALAR_FER_RE.search(line):
                self.report(path, lineno, "scalar-fer-in-fanout",
                            "scalar phy::frame_error_rate in the medium; "
                            "decide frame loss through Medium::frame_lost "
                            "(the memoized FER-bracket decision) instead",
                            raw)
            if decode_scope and DECODE_RE.search(line):
                self.report(path, lineno, "per-receiver-decode",
                            "frame parse in the simulator; an intact "
                            "delivery takes its transmission's shared "
                            "decode (Medium::intact_decode), a damaged "
                            "copy goes to the station as octets", raw)
            if experiment and RAW_SIM_RE.search(line):
                self.report(path, lineno, "raw-sim-construction",
                            "experiments build simulations through "
                            "RunContext::make_sim (run-seed derived), never "
                            "by hand", raw)
            if zero_copy and BY_VALUE_BYTES_RE.search(line):
                self.report(path, lineno, "by-value-bytes",
                            "by-value octet buffer on the payload pipeline; "
                            "pass std::span<const std::uint8_t>, Bytes&&, "
                            "or a PpduRef", raw)
            if CLASS_WITH_BASE_RE.search(line):
                derived_depth.append(depth)
            if derived_depth and VIRTUAL_RE.search(line) \
                    and "override" not in line and "final" not in line \
                    and "= 0" not in line and "~" not in line:
                self.report(path, lineno, "missing-override",
                            "virtual re-declaration in a derived class "
                            "without override", raw)
            depth += line.count("{") - line.count("}")
            while derived_depth and depth <= derived_depth[-1] \
                    and ("}" in line):
                derived_depth.pop()

    def check_unused_allows(self) -> None:
        for key, justification in sorted(self.allowlist.items()):
            if key not in self.used_allows:
                self.violations.append(
                    f"{ALLOWLIST_PATH.relative_to(REPO)}: unused allowlist "
                    f"entry {key[0]}:{key[1]} ({justification}) — delete it")


def load_allowlist() -> dict[tuple[str, str], str]:
    allows: dict[tuple[str, str], str] = {}
    if not ALLOWLIST_PATH.exists():
        return allows
    for lineno, line in enumerate(ALLOWLIST_PATH.read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "#" not in stripped:
            sys.exit(f"{ALLOWLIST_PATH}:{lineno}: entry without a "
                     "justification comment")
        entry, justification = stripped.split("#", 1)
        try:
            path, rule = entry.strip().rsplit(":", 1)
        except ValueError:
            sys.exit(f"{ALLOWLIST_PATH}:{lineno}: malformed entry "
                     f"'{entry.strip()}' (want path:rule  # why)")
        allows[(path, rule)] = justification.strip()
    return allows


def main(argv: list[str]) -> int:
    if argv:
        files = [Path(a).resolve() for a in argv]
    else:
        files = []
        for root in LINT_ROOTS:
            files += sorted((REPO / root).rglob("*.h")) + \
                sorted((REPO / root).rglob("*.cpp"))
    files = [f for f in files if f.suffix in (".h", ".cpp")
             and any((REPO / root) in f.parents for root in LINT_ROOTS)]
    linter = Linter(load_allowlist())
    for f in files:
        linter.lint_file(f)
    if not argv:  # full runs keep the allowlist honest
        linter.check_unused_allows()
    for v in linter.violations:
        print(v)
    if linter.violations:
        print(f"pw_lint: {len(linter.violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"pw_lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
