#!/usr/bin/env python3
"""Every unit compiled into a politewifi library is linked into pw_run.

A static link pulls an archive member in only when the program needs a
symbol it defines, so the "Archive member included" section of pw_run's
link map is exactly the set of src/ units some pw_run path reaches. A
library member missing from that section is code only its own tests
call. This check fails on each one by name.

A few units are test-only on purpose. ALLOWLIST names them, each with
its reason. An allowlisted member that the link does include also
fails, so the list can only shrink.

  python3 tests/reach/pw_run_reach_test.py AR PW_RUN_MAP LIB.a [LIB.a ...]

AR is the archiver that lists members (`ar t`), PW_RUN_MAP the GNU ld
map written beside pw_run, and each LIB.a one politewifi library.
ctest runs it as `pw_run_reach`.
"""

import pathlib
import re
import subprocess
import sys

# (library, member) -> why pw_run never links it.
ALLOWLIST = {
    ("libpw_runtime.a", "schema.cpp.o"):
        "campaign/schema.cpp: the artifact-key catalogue that the campaign "
        "tests check documents against",
    ("libpw_phy.a", "timing.cpp.o"):
        "phy/timing.cpp: nav_for_ack, pinned by the PHY tests",
    ("libpw_common.a", "byte_buffer.cpp.o"):
        "common/byte_buffer.cpp: hex_dump, a debugging aid",
    ("libpw_common.a", "rng.cpp.o"):
        "common/rng.cpp: empty, rng.h is header-only",
    ("libpw_common.a", "units.cpp.o"):
        "common/units.cpp: empty, units.h is header-only",
}

SECTION = "Archive member included to satisfy reference by file (symbol)"
# GNU ld headers that can follow the archive-member section.
NEXT_SECTIONS = ("Allocating common symbols", "Discarded input sections",
                 "Memory Configuration")
MEMBER_LINE = re.compile(r"^(?:\S*/)?(lib[^/\s()]+\.a)\(([^)]+)\)")


def linked_members(map_text: str) -> set[tuple[str, str]]:
    start = map_text.find(SECTION)
    if start < 0:
        sys.exit(f"map has no '{SECTION}' section (a GNU ld map is "
                 "expected)")
    end = min((i for i in (map_text.find("\n" + h, start)
                           for h in NEXT_SECTIONS) if i >= 0),
              default=len(map_text))
    linked = set()
    for line in map_text[start:end].splitlines():
        match = MEMBER_LINE.match(line)
        if match:
            linked.add((match.group(1), match.group(2)))
    return linked


def archive_members(ar: str, library: pathlib.Path) -> list[str]:
    run = subprocess.run([ar, "t", str(library)], capture_output=True,
                         text=True, check=True)
    return [m for m in run.stdout.split() if m.endswith(".o")]


def main(argv: list[str]) -> int:
    if len(argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    ar, map_path, libraries = argv[1], pathlib.Path(argv[2]), argv[3:]
    linked = linked_members(map_path.read_text())
    unreached, stale, seen = [], [], set()
    for path in map(pathlib.Path, libraries):
        for member in archive_members(ar, path):
            key = (path.name, member)
            seen.add(key)
            if key in ALLOWLIST:
                if key in linked:
                    stale.append(f"{path.name}({member}): pw_run links it "
                                 "now")
            elif key not in linked:
                unreached.append(f"{path.name}({member})")
    for library, member in sorted(ALLOWLIST.keys() - seen):
        stale.append(f"{library}({member}): no such member any more")
    for name in unreached:
        print(f"FAIL {name}: compiled into the library but never linked "
              "into pw_run; only tests reach it")
    for entry in stale:
        print(f"FAIL {entry} (allowlisted; drop it from ALLOWLIST)")
    if unreached or stale:
        return 1
    print(f"ok: {len(libraries)} libraries, every member reached by pw_run "
          f"except {len(ALLOWLIST)} allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
