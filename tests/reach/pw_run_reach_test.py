#!/usr/bin/env python3
"""Every function a politewifi library defines is linked into pw_run.

A strong (`nm` type T) `politewifi::` function that a library defines
and pw_run does not contain is code that only tests call. This check
fails on each one by name, so such code does not stay in src/.

How exact the check is depends on the link, and the script works out
which link it has from its inputs:

  * A default link keeps whole archive members, so a member that pw_run
    needs keeps every function in it. The check then fails on each
    member nothing links (all of its functions are missing).
  * A link of objects built with -ffunction-sections -fdata-sections and
    linked with --gc-sections keeps only the functions pw_run reaches.
    At -O0 nothing is inlined, so the check is exact at function level.
    -fdata-sections matters: without it a switch's jump table in the
    member's shared .rodata keeps a dead function alive. Such a link
    keeps part of some member, and that is how the script detects it.

A few functions are not reached by pw_run on purpose. ALLOWLIST names
each, with its reason. An allowlisted function that no library defines
fails, and so does one that pw_run contains in a gc'd link, so the
list can only shrink. Inline and template (weak, `nm` type W) functions
are out of scope.

  python3 tests/reach/pw_run_reach_test.py NM PW_RUN LIB.a [LIB.a ...]

NM is the GNU nm that lists symbols, PW_RUN the linked binary and each
LIB.a one politewifi library. ctest runs it as `pw_run_reach`; CI's
`reach` job runs it on the gc'd build (CONTRIBUTING.md, "Reach").
"""

import pathlib
import subprocess
import sys

_STRING = ("std::__cxx11::basic_string<char, std::char_traits<char>, "
           "std::allocator<char> >")
_BYTES = "std::vector<unsigned char, std::allocator<unsigned char> >"
_SPAN = "std::span<{}, 18446744073709551615ul>"

# Demangled signature -> why pw_run never calls it.
ALLOWLIST = {
    # Audit and test hooks.
    "politewifi::sim::Scheduler::run_one()":
        "test hook: the SchedulerPool reference-model tests step the event "
        "loop one event at a time",
    "politewifi::sim::Scheduler::run_all()":
        "test hook: the SchedulerPool and SchedulerAudit tests drain the "
        "event loop",
    "politewifi::sim::Medium::audit_coherence() const":
        "audit hook: PW_AUDIT builds call it from the medium; tests call "
        "it directly",
    "politewifi::frames::PpduPool::audit() const":
        "audit hook: Medium::audit_coherence calls it in PW_AUDIT builds",
    "politewifi::contract::set_failure_handler(void (*)(" + _STRING +
    " const&))":
        "test hook: Contract.FailureHandlerReceivesFormattedMessage "
        "catches a failed check instead of aborting",
    # References that tests compare against.
    "politewifi::phy::ChannelModel::node_db(unsigned long, unsigned long, "
    "unsigned long) const":
        "reference: the fading bridge's pure node value; the medium audit "
        "and ChannelModel.FadingDisabledDrawsNothing check cached nodes "
        "against it",
    "politewifi::phy::LogDistancePathLoss::loss_db(double, "
    "politewifi::Rng*) const":
        "reference: the plain log-distance model that "
        "ChannelModel.StaticGainIsLogDistancePlusShadowing and the "
        "Propagation tests check the static term against",
    "politewifi::runtime::campaign::campaign_schema()":
        "reference: the campaign artifact-key catalogue that the CampaignDoc "
        "tests and CampaignDriverTest check documents against",
    "politewifi::runtime::campaign::is_campaign_schema_field(char const*)":
        "reference: the catalogue lookup of the same tests",
    # Functions benchmark/pw_bench.cpp calls.
    "politewifi::phy::frame_error_rate_batch(politewifi::phy::PhyRate, " +
    _SPAN.format("double const") + ", unsigned long, " +
    _SPAN.format("double") + ")":
        "benchmark: pw_bench times it as phy.fer_batch_ns_per_rx",
    "politewifi::sim::Medium::transmit(politewifi::sim::Radio&, " +
    _SPAN.format("unsigned char const") +
    ", politewifi::phy::TxVector const&)":
        "benchmark: pw_bench's fan-out layer transmits raw octets",
    # Table 1, a paper scenario that only ctest runs.
    "politewifi::scenario::table1_devices()":
        "Table 1: the chipset bench that Table1.EveryProfileAcksEveryFake "
        "and DeviceProfiles.Table1MatchesPaper run",
    "politewifi::scenario::esp8266()":
        "Table 1: the ESP8266 row Table1.EveryProfileAcksEveryFake adds and "
        "DeviceProfiles.Esp8266IsLowPower checks",
    # The platform decides which integer overload pw_run calls.
    "politewifi::common::Json::Json(unsigned long long)":
        "platform: pw_run's std::uint64_t values take this overload where "
        "uint64_t is unsigned long long, and Json(unsigned long) where "
        "it is unsigned long",
    # Test scaffolding: the MAC's data path and link set-up, which no
    # pw_run experiment drives but the named tests need.
    "politewifi::mac::ClientRole::send_msdu(" + _BYTES + ")":
        "test scaffolding: uplink data in Integration.EncryptedUplinkDelivers, "
        "PowerSave.UplinkFromDozeWakesTransmitsAndRedozes and "
        "BatteryGuard.StaysQuietWithoutAttack",
    "politewifi::mac::ApRole::send_to_client(politewifi::MacAddress "
    "const&, " + _BYTES + ")":
        "test scaffolding: downlink data that "
        "PowerSave.DozeAnnouncedWithPmBitAndApBuffers, "
        "PowerSave.TimWakesClientAndPsPollRetrievesEverything and "
        "PowerSave.ClientRedozesAfterDelivery buffer and release",
    "politewifi::mac::ClientRole::install_established(politewifi::"
    "MacAddress const&, unsigned short, politewifi::crypto::Ptk const&)":
        "test scaffolding: HostileFrames.ParsersSurviveAndPoliteStations"
        "AckWhateverTheBody gives a client an established link without a "
        "handshake",
    "politewifi::mac::ApRole::install_established_client(politewifi::"
    "MacAddress const&, politewifi::crypto::Ptk const&)":
        "test scaffolding: the same HostileFrames test gives an AP an "
        "established link without a handshake",
    "politewifi::phy::PhyRate::name[abi:cxx11]() const":
        "audit and test diagnostics: names a rate in the medium audit's "
        "FER-memo failure message (PW_AUDIT builds) and in the "
        "ErrorModel, RateSweep and AckRateSweep failure messages",
}


def nm_lines(nm: str, path: str) -> list[str]:
    run = subprocess.run([nm, "--defined-only", "-C", path],
                         capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def library_functions(nm: str, library: pathlib.Path) -> dict[str, str]:
    """Strong politewifi:: functions -> the member that defines them."""
    functions, member = {}, None
    for line in nm_lines(nm, str(library)):
        if line.endswith(":") and " " not in line:
            member = line[:-1]
            continue
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] == "T" and \
                parts[2].startswith("politewifi::"):
            functions[parts[2]] = f"{library.name}({member})"
    return functions


def main(argv: list[str]) -> int:
    if len(argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    nm, pw_run, libraries = argv[1], argv[2], argv[3:]
    linked = {line.split(" ", 2)[2] for line in nm_lines(nm, pw_run)
              if line.count(" ") >= 2}
    # Keyed by demangled name, so a constructor's C1 and C2 symbols are
    # one function.
    defined = {}
    for library in map(pathlib.Path, libraries):
        defined.update(library_functions(nm, library))
    # A link that kept part of some member was gc'd.
    kept = {}
    for name, member in defined.items():
        kept.setdefault(member, set()).add(name in linked)
    gc_link = any(len(flags) == 2 for flags in kept.values())

    failures = []
    for name, member in sorted(defined.items()):
        if name not in linked and name not in ALLOWLIST:
            failures.append(f"FAIL {name} [{member}]: defined in a library "
                            "but not linked into pw_run; only tests reach "
                            "it")
    for name in sorted(ALLOWLIST):
        if name not in defined:
            failures.append(f"FAIL {name} (allowlisted): no library defines "
                            "it any more; drop it from ALLOWLIST")
        elif gc_link and name in linked:
            failures.append(f"FAIL {name} (allowlisted): pw_run calls it "
                            "now; drop it from ALLOWLIST")
    for failure in failures:
        print(failure)
    if failures:
        return 1
    level = ("function level (gc'd link)" if gc_link else
             "member level (whole members linked)")
    missing = sum(name not in linked for name in defined)
    print(f"ok at {level}: {len(defined)} functions in {len(libraries)} "
          f"libraries; {missing} not in pw_run, all among the "
          f"{len(ALLOWLIST)} allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
