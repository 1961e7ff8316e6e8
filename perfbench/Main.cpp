//===----------------------------------------------------------------------===//
///
/// \file
/// janus_perfbench: one run of one benchmark workload.
///
///   janus_perfbench --workload paper-mix|spec-sharded|serve-open
///                   --seed N --seconds S --trace 0|1 [--short]
///                   [--spans-out FILE]
///
/// Prints a host stamp line, a metric table and, as the last line, the
/// result JSON. Exits 0 when every check passed, 1 when one failed and
/// 2 on a usage error. See README.md.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

/// Longest wait for a calm host, kept short so that a run on a host that
/// never calms down still ends in about 1.5 times --seconds plus set-up.
constexpr double MaxCalmWaitS = 5.0;

int usage(const char *Why) {
  std::fprintf(stderr,
               "janus_perfbench: %s\nusage: janus_perfbench --workload "
               "paper-mix|spec-sharded|serve-open --seed N --seconds S "
               "--trace 0|1 [--short] [--spans-out FILE]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    const char *Val = I + 1 < Argc ? Argv[I + 1] : nullptr;
    if (Arg == "--short") {
      O.Short = true;
      continue;
    }
    if (!Val)
      return usage(("missing value for " + Arg).c_str());
    ++I;
    char *End = nullptr;
    if (Arg == "--workload")
      O.Workload = Val;
    else if (Arg == "--seed")
      O.Seed = std::strtoull(Val, &End, 10);
    else if (Arg == "--seconds")
      O.Seconds = std::strtod(Val, &End);
    else if (Arg == "--trace")
      O.Trace = std::strcmp(Val, "1") == 0;
    else if (Arg == "--spans-out")
      O.SpansOut = Val;
    else
      return usage(("unknown option " + Arg).c_str());
    if (End && *End)
      return usage(("bad number for " + Arg).c_str());
  }
  if (!(O.Seconds > 0.0 && O.Seconds <= 600.0))
    return usage("--seconds must be in (0, 600]");

  void (*Run)(const Options &, Result &) = nullptr;
  if (O.Workload == "paper-mix")
    Run = runPaperMix;
  else if (O.Workload == "spec-sharded")
    Run = runSpecSharded;
  else if (O.Workload == "serve-open")
    Run = runServeOpen;
  else
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  // Hypervisor steal on a shared host comes in episodes of minutes that
  // slow every metric (the ordered loops several times over); start
  // measuring once the host is calm. The wait and the steal during the
  // run are recorded in the host stamp.
  const double CalmWaitS = O.Short ? 0.0 : waitForCalmHost(MaxCalmWaitS);
  Result Out;
  StealTimeline Steal;
  Run(O, Out);
  Steal.sample();
  const double StealFrac = Steal.total();
  if (O.Trace) {
    Out.metric("host.steal_frac", StealFrac, "ratio");
    Out.metric("host.calm_wait_s", CalmWaitS, "s");
  } else {
    Out.metric("success_frac", Out.successFrac(), "ratio");
  }
  if (O.Trace && !O.SpansOut.empty() && !spanLog().write(O.SpansOut))
    Out.wrong("cannot write spans to " + O.SpansOut);

  printHostStamp(O, StealFrac, CalmWaitS, Out.settings());
  Out.print();
  return Out.correct() ? 0 : 1;
}
