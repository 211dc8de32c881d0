//===- Main.cpp - perfbench entry point -----------------------------------===//
//
// perfbench --workload <fig7-matrix|jit-corpus|frame-pipeline> --seed N
//           --seconds S --trace 0|1 [--trace-out PATH] [--tiny]
//
// Prints a host record, human-readable figures ("info" lines), every
// metric as "metric <name> <value> <unit>", and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced. Exits 1 when any output
// was wrong, 2 on a bad command line.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fig7-matrix|jit-corpus|frame-pipeline> --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--tiny]\n",
               Msg);
  return 2;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    const char *Val = I + 1 < argc ? argv[I + 1] : nullptr;
    if (Arg == "--tiny") {
      O.Tiny = true;
      continue;
    }
    if (!Val)
      return usage(("missing value for " + Arg).c_str());
    ++I;
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = Val;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Val, &End, 10);
      HaveSeed = *Val && !*End;
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Val, &End);
      HaveSeconds = *Val && !*End && O.Seconds > 0 && O.Seconds <= 3600;
    } else if (Arg == "--trace") {
      HaveTrace = !std::strcmp(Val, "0") || !std::strcmp(Val, "1");
      O.Trace = !std::strcmp(Val, "1");
    } else if (Arg == "--trace-out") {
      O.TraceOut = Val;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds and --trace need valid values");
  O.Threads = std::max(1u, std::thread::hardware_concurrency());

  Report (*Run)(const Options &, Tracer &) = nullptr;
  if (O.Workload == "fig7-matrix")
    Run = runFig7Matrix;
  else if (O.Workload == "jit-corpus")
    Run = runJitCorpus;
  else if (O.Workload == "frame-pipeline")
    Run = runFramePipeline;
  else
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  std::printf("host nproc=%u build=%s compiler=\"%s\" workload=%s seed=%llu "
              "seconds=%g trace=%d tiny=%d\n",
              O.Threads, PERFBENCH_BUILD_TYPE, __VERSION__,
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Seconds,
              int(O.Trace), int(O.Tiny));
  std::fflush(stdout);

  Tracer T(O.Trace);
  Report Rep = Run(O, T);

  rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  Rep.set("peak_rss_mb", double(Usage.ru_maxrss) / 1024.0);
  if (O.Trace) {
    Rep.set("trace.spans", double(T.size()));
    for (const auto &[Layer, Seconds] : T.selfSecondsByLayer())
      Rep.set(Layer + ".self_s", Seconds);
    if (!O.TraceOut.empty() && !T.writeChrome(O.TraceOut))
      Rep.error("cannot write trace to " + O.TraceOut);
  }

  for (const std::string &Line : Rep.Info)
    std::printf("info %s\n", Line.c_str());
  std::printf("info fail_ratio = %llu/%llu\n",
              (unsigned long long)Rep.Failed,
              (unsigned long long)Rep.Attempted);
  for (const std::string &E : Rep.Errors)
    std::printf("error %s\n", E.c_str());

  const std::vector<MetricDef> &Defs =
      O.Trace ? perLayerMetrics() : endToEndMetrics();
  std::string Json;
  for (const MetricDef &D : Defs) {
    auto It = Rep.Values.find(D.Name);
    double V = It == Rep.Values.end() ? 0.0 : It->second;
    if (!std::isfinite(V)) {
      Rep.error("metric " + D.Name + " is not finite");
      V = 0;
    }
    std::printf("metric %s %.17g %s\n", D.Name.c_str(), V, D.Unit.c_str());
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, "
                                    "\"unit\": \"%s\"}",
                  Json.empty() ? "" : ", ", jsonEscape(D.Name).c_str(), V,
                  D.Unit.c_str());
    Json += Buf;
  }
  const bool Correct = Rep.Errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              (unsigned long long)std::max<uint64_t>(1, Rep.Attempted),
              (unsigned long long)Rep.Failed, Json.c_str());
  return Correct ? 0 : 1;
}
