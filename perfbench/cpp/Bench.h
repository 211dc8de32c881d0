//===- Bench.h - Shared pieces of the perfbench binary ---------*- C++ -*-===//
///
/// \file
/// Options, the metric tables, the run report and the small statistics
/// helpers shared by the three benchmark workloads (fig7-matrix,
/// jit-corpus, frame-pipeline). Every number here is measured from outside
/// the Concord libraries, by timing calls into their public functions.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Trace.h"

#include "runtime/Runtime.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Self-test size: a few cells, kernels and frames instead of the full
  /// workload, and no golden checks that need the full matrix.
  bool Tiny = false;
  std::string TraceOut; ///< Chrome trace JSON path (traced runs).
  unsigned Threads = 1; ///< Host thread budget (nproc).
};

/// The four GPU compiler configurations of Figure 7, in paper order.
constexpr unsigned NumGpuConfigs = 4;
extern const char *const GpuConfigNames[NumGpuConfigs];
concord::transforms::PipelineOptions gpuConfig(unsigned Index);

/// The names of the per-layer metrics that expand per pass, kernel or
/// workload; the metric tables below are built from them.
extern const std::vector<std::string> PassNames;
extern const std::vector<std::string> KernelNames; ///< Table-1 nine + histogram.
extern const std::vector<std::string> LayerNames;

struct MetricDef {
  std::string Name;
  std::string Unit;
};

/// Every end-to-end metric, printed by every untraced run.
const std::vector<MetricDef> &endToEndMetrics();
/// Every per-layer metric, printed by every traced run (0 when the
/// workload does not exercise that layer).
const std::vector<MetricDef> &perLayerMetrics();

/// What one run measured and whether its outputs were right.
struct Report {
  uint64_t Attempted = 0; ///< Cells, compiles or frames attempted.
  uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< Wrong outputs; any makes it incorrect.
  std::map<std::string, double> Values;
  /// Figures printed for humans but not listed in BENCHMARK.json
  /// (workload-specific names, modelled numbers, sample counts).
  std::vector<std::string> Info;

  void error(std::string Msg) { Errors.push_back(std::move(Msg)); }
  void set(const std::string &Name, double Value) { Values[Name] = Value; }
  void add(const std::string &Name, double Value) { Values[Name] += Value; }
  void info(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// Median (mean of the two middle samples for even counts); 0 when empty.
double median(std::vector<double> V);

/// The highest percentile with at least ten samples beyond it (the
/// maximum when there are fewer than eleven samples).
struct Tail {
  double Value = 0;
  double Percentile = 100;
  size_t Count = 0;
};
Tail tailOf(std::vector<double> V);

/// Seeded generator used for every input and every permutation.
using Rng = std::mt19937_64;

/// Deterministic Fisher-Yates shuffle (std::shuffle's algorithm is
/// library-defined; this one is the same everywhere).
template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[size_t(R() % I)]);
}

/// Times cached Runtime::offload launches of an axpb kernel on the GPU
/// and CPU models: the median one-item launch is the fixed per-launch
/// cost (gpusim.<dev>.launch_fixed_us); with \p PerInst, the marginal
/// cost of a 2048-item launch per extra warp instruction is
/// gpusim.<dev>.ns_per_warp_inst.
void probeLaunches(Report &Rep, Tracer &T, bool PerInst);

/// One compile of one kernel under one configuration, layer by layer.
struct CompileSample {
  bool Ok = false;
  std::string Error;
  uint64_t Hash = 0;          ///< Of every emitted bytecode field.
  uint64_t CanonicalHash = 0; ///< Ignores independent-instruction order.
  concord::codegen::OpMixStats Mix;
  uint64_t BytecodeInsts = 0, KernelInsts = 0;
  concord::transforms::PipelineStats Stats;
  std::map<std::string, double> Ms; ///< Per-layer metric name -> ms.
};

/// Compiles \p Spec under \p Opts by calling the frontend, the pass
/// pipeline, codegen and the four kernel analyses directly (the sequence
/// Runtime's cold compile runs), then the SOA sibling compile Runtime adds
/// for analyzable kernels. Spans carry \p Tag.
CompileSample replicaCompile(const concord::runtime::KernelSpec &Spec,
                             const concord::transforms::PipelineOptions &Opts,
                             uint64_t Tag, Tracer &T);
/// Adds a sample's per-layer times, scaled by \p Weight.
void addCompileTimes(Report &Rep, const CompileSample &S, double Weight);
/// Compares \p S with the reference compile \p Ref of the same kernel
/// and configuration: a canonical mismatch is an error; an exact-only
/// mismatch (independent instructions emitted in another order) counts
/// in codegen.nondeterministic_compiles.
void checkDeterminism(Report &Rep, const CompileSample &S,
                      const CompileSample &Ref, const std::string &What);
/// Adds a sample's exact counts (bytecode, CIR and pass statistics).
void addCompileCounts(Report &Rep, const CompileSample &S);
/// Sets runtime.compile_unattributed.ms: runtime.compile.ms less the
/// frontend, pipeline, codegen and analysis times already in \p Rep.
void finishCompileBreakdown(Report &Rep);

Report runFig7Matrix(const Options &O, Tracer &T);
Report runJitCorpus(const Options &O, Tracer &T);
Report runFramePipeline(const Options &O, Tracer &T);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
