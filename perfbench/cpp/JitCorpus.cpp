//===- JitCorpus.cpp - Cold compiles of the ten workload kernels ----------===//
//
// Each round builds a fresh SharedRegion + Runtime and forces a cold
// compile of every (kernel, GPU configuration) pair through
// Runtime::kernelFootprint, in a seeded order, so every compile misses the
// program cache. Zero simulation: the frontend, the pass pipeline, the
// analyses and codegen do all the work. Every compile must succeed, and
// the Runtime's bytecode op mix must equal a reference compile made at
// set-up. The set-up compiles (repeated) and the traced rounds' layer-by-
// layer replicas must emit the same bytecode up to the order of
// independent instructions; compiles that differ only in that order are
// counted (codegen.nondeterministic_compiles), not failed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "workloads/Workload.h"

using namespace concord;
using namespace perfbench;

namespace {

struct Kernel {
  std::string Name;
  runtime::KernelSpec Spec;
};

std::vector<Kernel> corpus(bool Tiny) {
  std::vector<Kernel> Ks;
  auto Ws = workloads::allWorkloads();
  Ws.push_back(workloads::makeDegreeHistogram());
  for (const auto &W : Ws)
    if (!Tiny || W->name() == std::string("BFS") ||
        W->name() == std::string("SkipList"))
      Ks.push_back({W->name(), W->kernelSpec()});
  return Ks;
}

bool sameMix(const codegen::OpMixStats &A, const codegen::OpMixStats &B) {
  return A.Total == B.Total && A.ControlFlow == B.ControlFlow &&
         A.Memory == B.Memory;
}

} // namespace

Report perfbench::runJitCorpus(const Options &O, Tracer &T) {
  Report Rep;
  const bool Traced = T.on();
  T.setOn(false);
  const gpusim::MachineConfig Machine = gpusim::MachineConfig::ultrabook();
  Rng R(O.Seed);

  // Set-up, three times: the corpus and its reference compiles.
  std::vector<Kernel> Kernels;
  std::vector<CompileSample> Ref;
  std::vector<double> SetupWalls;
  for (int Rep3 = 0; Rep3 < 3; ++Rep3) {
    auto T0 = Clock::now();
    Kernels = corpus(O.Tiny);
    std::vector<CompileSample> Samples;
    for (size_t K = 0; K < Kernels.size(); ++K)
      for (unsigned C = 0; C < NumGpuConfigs; ++C) {
        Samples.push_back(replicaCompile(Kernels[K].Spec, gpuConfig(C),
                                         K * NumGpuConfigs + C, T));
        if (!Samples.back().Ok)
          Rep.error(Samples.back().Error);
      }
    SetupWalls.push_back(secondsSince(T0));
    if (!Rep.Errors.empty())
      return Rep;
    for (size_t I = 0; I < Ref.size(); ++I)
      checkDeterminism(Rep, Samples[I], Ref[I],
                       Kernels[I / NumGpuConfigs].Name + "/" +
                           GpuConfigNames[I % NumGpuConfigs]);
    if (Ref.empty())
      Ref = std::move(Samples);
  }
  Rep.set("setup_s", median(SetupWalls));
  for (const CompileSample &S : Ref)
    addCompileCounts(Rep, S);

  std::vector<std::pair<size_t, unsigned>> Pairs;
  for (size_t K = 0; K < Kernels.size(); ++K)
    for (unsigned C = 0; C < NumGpuConfigs; ++C)
      Pairs.emplace_back(K, C);

  // Measured phase: rounds until --seconds have passed. A traced run
  // traces the rounds of its second half and replicates their compiles
  // layer by layer after each round's timed part.
  std::vector<double> Walls[2], CompileMs;
  std::vector<std::vector<double>> KernelMs(Kernels.size());
  std::vector<CompileSample> Replicas;
  double RuntimeCompileMs = 0, UntracedWall = 0;
  auto Start = Clock::now();
  while (Rep.Errors.empty()) {
    const bool TracedRound = Traced && secondsSince(Start) >= O.Seconds / 2;
    T.setOn(TracedRound);
    shuffle(Pairs, R);
    std::vector<double> RoundKernelMs(Kernels.size(), 0);
    auto R0 = Clock::now();
    {
      svm::SharedRegion Region(64 << 20);
      runtime::Runtime RT(Machine, Region);
      for (const auto &[K, C] : Pairs) {
        const runtime::KernelSpec &Spec = Kernels[K].Spec;
        RT.setGpuOptions(gpuConfig(C));
        auto C0 = Clock::now();
        const analysis::KernelFootprint *Fp;
        {
          auto S = T.span("runtime.compile", K * NumGpuConfigs + C);
          Fp = RT.kernelFootprint(Spec);
        }
        double Ms = secondsSince(C0) * 1e3;
        ++Rep.Attempted;
        RoundKernelMs[K] += Ms;
        if (TracedRound)
          RuntimeCompileMs += Ms;
        else
          CompileMs.push_back(Ms);
        codegen::OpMixStats Mix;
        std::string Error;
        if (!Fp || !RT.staticStats(Spec, &Mix, &Error)) {
          ++Rep.Failed;
          Rep.error(Kernels[K].Name + "/" + GpuConfigNames[C] +
                    ": compile failed or unsupported: " + Error);
        } else if (!sameMix(Mix, Ref[K * NumGpuConfigs + C].Mix)) {
          ++Rep.Failed;
          Rep.error(Kernels[K].Name + "/" + GpuConfigNames[C] +
                    ": Runtime bytecode differs from the reference compile");
        }
      }
    }
    double Wall = secondsSince(R0);
    Walls[TracedRound].push_back(Wall);
    if (!TracedRound)
      UntracedWall += Wall;
    for (size_t K = 0; K < Kernels.size(); ++K)
      KernelMs[K].push_back(RoundKernelMs[K]);
    if (TracedRound)
      for (const auto &[K, C] : Pairs) {
        CompileSample S =
            replicaCompile(Kernels[K].Spec, gpuConfig(C), K * NumGpuConfigs + C, T);
        checkDeterminism(Rep, S, Ref[K * NumGpuConfigs + C],
                         Kernels[K].Name + "/" + GpuConfigNames[C]);
        Replicas.push_back(std::move(S));
      }
    if (secondsSince(Start) >= O.Seconds && !Walls[0].empty() &&
        (!Traced || !Walls[1].empty()))
      break;
  }
  T.setOn(Traced);

  Rep.set("wall_s", median(Walls[0]));
  Rep.set("throughput_per_s", double(CompileMs.size()) / UntracedWall);
  Rep.set("item_ms_p50", median(CompileMs));
  Tail CompileTail = tailOf(CompileMs);
  Rep.set("item_ms_tail", CompileTail.Value);
  for (size_t K = 0; K < Kernels.size(); ++K)
    Rep.set("jit." + Kernels[K].Name + ".compile_ms", median(KernelMs[K]));
  Rep.info("jit-corpus: %zu kernels x %u configs, %zu untraced + %zu traced "
           "rounds, 1 thread",
           Kernels.size(), NumGpuConfigs, Walls[0].size(), Walls[1].size());
  Rep.info("compile_ms_p50 = %.4f ms, compile_ms_tail = %.4f ms (p%.1f of "
           "%zu compiles)",
           median(CompileMs), CompileTail.Value, CompileTail.Percentile,
           CompileTail.Count);

  if (Traced && !Walls[1].empty()) {
    const double PerRound = 1.0 / double(Walls[1].size());
    for (const CompileSample &S : Replicas)
      addCompileTimes(Rep, S, PerRound);
    Rep.set("runtime.compile.ms", RuntimeCompileMs * PerRound);
    finishCompileBreakdown(Rep);
    Rep.set("trace.overhead_s", median(Walls[1]) - median(Walls[0]));
    probeLaunches(Rep, T, /*PerInst=*/true);
  }
  return Rep;
}
