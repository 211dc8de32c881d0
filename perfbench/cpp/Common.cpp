//===- Common.cpp - Metric tables, statistics, probes, replica compile ---===//

#include "Bench.h"

#include "analysis/Coalescing.h"
#include "analysis/Commutativity.h"
#include "analysis/Footprint.h"
#include "analysis/PointsTo.h"
#include "codegen/CodeGen.h"
#include "frontend/Compile.h"
#include "support/Env.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <set>

using namespace concord;
using namespace perfbench;

const char *const perfbench::GpuConfigNames[NumGpuConfigs] = {
    "GPU", "GPU+PTROPT", "GPU+L3OPT", "GPU+ALL"};

transforms::PipelineOptions perfbench::gpuConfig(unsigned Index) {
  switch (Index) {
  case 0:
    return transforms::PipelineOptions::gpuBaseline();
  case 1:
    return transforms::PipelineOptions::gpuPtrOpt();
  case 2:
    return transforms::PipelineOptions::gpuL3Opt();
  default:
    return transforms::PipelineOptions::gpuAll();
  }
}

// Every name runPipeline reports through PipelineOptions::AfterPassHook.
const std::vector<std::string> perfbench::PassNames = {
    "tailRecursionElim", "devirtualize",      "inlineCalls", "simplifyCFG",
    "mem2reg",           "constantFold",      "cse",         "dce",
    "promoteBodyFields", "loopUnroll",        "soaLayout",   "l3ContentionOpt",
    "svmLowering",       "licm"};

const std::vector<std::string> perfbench::KernelNames = {
    "BarnesHut", "BFS",       "BTree",    "ClothPhysics", "ConnectedComponent",
    "FaceDetect", "Raytracer", "SkipList", "SSSP",        "DegreeHistogram"};

const std::vector<std::string> perfbench::LayerNames = {
    "frontend", "cir",   "transforms", "analysis", "codegen",
    "runtime",  "gpusim", "sched",     "svm",      "workloads"};

const std::vector<MetricDef> &perfbench::endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"wall_s", "s"},          {"setup_s", "s"},
      {"peak_rss_mb", "MB"},    {"throughput_per_s", "1/s"},
      {"item_ms_p50", "ms"},    {"item_ms_tail", "ms"},
  };
  return Defs;
}

const std::vector<MetricDef> &perfbench::perLayerMetrics() {
  static const std::vector<MetricDef> Defs = [] {
    std::vector<MetricDef> D = {
        {"gpusim.gpu.ns_per_warp_inst", "ns"},
        {"gpusim.cpu.ns_per_warp_inst", "ns"},
        {"gpusim.gpu.launch_fixed_us", "us"},
        {"gpusim.cpu.launch_fixed_us", "us"},
        {"gpusim.warp_insts", "count"},
        {"gpusim.lines_touched", "count"},
        {"gpusim.cache_misses", "count"},
        {"codegen.bytecode_insts", "count"},
        {"codegen.nondeterministic_compiles", "count"},
        {"codegen.ms", "ms"},
        {"transforms.translations_inserted", "count"},
        {"transforms.translations_removed", "count"},
        {"transforms.loops_unrolled", "count"},
        {"transforms.calls_inlined", "count"},
        {"transforms.vcalls_devirtualized", "count"},
        {"transforms.insts_removed", "count"},
        {"frontend.ms", "ms"},
        {"transforms.ms", "ms"},
        {"transforms.checks.ms", "ms"},
    };
    for (const std::string &P : PassNames)
      D.push_back({"transforms." + P + ".ms", "ms"});
    for (const char *N : {"cir.kernel_insts"})
      D.push_back({N, "count"});
    for (const char *N : {"analysis.footprint.ms", "analysis.alias_lint.ms",
                          "analysis.commutativity.ms",
                          "analysis.coalescing.ms", "runtime.compile.ms",
                          "runtime.compile_unattributed.ms",
                          "runtime.soa_sibling.ms"})
      D.push_back({N, "ms"});
    for (const std::string &K : KernelNames)
      D.push_back({"jit." + K + ".compile_ms", "ms"});
    for (const char *N :
         {"sched.submit.ms_p50", "sched.queue.ms_p50", "sched.execute.ms_p50"})
      D.push_back({N, "ms"});
    D.push_back({"sched.worker_busy", "ratio"});
    for (const char *N :
         {"sched.hazard_edges", "sched.placed_gpu", "sched.placed_cpu",
          "sched.hybrid_launches", "sched.affinity_hits", "sched.merge_tasks",
          "sched.shadow_reused", "sched.verify_rejected",
          "sched.max_in_flight", "runtime.soa_launches",
          "runtime.soa_fallbacks", "svm.failed_allocs"})
      D.push_back({N, "count"});
    for (const char *N : {"sched.fetched_bytes", "runtime.soa_staged_bytes",
                          "svm.peak_bytes"})
      D.push_back({N, "bytes"});
    D.push_back({"svm.alloc.us_p50", "us"});
    D.push_back({"svm.fragmentation", "ratio"});
    for (size_t I = 0; I + 1 < KernelNames.size(); ++I) {
      D.push_back({"workloads." + KernelNames[I] + ".setup_ms", "ms"});
      D.push_back({"workloads." + KernelNames[I] + ".run_s", "s"});
    }
    D.push_back({"trace.overhead_s", "s"});
    D.push_back({"trace.spans", "count"});
    for (const std::string &L : LayerNames)
      D.push_back({L + ".self_s", "s"});
    return D;
  }();
  return Defs;
}

void Report::info(const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Info.emplace_back(Buf);
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

Tail perfbench::tailOf(std::vector<double> V) {
  Tail T;
  T.Count = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  size_t Ix = V.size() > 10 ? V.size() - 11 : V.size() - 1;
  T.Value = V[Ix];
  T.Percentile = 100.0 * double(Ix + 1) / double(V.size());
  return T;
}

//===--- Fixed launch cost probe ------------------------------------------===//

namespace {

/// out[i] = in[i] * k + b: the frame pipeline's stage kernel, here
/// launched on one item to expose the per-launch host cost.
struct ProbeBody {
  float *In;
  float *Out;
  float K;
  float B;
};

const char *ProbeSource = R"(
  class ProbeBody {
  public:
    float* in;
    float* out;
    float k;
    float b;
    void operator()(int i) {
      out[i] = in[i] * k + b;
    }
  };
)";

} // namespace

void perfbench::probeLaunches(Report &Rep, Tracer &T, bool PerInst) {
  constexpr int64_t Items = 2048;
  svm::SharedRegion Region(16 << 20);
  gpusim::MachineConfig Machine = gpusim::MachineConfig::ultrabook();
  runtime::Runtime RT(Machine, Region);
  gpusim::SimOptions Sim;
  Sim.NumThreads = 1;
  RT.setSimOptions(Sim);
  auto *Body = Region.create<ProbeBody>();
  Body->In = Region.allocArray<float>(Items);
  Body->Out = Region.allocArray<float>(Items);
  for (int64_t I = 0; I < Items; ++I)
    Body->In[I] = float(I % 97) * 0.5f;
  Body->K = 1.25f;
  Body->B = 3.0f;
  const runtime::KernelSpec Spec{ProbeSource, "ProbeBody"};

  // Median wall time (us) and warp instructions of a cached launch of N
  // items; false after a wrong result.
  auto Probe = [&](bool OnCpu, int64_t N, int Repeats, double *Us,
                   double *Insts) {
    std::vector<double> Samples;
    for (int R = 0; R < Repeats; ++R) {
      Body->Out[N - 1] = 0;
      auto T0 = Clock::now();
      runtime::LaunchReport L;
      {
        auto S = T.span("gpusim.launch", uint64_t(N));
        L = RT.offload(Spec, N, Body, OnCpu);
      }
      Samples.push_back(secondsSince(T0) * 1e6);
      *Insts = double(L.Sim.WarpInstructions);
      if (!L.Ok || L.FellBack || !L.JitCached ||
          Body->Out[N - 1] != Body->In[N - 1] * 1.25f + 3.0f) {
        Rep.error(std::string("launch probe failed on ") +
                  (OnCpu ? "CPU" : "GPU") + ": " + L.Diagnostics);
        return false;
      }
    }
    *Us = median(Samples);
    return true;
  };
  const char *Dev[2] = {"gpu", "cpu"};
  for (int D = 0; D < 2; ++D) {
    const bool OnCpu = D == 1;
    RT.offload(Spec, 1, Body, OnCpu); // JIT compile, untimed.
    double FixedUs, OneInsts, FullUs, FullInsts;
    if (!Probe(OnCpu, 1, OnCpu ? 100 : 300, &FixedUs, &OneInsts))
      return;
    Rep.set(std::string("gpusim.") + Dev[D] + ".launch_fixed_us", FixedUs);
    if (!PerInst)
      continue;
    if (!Probe(OnCpu, Items, OnCpu ? 20 : 60, &FullUs, &FullInsts))
      return;
    // Marginal cost: the fixed per-launch part cancels out.
    Rep.set(std::string("gpusim.") + Dev[D] + ".ns_per_warp_inst",
            (FullUs - FixedUs) * 1e3 / (FullInsts - OneInsts));
  }
}

//===--- Replica of Runtime's cold compile --------------------------------===//

namespace {

/// Span names must outlive the tracer; dynamic ones are interned here.
const char *intern(const std::string &S) {
  static std::mutex M;
  static std::set<std::string> Names;
  std::lock_guard<std::mutex> Lock(M);
  return Names.insert(S).first->c_str();
}

double msSince(Clock::time_point T0) { return secondsSince(T0) * 1e3; }

uint64_t fnv(const std::vector<uint64_t> &Words) {
  uint64_t H = 1469598103934665603ull;
  for (uint64_t W : Words)
    H = (H ^ W) * 1099511628211ull;
  return H;
}

/// Exact hash: every field of every instruction, in program order.
uint64_t exactHash(const codegen::KernelProgram &P) {
  std::vector<uint64_t> W;
  for (const codegen::BKernel &K : P.Kernels) {
    for (char C : K.Name)
      W.push_back(uint64_t(uint8_t(C)));
    W.insert(W.end(), {K.NumRegs, K.NumArgs, K.FrameBytes});
    for (const codegen::BInst &I : K.Code)
      W.insert(W.end(),
               {uint64_t(I.Op), uint64_t(I.TypeK), I.Flags, I.Dst, I.A, I.B,
                I.Imm, I.Aux, uint64_t(uint32_t(I.Target)),
                uint64_t(uint32_t(I.Target2)),
                uint64_t(uint32_t(I.Reconverge))});
  }
  return fnv(W);
}

/// Order-insensitive hash: the multiset of instructions without their
/// register operands, plus each kernel's size and frame. Equal for two
/// compiles that differ only in the order of independent instructions.
uint64_t canonicalHash(const codegen::KernelProgram &P) {
  std::vector<uint64_t> W;
  for (const codegen::BKernel &K : P.Kernels) {
    std::vector<std::vector<uint64_t>> Insts;
    for (const codegen::BInst &I : K.Code)
      Insts.push_back({uint64_t(I.Op), uint64_t(I.TypeK), I.Flags, I.Imm,
                       I.Aux, uint64_t(uint32_t(I.Target)),
                       uint64_t(uint32_t(I.Target2)),
                       uint64_t(uint32_t(I.Reconverge))});
    std::sort(Insts.begin(), Insts.end());
    W.insert(W.end(), {K.Code.size(), K.NumRegs, K.NumArgs, K.FrameBytes});
    for (const std::vector<uint64_t> &I : Insts)
      W.insert(W.end(), I.begin(), I.end());
  }
  return fnv(W);
}

} // namespace

CompileSample perfbench::replicaCompile(const runtime::KernelSpec &Spec,
                                        const transforms::PipelineOptions &Opts,
                                        uint64_t Tag, Tracer &T) {
  CompileSample S;
  DiagnosticEngine Diags;
  std::unique_ptr<cir::Module> M;
  cir::Function *Entry = nullptr;
  auto T0 = Clock::now();
  {
    auto Span = T.span("frontend.compile", Tag);
    M = frontend::compileProgram(Spec.Source, Spec.BodyClass, Diags);
    if (M)
      Entry = frontend::createKernelEntry(*M, Spec.BodyClass, Diags);
  }
  S.Ms["frontend.ms"] = msSince(T0);
  if (!Entry || Diags.hasUnsupportedFeature()) {
    S.Error = Spec.BodyClass + ": frontend failed\n" + Diags.str();
    return S;
  }
  const std::string KernelName = Entry->name();

  // Each pass is timed from the previous pass boundary; whatever
  // runPipeline does after the last pass is its checks time.
  transforms::PipelineOptions PO = Opts;
  auto Last = Clock::now();
  PO.AfterPassHook = [&](cir::Module &, const char *Pass) {
    auto Now = Clock::now();
    std::string Name = std::string("transforms.") + Pass;
    S.Ms[Name + ".ms"] += std::chrono::duration<double, std::milli>(Now - Last)
                              .count();
    T.record(intern(Name), Tag, Last, Now);
    Last = Now;
  };
  transforms::PipelineStats Stats;
  std::string VerifyError;
  bool PipeOk;
  auto P0 = Clock::now();
  Last = P0;
  {
    auto Span = T.span("transforms.pipeline", Tag);
    PipeOk = transforms::runPipeline(*M, PO, Stats, &VerifyError, &Diags);
  }
  auto P1 = Clock::now();
  S.Ms["transforms.ms"] =
      std::chrono::duration<double, std::milli>(P1 - P0).count();
  S.Ms["transforms.checks.ms"] =
      std::chrono::duration<double, std::milli>(P1 - Last).count();
  if (!PipeOk || Diags.hasUnsupportedFeature()) {
    S.Error = Spec.BodyClass + ": pipeline failed: " + VerifyError;
    return S;
  }

  codegen::CodeGenResult CG;
  auto C0 = Clock::now();
  {
    auto Span = T.span("codegen.compile", Tag);
    CG = codegen::compileModule(*M);
  }
  S.Ms["codegen.ms"] = msSince(C0);
  const codegen::BKernel *BK =
      CG.ok() ? CG.Program.findKernel(KernelName) : nullptr;
  cir::Function *KF = M->findFunction(KernelName);
  if (!BK || !KF) {
    S.Error = Spec.BodyClass + ": codegen failed: " + CG.Error;
    return S;
  }
  S.Hash = exactHash(CG.Program);
  S.CanonicalHash = canonicalHash(CG.Program);
  S.Mix = BK->StaticStats;
  S.BytecodeInsts = BK->Code.size();
  {
    auto Span = T.span("cir.count", Tag);
    for (const auto &BB : *KF)
      S.KernelInsts += BB->size();
  }
  S.Stats = Stats;

  // The four analyses Runtime runs on every compiled kernel.
  bool Analyzed;
  auto A0 = Clock::now();
  {
    auto Span = T.span("analysis.footprint", Tag);
    Analyzed = analysis::computeFootprint(*KF).Analyzed;
  }
  auto A1 = Clock::now();
  {
    auto Span = T.span("analysis.alias_lint", Tag);
    analysis::lintPointerAliases(*KF);
  }
  auto A2 = Clock::now();
  {
    auto Span = T.span("analysis.commutativity", Tag);
    analysis::computeCommutativity(*KF, Opts.RelaxedFPReduction);
  }
  auto A3 = Clock::now();
  {
    auto Span = T.span("analysis.coalescing", Tag);
    analysis::computeCoalescing(*KF);
  }
  auto A4 = Clock::now();
  auto Ms = [](Clock::time_point A, Clock::time_point B) {
    return std::chrono::duration<double, std::milli>(B - A).count();
  };
  S.Ms["analysis.footprint.ms"] = Ms(A0, A1);
  S.Ms["analysis.alias_lint.ms"] = Ms(A1, A2);
  S.Ms["analysis.commutativity.ms"] = Ms(A2, A3);
  S.Ms["analysis.coalescing.ms"] = Ms(A3, A4);

  // Runtime's SOA sibling: a second frontend + pipeline (with the AoSoA
  // rewrite) + codegen for every analyzable GPU parallel-for kernel.
  if (Analyzed && support::env::soaTransformEnabled()) {
    auto S0 = Clock::now();
    auto Span = T.span("runtime.soa_sibling", Tag);
    DiagnosticEngine SDiags;
    auto SM = frontend::compileProgram(Spec.Source, Spec.BodyClass, SDiags);
    if (SM && frontend::createKernelEntry(*SM, Spec.BodyClass, SDiags) &&
        !SDiags.hasUnsupportedFeature()) {
      transforms::PipelineOptions SOpts = Opts;
      SOpts.EnableSoaLayout = true;
      transforms::PipelineStats SStats;
      transforms::SoaModulePlans Plans;
      std::string SErr;
      if (transforms::runPipeline(*SM, SOpts, SStats, &SErr, &SDiags,
                                  &Plans) &&
          !SDiags.hasUnsupportedFeature()) {
        auto PlanIt = Plans.find(KernelName);
        if (PlanIt != Plans.end() && PlanIt->second.active())
          codegen::compileModule(*SM);
      }
    }
    S.Ms["runtime.soa_sibling.ms"] = msSince(S0);
  }
  S.Ok = true;
  return S;
}

void perfbench::addCompileTimes(Report &Rep, const CompileSample &S,
                                double Weight) {
  for (const auto &[Name, Ms] : S.Ms)
    Rep.add(Name, Ms * Weight);
}

void perfbench::checkDeterminism(Report &Rep, const CompileSample &S,
                                 const CompileSample &Ref,
                                 const std::string &What) {
  if (!S.Ok || S.CanonicalHash != Ref.CanonicalHash)
    Rep.error(What + ": bytecode differs between identical compiles");
  else if (S.Hash != Ref.Hash)
    Rep.add("codegen.nondeterministic_compiles", 1);
}

void perfbench::addCompileCounts(Report &Rep, const CompileSample &S) {
  Rep.add("codegen.bytecode_insts", double(S.BytecodeInsts));
  Rep.add("cir.kernel_insts", double(S.KernelInsts));
  Rep.add("transforms.translations_inserted", S.Stats.TranslationsInserted);
  Rep.add("transforms.translations_removed", S.Stats.TranslationsRemoved);
  Rep.add("transforms.loops_unrolled", S.Stats.LoopsUnrolled);
  Rep.add("transforms.calls_inlined", S.Stats.CallsInlined);
  Rep.add("transforms.vcalls_devirtualized", S.Stats.VCallsDevirtualized);
  Rep.add("transforms.insts_removed", S.Stats.InstructionsRemoved);
}

void perfbench::finishCompileBreakdown(Report &Rep) {
  double Attributed = Rep.Values["frontend.ms"] + Rep.Values["transforms.ms"] +
                      Rep.Values["codegen.ms"];
  for (const char *A : {"analysis.footprint.ms", "analysis.alias_lint.ms",
                        "analysis.commutativity.ms", "analysis.coalescing.ms"})
    Attributed += Rep.Values[A];
  Rep.set("runtime.compile_unattributed.ms",
          Rep.Values["runtime.compile.ms"] - Attributed);
}
