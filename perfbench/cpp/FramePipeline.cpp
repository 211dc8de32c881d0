//===- FramePipeline.cpp - Closed-loop frames through sched::Scheduler ----===//
//
// The bench/sched_pipeline frame mix at its default 32768 items per
// launch. Each frame submits three RAW-chained axpb stages, a histogram
// accumulating into one bins array shared by every frame, a pointer chase
// over a seeded node ring (bounded by the points-to analysis to its pool)
// and an AoS pack (the SOA transform's target). One producer thread
// allocates each frame's buffers, fills them from seeded input sets and
// submits under MaxQueued backpressure; nproc/2 scheduler workers run the
// tasks with the default policy (Verify, hybrid, SOA) except data-aware
// placement, which is off (see Pipeline). Epochs of frames end in a drain,
// which folds the shared bins. Every frame's outputs are checked against a
// host reference before its buffers are freed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "sched/Scheduler.h"
#include "svm/ObjectStore.h"

#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

using namespace concord;
using namespace perfbench;

namespace {

struct Axpb {
  float *In;
  float *Out;
  float K;
  float B;
};
const char *AxpbSource = R"(
  class Axpb {
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

struct Hist {
  int32_t *Keys;
  int32_t *Bins;
};
const char *HistSource = R"(
  class Hist {
  public:
    int* keys;
    int* bins;
    void operator()(int i) {
      int h = keys[i];
      bins[h] = bins[h] + 1;
    }
  };
)";

struct ChaseNode {
  ChaseNode *Next;
  float Val;
};
struct Chase {
  ChaseNode *Head;
  float *Out;
  int32_t Len;
};
const char *ChaseSource = R"(
  class ChaseNode {
  public:
    ChaseNode* next;
    float val;
  };
  class Chase {
  public:
    ChaseNode* head;
    float* out;
    int len;
    void operator()(int i) {
      ChaseNode* n = head;
      float s = 0.0f;
      for (int k = 0; k < len; k++) {
        s = s + n->val;
        n = n->next;
      }
      out[i] = s;
    }
  };
)";

struct Pack {
  float *In;
  float *Out; ///< 2*N floats: element i = {in*k, in+k}.
  float K;
};
const char *PackSource = R"(
  class Pack {
  public:
    float* in;
    float* out;
    float k;
    void operator()(int i) {
      float v = in[i];
      out[2*i] = v * k;
      out[2*i+1] = v + k;
    }
  };
)";

const runtime::KernelSpec Specs[4] = {{AxpbSource, "Axpb"},
                                      {HistSource, "Hist"},
                                      {ChaseSource, "Chase"},
                                      {PackSource, "Pack"}};

constexpr int Stages = 3;
constexpr float Ks[Stages] = {1.25f, 0.75f, 1.5f};
constexpr float Bs[Stages] = {3.0f, -1.0f, 0.5f};
constexpr float PackK = 0.5f; // Halves keep the float math exact.
constexpr int HistBins = 64;
// 96 * 16-byte nodes: a size class no other allocation here requests, so
// the pool hull covers only node rings.
constexpr int ChaseLen = 96;
constexpr int ChaseItems = 256;
constexpr int NodeRings = 8;
constexpr int InputSets = 8;
constexpr size_t FramesOpen = 4; ///< Frames submitted ahead of retirement.

/// Everything built before the measured phase.
struct Setup {
  std::unique_ptr<svm::SharedRegion> Region;
  std::unique_ptr<runtime::Runtime> RT;
  int32_t *Bins = nullptr;
  std::vector<ChaseNode *> Heads, Pools;
  std::vector<float> ChaseSums;
  std::vector<std::vector<float>> Inputs;
  std::vector<std::vector<int32_t>> Keys;
  double CompileMs = 0;
};

/// Runs every kernel once on each device model on scratch buffers, so the
/// launch paths' lazy state (vtables, binding tables, SOA staging) exists
/// before timing.
bool warmUp(Setup &S, int Items, std::string *Error) {
  svm::SharedRegion &Rg = *S.Region;
  const size_t N = size_t(Items);
  float *In = Rg.allocArray<float>(N), *Out = Rg.allocArray<float>(2 * N);
  int32_t *Keys = Rg.allocArray<int32_t>(HistBins);
  int32_t *Bins = Rg.allocArray<int32_t>(HistBins);
  auto *A = Rg.create<Axpb>(Axpb{In, Out, 1.0f, 0.0f});
  auto *H = Rg.create<Hist>(Hist{Keys, Bins});
  auto *C = Rg.create<Chase>(Chase{S.Heads[0], Out, ChaseLen});
  auto *P = Rg.create<Pack>(Pack{In, Out, PackK});
  bool Ok = In && Out && Keys && Bins && A && H && C && P;
  if (Ok) {
    std::memcpy(In, S.Inputs[0].data(), N * sizeof(float));
    std::memcpy(Keys, S.Keys[0].data(), HistBins * sizeof(int32_t));
    std::memset(Bins, 0, HistBins * sizeof(int32_t));
  }
  const std::pair<int64_t, void *> Launches[4] = {
      {Items, A}, {HistBins, H}, {ChaseItems, C}, {Items, P}};
  for (int K = 0; Ok && K < 4; ++K)
    for (bool OnCpu : {false, true}) {
      runtime::LaunchReport L = S.RT->offload(Specs[K], Launches[K].first,
                                              Launches[K].second, OnCpu);
      if (Ok && (!L.Ok || L.FellBack)) {
        *Error = "warm-up launch of " + Specs[K].BodyClass + " failed: " +
                 L.Diagnostics;
        Ok = false;
      }
    }
  for (void *Ptr : {(void *)In, (void *)Out, (void *)Keys, (void *)Bins,
                    (void *)A, (void *)H, (void *)C, (void *)P})
    Rg.deallocate(Ptr);
  return Ok;
}

bool buildSetup(Setup &S, int Items, Rng &R, std::string *Error) {
  S.Region = std::make_unique<svm::SharedRegion>(256 << 20);
  // Runtime keeps a reference to its machine.
  static const gpusim::MachineConfig Machine =
      gpusim::MachineConfig::ultrabook();
  S.RT = std::make_unique<runtime::Runtime>(Machine, *S.Region);
  S.RT->setFootprintPolicy(runtime::FootprintPolicy::Verify);
  gpusim::SimOptions Sim;
  Sim.NumThreads = 1;
  S.RT->setSimOptions(Sim);
  S.Bins = S.Region->allocArray<int32_t>(HistBins);
  if (!S.Bins)
    return false;
  std::memset(S.Bins, 0, HistBins * sizeof(int32_t));
  // Node rings back to back, each linked in a seeded order.
  for (int P = 0; P < NodeRings; ++P) {
    ChaseNode *Nodes = S.Region->allocArray<ChaseNode>(ChaseLen);
    if (!Nodes)
      return false;
    // The walk starts at the allocation itself (poolExtent needs the
    // allocation's own address to bound the pool); the rest is permuted.
    std::vector<int> Perm(ChaseLen - 1);
    for (int K = 1; K < ChaseLen; ++K)
      Perm[size_t(K - 1)] = K;
    shuffle(Perm, R);
    Perm.insert(Perm.begin(), 0);
    float Sum = 0;
    for (int K = 0; K < ChaseLen; ++K) {
      ChaseNode &N = Nodes[Perm[size_t(K)]];
      N.Next = &Nodes[Perm[size_t((K + 1) % ChaseLen)]];
      N.Val = float(R() % 17) * 0.5f; // Exact float sums.
      Sum += N.Val;
    }
    S.Pools.push_back(Nodes);
    S.Heads.push_back(&Nodes[Perm[0]]);
    S.ChaseSums.push_back(Sum);
  }
  for (int Set = 0; Set < InputSets; ++Set) {
    std::vector<float> In(static_cast<size_t>(Items));
    for (float &V : In)
      V = float(R() % 97) * 0.5f + float(Set);
    S.Inputs.push_back(std::move(In));
    // One key per bin: within a launch every item owns its bin.
    std::vector<int32_t> Keys(HistBins);
    for (int I = 0; I < HistBins; ++I)
      Keys[size_t(I)] = I;
    shuffle(Keys, R);
    S.Keys.push_back(std::move(Keys));
  }
  // Compile the four kernels before timing.
  auto T0 = Clock::now();
  for (const runtime::KernelSpec &Spec : Specs)
    if (!S.RT->kernelFootprint(Spec)) {
      *Error = "kernel " + Spec.BodyClass + " failed to compile";
      return false;
    }
  S.CompileMs = secondsSince(T0) * 1e3;
  return warmUp(S, Items, Error);
}

/// One frame's buffers, bodies and task handles.
struct Frame {
  uint64_t Index = 0;
  int Set = 0, Ring = 0;
  float *In = nullptr, *Bufs[Stages] = {}, *PackOut = nullptr,
        *ChaseOut = nullptr;
  int32_t *Keys = nullptr;
  Axpb *StageBodies[Stages] = {};
  Hist *HistBody = nullptr;
  Chase *ChaseBody = nullptr;
  Pack *PackBody = nullptr;
  std::vector<sched::TaskHandle> Handles;
  Clock::time_point Submitted;
};

/// Measurements accumulated while frames retire.
struct Tally {
  std::vector<double> LatencyMs[2]; ///< [traced] per frame.
  std::vector<double> SubmitMs, QueueMs, ExecMs, AllocUs;
  double ExecSeconds = 0;
  double WarpInsts = 0, Lines = 0, Misses = 0, ModelledSeconds = 0;
};

class Pipeline {
public:
  Pipeline(Setup &S, int Items, unsigned Workers, Tracer &T, Report &Rep)
      : S(S), Items(Items), T(T), Rep(Rep) {
    sched::SchedulerOptions SO;
    SO.NumWorkers = Workers;
    SO.MaxQueued = 8;
    // Data-aware placement picks devices by host timing: the same run
    // placed 1000 to 4900 of 6000 tasks on the GPU model and its wall time
    // moved by 40 %. Off, every eligible task hybrid-splits (FIFO), which
    // holds the host work per frame fixed.
    SO.DataAwarePlacement = false;
    SO.OnTaskStart = [this](uint64_t Id) {
      auto Now = Clock::now();
      std::lock_guard<std::mutex> Lock(Mutex);
      Started[Id] = Now;
    };
    SO.OnTaskFinish = [this](uint64_t Id) {
      auto Now = Clock::now();
      std::lock_guard<std::mutex> Lock(Mutex);
      Finished[Id] = Now;
    };
    Sched = std::make_unique<sched::Scheduler>(*S.RT, SO);
  }
  Pipeline(const Pipeline &) = delete;
  Pipeline &operator=(const Pipeline &) = delete;

  /// Allocates, fills and submits frame \p Index.
  bool submitFrame(uint64_t Index, Rng &R);
  /// Waits for, verifies and frees the oldest open frames, keeping
  /// \p Keep of them open.
  void retire(size_t Keep, bool Traced);
  /// Drains the scheduler (folding the shared bins) and retires all.
  void drain(bool Traced) {
    {
      auto Sp = T.span("sched.drain");
      Sched->drain();
    }
    retire(0, Traced);
  }
  sched::Scheduler &scheduler() { return *Sched; }
  Tally Stats;

private:
  template <typename U> U *alloc(size_t N, uint64_t Tag) {
    auto T0 = Clock::now();
    auto Sp = T.span("svm.alloc", Tag);
    U *P = S.Region->allocArray<U>(N);
    Stats.AllocUs.push_back(secondsSince(T0) * 1e6);
    return P;
  }
  void submit(Frame &F, const runtime::KernelSpec &Spec, int64_t N,
              void *Body, sched::AccessSet Access);
  void release(Frame &F);

  Setup &S;
  int Items;
  Tracer &T;
  Report &Rep;
  std::deque<Frame> Open;
  std::mutex Mutex; ///< Guards Started and Finished (worker hooks).
  std::unordered_map<uint64_t, Clock::time_point> Started, Finished;
  std::unique_ptr<sched::Scheduler> Sched; ///< Last: joined first.
};

void Pipeline::submit(Frame &F, const runtime::KernelSpec &Spec, int64_t N,
                      void *Body, sched::AccessSet Access) {
  sched::TaskDesc D;
  D.Spec = Spec;
  D.N = N;
  D.BodyPtr = Body;
  D.Label = Spec.BodyClass;
  auto T0 = Clock::now();
  {
    auto Sp = T.span("sched.submit", F.Index);
    F.Handles.push_back(Sched->submit(std::move(D), std::move(Access)));
  }
  Stats.SubmitMs.push_back(secondsSince(T0) * 1e3);
}

bool Pipeline::submitFrame(uint64_t Index, Rng &R) {
  Frame F;
  F.Index = Index;
  F.Set = int(R() % InputSets);
  F.Ring = int(R() % NodeRings);
  const size_t N = size_t(Items);
  F.In = alloc<float>(N, Index);
  for (float *&B : F.Bufs)
    B = alloc<float>(N, Index);
  F.PackOut = alloc<float>(2 * N, Index);
  F.ChaseOut = alloc<float>(ChaseItems, Index);
  F.Keys = alloc<int32_t>(HistBins, Index);
  for (Axpb *&B : F.StageBodies)
    B = alloc<Axpb>(1, Index);
  F.HistBody = alloc<Hist>(1, Index);
  F.ChaseBody = alloc<Chase>(1, Index);
  F.PackBody = alloc<Pack>(1, Index);
  bool Ok = F.In && F.PackOut && F.ChaseOut && F.Keys && F.HistBody &&
            F.ChaseBody && F.PackBody;
  for (int St = 0; St < Stages; ++St)
    Ok = Ok && F.Bufs[St] && F.StageBodies[St];
  if (!Ok) {
    release(F);
    Rep.error("frame " + std::to_string(Index) + ": shared region exhausted");
    return false;
  }
  std::memcpy(F.In, S.Inputs[size_t(F.Set)].data(), N * sizeof(float));
  std::memcpy(F.Keys, S.Keys[size_t(F.Set)].data(),
              HistBins * sizeof(int32_t));

  F.Submitted = Clock::now();
  for (int St = 0; St < Stages; ++St) {
    float *In = St == 0 ? F.In : F.Bufs[St - 1];
    *F.StageBodies[St] = Axpb{In, F.Bufs[St], Ks[St], Bs[St]};
    submit(F, Specs[0], Items, F.StageBodies[St],
           sched::AccessSet().readArray(In, N).writeArray(F.Bufs[St], N));
  }
  *F.HistBody = Hist{F.Keys, S.Bins};
  submit(F, Specs[1], HistBins, F.HistBody,
         sched::AccessSet()
             .readArray(F.Keys, HistBins)
             .accumulateArray(S.Bins, HistBins));
  *F.ChaseBody = Chase{S.Heads[size_t(F.Ring)], F.ChaseOut, ChaseLen};
  svm::MemRange Hull = S.Region->poolExtent(S.Pools[size_t(F.Ring)]);
  submit(F, Specs[2], ChaseItems, F.ChaseBody,
         sched::AccessSet()
             .read(reinterpret_cast<const void *>(Hull.Begin), Hull.size())
             .writeArray(F.ChaseOut, ChaseItems));
  *F.PackBody = Pack{F.In, F.PackOut, PackK};
  submit(F, Specs[3], Items, F.PackBody,
         sched::AccessSet().readArray(F.In, N).writeArray(F.PackOut, 2 * N));
  Open.push_back(std::move(F));
  return true;
}

void Pipeline::release(Frame &F) {
  for (void *P : {(void *)F.In, (void *)F.PackOut, (void *)F.ChaseOut,
                  (void *)F.Keys, (void *)F.HistBody, (void *)F.ChaseBody,
                  (void *)F.PackBody}) {
    auto Sp = T.span("svm.free", F.Index);
    S.Region->deallocate(P);
  }
  for (int St = 0; St < Stages; ++St) {
    auto Sp = T.span("svm.free", F.Index);
    S.Region->deallocate(F.Bufs[St]);
    S.Region->deallocate(F.StageBodies[St]);
  }
}

void Pipeline::retire(size_t Keep, bool Traced) {
  while (Open.size() > Keep) {
    Frame F = std::move(Open.front());
    Open.pop_front();
    ++Rep.Attempted;
    std::string Error;
    Clock::time_point Done = F.Submitted;
    for (const sched::TaskHandle &H : F.Handles) {
      const sched::TaskResult &TR = H.wait();
      if (!TR.Ok && Error.empty())
        Error = TR.Label + " task failed: " + TR.Error;
      {
        // The execute span is recorded here, where the frame is known.
        std::lock_guard<std::mutex> Lock(Mutex);
        auto St = Started.find(TR.Id), Fi = Finished.find(TR.Id);
        if (St != Started.end() && Fi != Finished.end()) {
          Done = std::max(Done, Fi->second);
          T.record("sched.execute", F.Index, St->second, Fi->second);
          Started.erase(St);
          Finished.erase(Fi);
        }
      }
      Stats.QueueMs.push_back(TR.Timing.QueueSeconds * 1e3);
      Stats.ExecMs.push_back(TR.Timing.ExecuteSeconds * 1e3);
      Stats.ExecSeconds += TR.Timing.ExecuteSeconds;
      const gpusim::SimResult &Sim = TR.Report.Sim;
      Stats.WarpInsts += double(Sim.WarpInstructions);
      Stats.Lines += double(Sim.LinesTouched);
      Stats.Misses += double(Sim.CacheMisses);
      Stats.ModelledSeconds += Sim.Seconds;
    }
    Stats.LatencyMs[Traced].push_back(
        std::chrono::duration<double, std::milli>(Done - F.Submitted).count());

    // Host reference checks (the bins are checked per epoch).
    const std::vector<float> &In = S.Inputs[size_t(F.Set)];
    for (int I = 0; Error.empty() && I < Items; ++I) {
      float V = In[size_t(I)];
      for (int St = 0; St < Stages; ++St)
        V = V * Ks[St] + Bs[St];
      if (F.Bufs[Stages - 1][I] != V)
        Error = "stage chain item " + std::to_string(I) + " wrong";
      if (F.PackOut[2 * I] != In[size_t(I)] * PackK ||
          F.PackOut[2 * I + 1] != In[size_t(I)] + PackK)
        Error = "pack item " + std::to_string(I) + " wrong";
    }
    for (int I = 0; Error.empty() && I < ChaseItems; ++I)
      if (F.ChaseOut[I] != S.ChaseSums[size_t(F.Ring)])
        Error = "chase item " + std::to_string(I) + " wrong";
    if (!Error.empty()) {
      ++Rep.Failed;
      Rep.error("frame " + std::to_string(F.Index) + ": " + Error);
    }
    release(F);
  }
}

} // namespace

Report perfbench::runFramePipeline(const Options &O, Tracer &T) {
  Report Rep;
  const bool Traced = T.on();
  T.setOn(false);
  // At 2048 items per launch, where the fixed launch cost is about 60 % of
  // a launch, run-to-run spreads of frames/s and tail latency were about
  // twice those at 32768 items under the same host load.
  const int Items = O.Tiny ? 1024 : 32768;
  const int EpochFrames = O.Tiny ? 6 : 20;
  // A hybrid launch runs its CPU partition on a second thread, so two
  // threads per worker keep the simulation within nproc threads (the
  // producer mostly waits on backpressure).
  const unsigned Workers = std::max(1u, O.Threads / 2);
  Rng R(O.Seed);

  // Set-up, five times; the last one is kept.
  Setup S;
  std::vector<double> SetupWalls;
  for (int Rep5 = 0; Rep5 < 5; ++Rep5) {
    auto T0 = Clock::now();
    S.RT.reset(); // Before the region it points into.
    S = Setup();
    std::string Error = "shared region exhausted during set-up";
    if (!buildSetup(S, Items, R, &Error)) {
      Rep.error(Error);
      return Rep;
    }
    SetupWalls.push_back(secondsSince(T0));
  }
  Rep.set("setup_s", median(SetupWalls));

  // Measured phase: epochs of frames until --seconds have passed; a traced
  // run traces the epochs of its second half.
  std::vector<double> EpochWalls[2];
  uint64_t Frames = 0;
  double UntracedWall = 0;
  auto Start = Clock::now();
  double MeasuredWall;
  {
    Pipeline P(S, Items, Workers, T, Rep);
    while (Rep.Errors.empty()) {
      const bool TracedEpoch = Traced && secondsSince(Start) >= O.Seconds / 2;
      T.setOn(TracedEpoch);
      auto E0 = Clock::now();
      for (int F = 0; F < EpochFrames && Rep.Errors.empty(); ++F) {
        if (!P.submitFrame(Frames++, R))
          break;
        P.retire(FramesOpen, TracedEpoch);
      }
      P.drain(TracedEpoch);
      double Wall = secondsSince(E0);
      EpochWalls[TracedEpoch].push_back(Wall);
      if (!TracedEpoch)
        UntracedWall += Wall;
      for (int B = 0; B < HistBins; ++B)
        if (uint64_t(S.Bins[B]) != Frames) {
          Rep.error("bin " + std::to_string(B) + " holds " +
                    std::to_string(S.Bins[B]) + ", expected " +
                    std::to_string(Frames));
          break;
        }
      if (secondsSince(Start) >= O.Seconds && !EpochWalls[0].empty() &&
          (!Traced || !EpochWalls[1].empty()))
        break;
    }
    MeasuredWall = secondsSince(Start);
    T.setOn(Traced);

    const sched::Scheduler::Stats St = P.scheduler().stats();
    const Tally &Ta = P.Stats;
    if (St.VerifyRejected != 0)
      Rep.error(std::to_string(St.VerifyRejected) +
                " submissions rejected by access-set verification");
    const std::vector<double> &Lat = Ta.LatencyMs[0];
    Rep.set("wall_s", median(EpochWalls[0]));
    Rep.set("throughput_per_s",
            double(EpochWalls[0].size() * size_t(EpochFrames)) /
                UntracedWall);
    Rep.set("item_ms_p50", median(Lat));
    Tail LatTail = tailOf(Lat);
    Rep.set("item_ms_tail", LatTail.Value);
    Rep.info("frame-pipeline: %d items per launch, %d frames per epoch, "
             "%zu untraced + %zu traced epochs, 1 producer + %u workers, 1 "
             "simulator thread",
             Items, EpochFrames, EpochWalls[0].size(), EpochWalls[1].size(),
             Workers);
    Rep.info("frames_per_s = %.3f, frame_latency_ms_p50 = %.4f ms, "
             "frame_latency_ms_tail = %.4f ms (p%.1f of %zu frames)",
             double(EpochWalls[0].size() * size_t(EpochFrames)) / UntracedWall,
             median(Lat), LatTail.Value, LatTail.Percentile, LatTail.Count);
    // Placement and modelled figures depend on host timing: reported,
    // never gated.
    Rep.info("placement (not gated): %llu tasks, %llu gpu, %llu cpu, %llu "
             "hybrid, %llu affinity hits; modelled %.6f s over %.0f lines",
             (unsigned long long)St.Submitted,
             (unsigned long long)St.PlacedGpu,
             (unsigned long long)St.PlacedCpu,
             (unsigned long long)St.HybridLaunches,
             (unsigned long long)St.AffinityHits, Ta.ModelledSeconds,
             Ta.Lines);

    if (Traced) {
      Rep.set("trace.overhead_s",
              median(EpochWalls[1]) - median(EpochWalls[0]));
      Rep.set("sched.submit.ms_p50", median(Ta.SubmitMs));
      Rep.set("sched.queue.ms_p50", median(Ta.QueueMs));
      Rep.set("sched.execute.ms_p50", median(Ta.ExecMs));
      Rep.set("sched.worker_busy",
              Ta.ExecSeconds / (double(Workers) * MeasuredWall));
      Rep.set("sched.hazard_edges", double(St.HazardEdges));
      Rep.set("sched.placed_gpu", double(St.PlacedGpu));
      Rep.set("sched.placed_cpu", double(St.PlacedCpu));
      Rep.set("sched.hybrid_launches", double(St.HybridLaunches));
      Rep.set("sched.affinity_hits", double(St.AffinityHits));
      Rep.set("sched.fetched_bytes", double(St.FetchedBytes));
      Rep.set("sched.merge_tasks", double(St.MergeTasks));
      Rep.set("sched.shadow_reused", double(St.ShadowReused));
      Rep.set("sched.verify_rejected", double(St.VerifyRejected));
      Rep.set("sched.max_in_flight", double(St.MaxTasksInFlight));
      Rep.set("gpusim.warp_insts", Ta.WarpInsts);
      Rep.set("gpusim.lines_touched", Ta.Lines);
      Rep.set("gpusim.cache_misses", Ta.Misses);
      Rep.set("svm.alloc.us_p50", median(Ta.AllocUs));
    }
  }

  if (Traced) {
    runtime::RefinementStats RS = S.RT->refinementStats();
    Rep.set("runtime.soa_launches", double(RS.SoaLaunches));
    Rep.set("runtime.soa_fallbacks", double(RS.SoaFallbacks));
    Rep.set("runtime.soa_staged_bytes", double(RS.SoaStagedBytes));
    svm::RegionStats RSt = S.Region->stats();
    Rep.set("svm.peak_bytes", double(RSt.PeakBytes));
    Rep.set("svm.failed_allocs", double(RSt.FailedAllocs));
    if (const svm::ObjectStore *Store = S.Region->objectStore())
      Rep.set("svm.fragmentation", Store->fragmentation());
    Rep.set("runtime.compile.ms", S.CompileMs);
    for (size_t K = 0; K < 4; ++K) {
      CompileSample CS = replicaCompile(Specs[K], gpuConfig(NumGpuConfigs - 1),
                                        K, T);
      if (!CS.Ok)
        Rep.error(CS.Error);
      addCompileTimes(Rep, CS, 1.0);
      addCompileCounts(Rep, CS);
    }
    finishCompileBreakdown(Rep);
    probeLaunches(Rep, T, /*PerInst=*/true);
  }
  return Rep;
}
