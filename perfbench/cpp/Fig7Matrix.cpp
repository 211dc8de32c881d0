//===- Fig7Matrix.cpp - The Figure 7 sweep --------------------------------===//
//
// The nine Table-1 workloads x {CPU, GPU, GPU+PTROPT, GPU+L3OPT, GPU+ALL}
// on the ultrabook machine model. Every cell has its own shared region and
// workload instance, set up before the measured phase; a sweep runs the
// cells in a seeded order on nproc host threads, each cell with a fresh
// Runtime and one simulator thread, and verifies every cell. The parallel
// epoch engine (SimOptions::NumThreads > 1) stays off the measured path:
// cell parallelism is the faster way to use the host's cores here.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "workloads/Workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>

using namespace concord;
using namespace perfbench;

namespace {

constexpr unsigned Cols = NumGpuConfigs + 1; // Column 0 is the CPU model.

/// Modelled GPU+ALL-vs-CPU geomeans of the full matrix at the printed
/// precision of EXPERIMENTS.md; any drift in the simulator's output fails
/// the run.
constexpr long GoldenSpeedupPct = 256;
constexpr long GoldenEnergySavingPct = 224;

/// Length of the frame run that measures the scheduler layers.
constexpr double FrameLayerSeconds = 10;

/// Fastest workloads, used by the self-test's tiny matrix.
const char *const TinyWorkloads[] = {"BFS", "ClothPhysics"};

/// Dispatch rank of a cell: the rows with the longest cells first (their
/// CPU cell first), everything else after. With nproc cells in flight a
/// long cell started late stretches the sweep; in a random order that
/// alone moves the sweep's wall time by about 10 %, so the seed permutes
/// cells only within a rank.
int dispatchRank(const std::string &Name, unsigned Col) {
  const char *const Heaviest[] = {"FaceDetect", "BarnesHut", "Raytracer"};
  for (int R = 0; R < 3; ++R)
    if (Name == Heaviest[R])
      return 2 * R + (Col != 0);
  return 6;
}

struct Cell {
  std::string Name;
  unsigned Col = 0;
  std::unique_ptr<workloads::Workload> Work;
  std::unique_ptr<svm::SharedRegion> Region;
  double SetupMs = 0;
  // Latest sweep's outcome.
  bool Ok = false;
  std::string Error;
  double Seconds = 0, Joules = 0, WallSeconds = 0;
};

std::string cellName(const Cell &C) {
  return C.Name + "/" + (C.Col == 0 ? "CPU" : GpuConfigNames[C.Col - 1]);
}

/// Runs Fn(0..N-1) on \p Jobs threads, each pulling the next index.
void forEachParallel(unsigned Jobs, size_t N,
                     const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < N;)
      Fn(I);
  };
  std::vector<std::thread> Threads;
  for (unsigned J = 1; J < std::min<size_t>(Jobs, N); ++J)
    Threads.emplace_back(Work);
  Work();
  for (std::thread &T : Threads)
    T.join();
}

gpusim::SimOptions oneSimThread() {
  gpusim::SimOptions S;
  S.NumThreads = 1;
  return S;
}

/// One measured sweep over every cell in \p Order; returns its wall time.
double sweep(std::vector<Cell> &Cells, const std::vector<size_t> &Order,
             unsigned Jobs, const gpusim::MachineConfig &Machine, Tracer &T) {
  auto T0 = Clock::now();
  forEachParallel(Jobs, Order.size(), [&](size_t I) {
    Cell &C = Cells[Order[I]];
    auto C0 = Clock::now();
    workloads::WorkloadRun Run;
    {
      auto S = T.span("workloads.run", Order[I]);
      runtime::Runtime RT(Machine, *C.Region);
      RT.setSimOptions(oneSimThread());
      if (C.Col > 0)
        RT.setGpuOptions(gpuConfig(C.Col - 1));
      Run = C.Work->run(RT, /*OnCpu=*/C.Col == 0);
    }
    std::string Error = Run.Error;
    bool Ok = Run.Ok;
    if (Ok) {
      auto S = T.span("workloads.verify", Order[I]);
      Ok = C.Work->verify(&Error);
    }
    C.WallSeconds = secondsSince(C0);
    C.Ok = Ok;
    C.Error = Error;
    C.Seconds = Run.Seconds;
    C.Joules = Run.Joules;
  });
  return secondsSince(T0);
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return V.empty() ? 0 : std::exp(LogSum / double(V.size()));
}

/// Launches each workload's main kernel once on the GPU+ALL and CPU
/// models and derives the simulator's host cost per warp instruction and
/// its exact modelled counts from those launches.
void calibrate(std::vector<Cell> &Cells, unsigned Jobs,
               const gpusim::MachineConfig &Machine, Report &Rep,
               Tracer &T) {
  std::vector<size_t> Picked;
  for (size_t I = 0; I < Cells.size(); ++I)
    if (Cells[I].Col == 0 || Cells[I].Col == Cols - 1)
      Picked.push_back(I);
  std::vector<runtime::LaunchReport> Reports(Picked.size());
  std::vector<double> ExecSeconds(Picked.size(), 0);
  forEachParallel(Jobs, Picked.size(), [&](size_t I) {
    Cell &C = Cells[Picked[I]];
    void *Body = C.Work->prepareBody();
    if (!Body)
      return;
    runtime::Runtime RT(Machine, *C.Region);
    RT.setSimOptions(oneSimThread());
    RT.setGpuOptions(gpuConfig(NumGpuConfigs - 1));
    auto T0 = Clock::now();
    {
      auto S = T.span("gpusim.launch", Picked[I]);
      Reports[I] = RT.offload(C.Work->kernelSpec(), C.Work->itemCount(), Body,
                              /*OnCpu=*/C.Col == 0);
    }
    ExecSeconds[I] = secondsSince(T0) - Reports[I].CompileSeconds;
  });
  double Exec[2] = {0, 0}, Insts[2] = {0, 0};
  for (size_t I = 0; I < Picked.size(); ++I) {
    const Cell &C = Cells[Picked[I]];
    const runtime::LaunchReport &L = Reports[I];
    if (!L.Ok || L.FellBack) {
      Rep.error("calibration launch " + cellName(C) + " failed: " +
                L.Diagnostics);
      continue;
    }
    unsigned Dev = C.Col == 0 ? 1 : 0;
    Exec[Dev] += ExecSeconds[I];
    Insts[Dev] += double(L.Sim.WarpInstructions);
    Rep.add("gpusim.warp_insts", double(L.Sim.WarpInstructions));
    Rep.add("gpusim.lines_touched", double(L.Sim.LinesTouched));
    Rep.add("gpusim.cache_misses", double(L.Sim.CacheMisses));
  }
  if (Insts[0] > 0)
    Rep.set("gpusim.gpu.ns_per_warp_inst", Exec[0] * 1e9 / Insts[0]);
  if (Insts[1] > 0)
    Rep.set("gpusim.cpu.ns_per_warp_inst", Exec[1] * 1e9 / Insts[1]);
}

} // namespace

Report perfbench::runFig7Matrix(const Options &O, Tracer &T) {
  Report Rep;
  const gpusim::MachineConfig Machine = gpusim::MachineConfig::ultrabook();
  Rng R(O.Seed);

  // Set-up: every cell's inputs, one column (nine workloads) at a time on
  // one thread (nproc set-ups in flight made the column time swing by
  // half between runs). setup_s is the median column.
  std::vector<Cell> Cells;
  for (unsigned Col = 0; Col < Cols; ++Col) {
    auto Ws = workloads::allWorkloads();
    for (size_t W = 0; W < Ws.size(); ++W) {
      bool InTiny = false;
      for (const char *N : TinyWorkloads)
        InTiny |= std::string(N) == Ws[W]->name();
      if (O.Tiny && !InTiny)
        continue;
      Cell C;
      C.Name = Ws[W]->name();
      C.Col = Col;
      C.Work = std::move(Ws[W]);
      Cells.push_back(std::move(C));
    }
  }
  const size_t PerCol = Cells.size() / Cols;
  std::vector<double> SetupWalls;
  for (unsigned Col = 0; Col < Cols; ++Col) {
    auto T0 = Clock::now();
    for (size_t I = Col * PerCol; I < (Col + 1) * PerCol; ++I) {
      Cell &C = Cells[I];
      auto C0 = Clock::now();
      auto S = T.span("workloads.setup", I);
      C.Region = std::make_unique<svm::SharedRegion>(256 << 20);
      if (!C.Work->setup(*C.Region, 1))
        C.Error = "setup failed";
      C.SetupMs = secondsSince(C0) * 1e3;
    }
    SetupWalls.push_back(secondsSince(T0));
  }
  for (const Cell &C : Cells)
    if (!C.Error.empty()) {
      Rep.error(cellName(C) + ": " + C.Error);
      return Rep;
    }
  Rep.set("setup_s", median(SetupWalls));

  // Measured phase: one sweep, whatever --seconds says. The sweep is the
  // unit of work (about 30 s on 4 cores); a second one would change the
  // tail's sample count between runs. A traced run makes one untraced and
  // one traced sweep, and their difference is the tracing overhead.
  std::vector<double> SweepWalls, CellMs;
  std::vector<double> FirstSeconds, FirstJoules;
  const bool Traced = T.on();
  for (int Sweep = 0;; ++Sweep) {
    if (Traced)
      T.setOn(Sweep == 1);
    std::vector<size_t> Order(Cells.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    shuffle(Order, R);
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return dispatchRank(Cells[A].Name, Cells[A].Col) <
             dispatchRank(Cells[B].Name, Cells[B].Col);
    });
    SweepWalls.push_back(sweep(Cells, Order, O.Threads, Machine, T));
    for (const Cell &C : Cells) {
      ++Rep.Attempted;
      CellMs.push_back(C.WallSeconds * 1e3);
      if (!C.Ok) {
        ++Rep.Failed;
        Rep.error(cellName(C) + " failed verification: " + C.Error);
      }
    }
    // Modelled numbers are deterministic: every sweep must repeat them.
    for (size_t I = 0; I < Cells.size(); ++I) {
      if (Sweep == 0) {
        FirstSeconds.push_back(Cells[I].Seconds);
        FirstJoules.push_back(Cells[I].Joules);
      } else if (Cells[I].Seconds != FirstSeconds[I] ||
                 Cells[I].Joules != FirstJoules[I]) {
        Rep.error(cellName(Cells[I]) + ": modelled result drifted between "
                                       "sweeps");
      }
    }
    bool Done = !Traced || Sweep == 1;
    if (Done || !Rep.Errors.empty())
      break;
  }
  double MeasuredWall = 0;
  for (double W : SweepWalls)
    MeasuredWall += W;
  Rep.set("wall_s", median(SweepWalls));
  Rep.set("throughput_per_s", double(Rep.Attempted) / MeasuredWall);
  Rep.set("item_ms_p50", median(CellMs));
  Tail CellTail = tailOf(CellMs);
  Rep.set("item_ms_tail", CellTail.Value);
  Rep.info("fig7-matrix: %zu cells x %zu sweeps, %u cells in flight, 1 "
           "simulator thread per cell",
           Cells.size(), SweepWalls.size(), O.Threads);
  Rep.info("cell_ms_tail = p%.1f of %zu cells", CellTail.Percentile,
           CellTail.Count);
  if (!Rep.Errors.empty())
    return Rep;

  // Figure 7 itself: GPU+ALL against the CPU model, per workload.
  for (unsigned G = 0; G < NumGpuConfigs; ++G) {
    std::vector<double> Speed, Energy;
    for (size_t I = 0; I < PerCol; ++I) {
      const Cell &Cpu = Cells[I];
      const Cell &Gpu = Cells[(G + 1) * PerCol + I];
      Speed.push_back(Cpu.Seconds / Gpu.Seconds);
      Energy.push_back(Cpu.Joules / Gpu.Joules);
    }
    Rep.info("model_speedup_geomean[%s] = %.6f x, "
             "model_energy_saving_geomean[%s] = %.6f x",
             GpuConfigNames[G], geomean(Speed), GpuConfigNames[G],
             geomean(Energy));
    if (G + 1 == NumGpuConfigs && !O.Tiny) {
      if (std::lround(geomean(Speed) * 100) != GoldenSpeedupPct ||
          std::lround(geomean(Energy) * 100) != GoldenEnergySavingPct)
        Rep.error("GPU+ALL geomeans drifted from 2.56x speedup / 2.24x "
                  "energy saving");
    }
  }

  if (!Traced)
    return Rep;
  Rep.set("trace.overhead_s", SweepWalls[1] - SweepWalls[0]);
  for (const Cell &C : Cells) {
    Rep.add("workloads." + C.Name + ".run_s", C.WallSeconds);
    Rep.add("workloads." + C.Name + ".setup_ms", C.SetupMs / Cols);
  }
  calibrate(Cells, O.Threads, Machine, Rep, T);
  // The kernels each GPU cell compiled, one layer at a time.
  for (size_t I = 0; I < PerCol; ++I)
    for (unsigned G = 0; G < NumGpuConfigs; ++G) {
      CompileSample S = replicaCompile(Cells[I].Work->kernelSpec(),
                                       gpuConfig(G), I, T);
      if (!S.Ok)
        Rep.error(S.Error);
      addCompileTimes(Rep, S, 1.0);
      addCompileCounts(Rep, S);
    }
  probeLaunches(Rep, T, /*PerInst=*/false);

  // The scheduler, SOA staging and allocator layers run only in the frame
  // pipeline, which is too sensitive to host load to gate; a short traced
  // frame run measures them here.
  Options FrameOpts = O;
  FrameOpts.Seconds = FrameLayerSeconds;
  Report Frames = runFramePipeline(FrameOpts, T);
  for (const auto &[Name, Value] : Frames.Values)
    if (Name.rfind("sched.", 0) == 0 || Name.rfind("svm.", 0) == 0 ||
        Name == "runtime.soa_launches" || Name == "runtime.soa_fallbacks" ||
        Name == "runtime.soa_staged_bytes")
      Rep.set(Name, Value);
  for (const std::string &E : Frames.Errors)
    Rep.error("frame-pipeline: " + E);
  for (const std::string &I : Frames.Info)
    Rep.Info.push_back(I);
  return Rep;
}
