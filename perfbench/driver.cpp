//===- perfbench/driver.cpp - Outside-in benchmark driver ------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload the way users run scenarios — spec text ->
// scenario::parseSpec -> materialization -> engine (or epoch runner, or the
// real-process launcher) -> CD1..CD7 verdict — for a fixed number of
// seconds, and prints one JSON record of raw per-job samples on stdout.
// perfbench/run.py turns the record into the benchmark's metrics; see
// perfbench/README.md for the workloads and what each number means.
//
// Untraced jobs time only the job, its set-up and the engine boundary.
// Traced jobs (--trace 1 runs them alternately with untraced ones) also
// record a span around every public call this program makes, wrap the
// detection-delay hook with a counter and count heap allocations; the spans
// stay in memory and are written to <work>/spans-<workload>.json at exit.
//
// Usage:
//   perfbench_driver --workload NAME --root DIR --work DIR --seconds S
//                    [--seeds A,B,...] [--trace 0|1] [--max-jobs N]
//   perfbench_driver ... --rss-probe | --crosscheck
//
// Each probe runs in a fresh process: --rss-probe reports one job's peak
// RSS; --crosscheck (service workloads) runs the driver's service loop and
// scenario::CampaignRunner::runOneJob on the first seed and compares them.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "proc/Launcher.h"
#include "report/Bundle.h"
#include "scenario/Campaign.h"
#include "scenario/Parse.h"
#include "scenario/Spec.h"
#include "support/StrUtil.h"
#include "trace/Checker.h"
#include "trace/StreamingChecker.h"
#include "workload/CrashPlans.h"
#include "workload/EpochRunner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <sys/mman.h>
#include <sys/resource.h>
#include <tuple>
#include <vector>

using namespace cliffedge;

// -- Heap-allocation counter (this binary only) ------------------------------

namespace {
std::atomic<bool> CountAllocs{false};
std::atomic<uint64_t> Allocs{0};

void *countedAlloc(std::size_t Size) {
  if (CountAllocs.load(std::memory_order_relaxed))
    Allocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// User + system CPU seconds of \p Who (RUSAGE_SELF covers every thread,
/// RUSAGE_CHILDREN every reaped child).
double cpuSeconds(int Who) {
  struct rusage Ru;
  if (getrusage(Who, &Ru) != 0)
    return 0;
  return Ru.ru_utime.tv_sec + Ru.ru_stime.tv_sec +
         (Ru.ru_utime.tv_usec + Ru.ru_stime.tv_usec) / 1e6;
}

double jobCpuSeconds() {
  return cpuSeconds(RUSAGE_SELF) + cpuSeconds(RUSAGE_CHILDREN);
}

/// One "Key:  N kB" field of /proc/self/status, in KB (0 if absent).
uint64_t statusKb(const char *Key) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  size_t KeyLen = std::strlen(Key);
  while (std::getline(In, Line))
    if (Line.compare(0, KeyLen, Key) == 0 && Line.size() > KeyLen &&
        Line[KeyLen] == ':')
      return std::strtoull(Line.c_str() + KeyLen + 1, nullptr, 10);
  return 0;
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so a later
/// VmHWM reading is the peak of the interval in between.
void resetPeakRss() {
  std::ofstream Out("/proc/self/clear_refs");
  Out << "5";
}

// -- Host-speed calibration ----------------------------------------------------

/// The host's speed drifts (up to 2x within a minute on shared virtual
/// machines), so every job is bracketed by a fixed, program-independent
/// kernel — xorshift-addressed read-modify-writes over a 64 MB table, which
/// slow with both CPU and memory contention — whose time measures the speed
/// right then. run.py rescales the jobs' CPU-busy time by it. The pass is
/// timed cold: an untimed warm-up pass before it makes the kernel track
/// memory-bound jobs worse, and even 200 MB touched after a job does not
/// measurably slow the kernel run that follows (perfbench/README.md).
/// The table is kept out of forked children, so the proc launcher's forks
/// do not leave it copy-on-write: the kernel would then time page faults
/// instead.
std::atomic<uint64_t> CalibrationSink{0};

double calibrate() {
  constexpr size_t Words = size_t(1) << 24;
  static uint32_t *Table = [] {
    void *P = mmap(nullptr, Words * sizeof(uint32_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED ||
        madvise(P, Words * sizeof(uint32_t), MADV_DONTFORK) != 0) {
      std::perror("perfbench_driver: calibration table");
      std::exit(1);
    }
    return static_cast<uint32_t *>(P);
  }();
  uint64_t X = 0x2545F4914F6CDD1Dull, Acc = 0;
  Clock::time_point T0 = Clock::now();
  for (uint32_t I = 0; I < 600000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    uint32_t &Slot = Table[X & (Words - 1)];
    Slot += I;
    Acc += Slot;
  }
  double S = secondsSince(T0);
  CalibrationSink.fetch_add(Acc, std::memory_order_relaxed);
  return S;
}

// -- Spans --------------------------------------------------------------------

struct Span {
  const char *Name;
  int32_t Parent;
  uint32_t Job;
  double Start, End;
};

/// In-memory span recorder. Off for untraced jobs, where begin() is a
/// single branch. Spans are only opened from the main thread.
class Tracer {
public:
  bool On = false;
  uint32_t Job = 0;
  std::vector<Span> Spans;

  int32_t begin(const char *Name) {
    if (!On)
      return -1;
    Spans.push_back(Span{Name, Open, Job, now(), 0});
    Open = static_cast<int32_t>(Spans.size() - 1);
    return Open;
  }

  void end(int32_t Id) {
    if (Id < 0)
      return;
    Spans[Id].End = now();
    Open = Spans[Id].Parent;
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    Out << "[\n";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      Out << formatStr("{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                       "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                       "\"parent\":%d,\"job\":%u}}%s\n",
                       S.Name, S.Start * 1e6, (S.End - S.Start) * 1e6, I,
                       S.Parent, S.Job, I + 1 < Spans.size() ? "," : "");
    }
    Out << "]\n";
    return static_cast<bool>(Out);
  }

private:
  double now() const { return secondsSince(Origin); }
  int32_t Open = -1;
  Clock::time_point Origin = Clock::now();
};

class Scope {
public:
  Scope(Tracer &T, const char *Name) : T(T), Id(T.begin(Name)) {}
  ~Scope() { close(); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  void close() {
    T.end(Id);
    Id = -1;
  }

private:
  Tracer &T;
  int32_t Id;
};

// -- Workloads ----------------------------------------------------------------

enum class Kind { Single, Service, Proc };

struct Workload {
  const char *Name;
  const char *SpecPath; ///< Relative to the checkout root.
  Kind K;
  bool ForceSharded;
  unsigned Workers;
  /// Counters repeat exactly per (spec, seed): true on simulated clocks.
  bool Deterministic;
  /// Set-up blocks timed after each untraced job: a microsecond set-up
  /// needs thousands of samples, spread over the run, for a steady median.
  unsigned SetupBlocks;
};

// Why each workload is here: perfbench/README.md.
const Workload Workloads[] = {
    {"million-quake", "scenarios/million_torus_quake.scn", Kind::Single,
     false, 1, true, 0},
    {"lossy-churn", "scenarios/lossy_churn_service.scn", Kind::Service, false,
     1, true, 0},
    // Held back from BENCHMARK.json until the program defects it shows are
    // fixed (perfbench/README.md).
    {"grid-meltdown-sharded", "scenarios/large_grid_meltdown.scn",
     Kind::Single, true, 4, true, 0},
    {"proc-kill", "scenarios/proc_kill_smoke.scn", Kind::Proc, false, 1,
     false, 8},
    // Self-test only: a committed CD7 counterexample, so failure accounting
    // is proven to count a failure.
    {"purelex-repro", "scenarios/repros/purelex_flip_min.scn", Kind::Single,
     false, 1, true, 0},
};

/// The counters that must repeat exactly for one (spec, seed).
struct Counters {
  uint64_t Events = 0, Messages = 0, Bytes = 0, Delivered = 0, Crashes = 0,
           Decisions = 0, Views = 0, Retransmits = 0, DupSuppressed = 0,
           AckBytes = 0, LinkDropped = 0, AgreeP50 = 0, AgreeP90 = 0;

  auto tie() const {
    return std::tie(Events, Messages, Bytes, Delivered, Crashes, Decisions,
                    Views, Retransmits, DupSuppressed, AckBytes, LinkDropped,
                    AgreeP50, AgreeP90);
  }
  bool operator==(const Counters &O) const { return tie() == O.tie(); }
};

struct JobRecord {
  uint64_t Seed = 0;
  bool Traced = false;
  bool Ran = false;       ///< Reached a verdict.
  bool Violation = false; ///< The verdict was a CD1..CD7 violation.
  std::string Error;
  double SetupS = 0, RunS = 0, CpuS = 0;
  /// Wall time inside the engine boundary (proc: GO -> quiescence).
  double EngineS = 0;
  Counters C;
  // Traced jobs only.
  double EngineCpuS = 0;
  uint64_t EngineAllocs = 0, Notices = 0;
  std::map<std::string, std::pair<double, double>> SpanSums; ///< incl, self
  std::vector<double> EpochS;
  double CheckRssMb = 0, FixedS = 0, Jobs1EngineS = 0;
  uint64_t OpenWavesHw = 0, BundleBytes = 0, GraphNodes = 0, GraphEdges = 0;
  uint64_t WallMs = 0, DaemonCpuMs = 0, DaemonRssKb = 0, ShimDropped = 0;
  uint16_t Shards = 0;
};

/// Engine decorator at the engine boundary: times every run() and keeps
/// the result's counters, also for runs EpochRunner makes internally.
class ProbeEngine final : public engine::Engine {
public:
  ProbeEngine(std::unique_ptr<engine::Engine> Inner, Tracer &T)
      : Inner(std::move(Inner)), T(T) {}

  const char *name() const override { return Inner->name(); }

  engine::EngineResult run(const engine::EngineJob &Job) override {
    Scope S(T, "engine.run");
    bool Traced = T.On;
    double Cpu0 = Traced ? cpuSeconds(RUSAGE_SELF) : 0;
    uint64_t A0 = Allocs.load(std::memory_order_relaxed);
    Clock::time_point T0 = Clock::now();
    engine::EngineResult R = Inner->run(Job);
    WallS += secondsSince(T0);
    Events += R.Events;
    Delivered += R.Stats.MessagesDelivered;
    if (Traced) {
      CpuS += cpuSeconds(RUSAGE_SELF) - Cpu0;
      AllocCount += Allocs.load(std::memory_order_relaxed) - A0;
    }
    return R;
  }

  double WallS = 0, CpuS = 0;
  uint64_t Events = 0, Delivered = 0, AllocCount = 0;

private:
  std::unique_ptr<engine::Engine> Inner;
  Tracer &T;
};

struct Context {
  const Workload *W = nullptr;
  std::string SpecText;
  std::string Work;
  Tracer T;
  std::atomic<uint64_t> Notices{0};
};

/// Nearest-rank percentile (index floor(p*(n-1)/100)) — the streaming
/// checker's rule, so both agreement-latency sources agree on it.
SimTime percentile(std::vector<SimTime> V, unsigned P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  return V[(V.size() - 1) * P / 100];
}

/// Agreement latency per decided view: its last decision minus the
/// earliest crash inside it (simulated ticks; Lamport stamps on proc).
void agreement(const std::vector<trace::DecisionRecord> &Ds,
               const std::vector<SimTime> &CrashTimes, Counters &C) {
  std::vector<const graph::Region *> Views;
  std::vector<SimTime> Last;
  for (const trace::DecisionRecord &D : Ds) {
    size_t I = 0;
    while (I < Views.size() && !(*Views[I] == D.View))
      ++I;
    if (I == Views.size()) {
      Views.push_back(&D.View);
      Last.push_back(D.When);
    } else {
      Last[I] = std::max(Last[I], D.When);
    }
  }
  std::vector<SimTime> Lat;
  for (size_t I = 0; I < Views.size(); ++I) {
    SimTime First = TimeNever;
    for (NodeId N : *Views[I])
      if (N < CrashTimes.size())
        First = std::min(First, CrashTimes[N]);
    if (First != TimeNever && Last[I] >= First)
      Lat.push_back(Last[I] - First);
  }
  C.Views = Views.size();
  C.AgreeP50 = percentile(Lat, 50);
  C.AgreeP90 = percentile(Lat, 90);
}

/// Parses the workload's spec and applies the workload's overrides.
bool parseWorkloadSpec(Context &X, scenario::Spec &V, std::string &Err) {
  scenario::ParseResult P;
  {
    Scope S(X.T, "scenario.parse");
    P = scenario::parseSpec(X.SpecText);
  }
  if (!P.Ok) {
    Err = "parse: " + P.diagText(X.W->SpecPath);
    return false;
  }
  V = std::move(P.S);
  V.Check = true;
  // Sweeps collapse to their first value (lossy-churn's `sweep backend`
  // runs on DES); grid-meltdown-sharded picks the sharded engine.
  for (const scenario::SweepAxis &A : V.Sweeps)
    if (!A.Values.empty() &&
        !scenario::applyOverride(V, A.Key, A.Values.front(), Err))
      return false;
  V.Sweeps.clear();
  if (X.W->ForceSharded)
    V.Backend = engine::BackendKind::Sharded;
  return true;
}

/// Counts every detection notice through the public DetectionDelay hook;
/// the wrapped model returns the same delay.
void countNotices(trace::RunnerOptions &O, std::atomic<uint64_t> &N) {
  if (!O.DetectionDelay)
    return;
  detector::DetectionDelayModel Inner = O.DetectionDelay;
  O.DetectionDelay = [Inner, &N](NodeId Watcher, NodeId Target) {
    N.fetch_add(1, std::memory_order_relaxed);
    return Inner(Watcher, Target);
  };
}

/// scenario::materializeSingle; traced jobs run its steps one by one so the
/// topology and the crash plan get spans of their own. The determinism
/// guard compares every counter of both paths.
bool materialize(const scenario::Spec &V, uint64_t Seed,
                 scenario::MaterializedRun &Out, Tracer &T,
                 std::string &Err) {
  Scope M(T, "scenario.materialize");
  if (!T.On)
    return scenario::materializeSingle(V, Seed, Out, Err);
  Rng TopoRand(Seed);
  {
    Scope G(T, "graph.build");
    if (!scenario::buildTopology(V.Topology, TopoRand, Out.Topo, Err))
      return false;
  }
  SplitMix64 Sub(Seed);
  Out.PlanRand.reset(new Rng(Sub.next()));
  Out.LatRand.reset(new Rng(Sub.next()));
  {
    Scope P(T, "workload.plan");
    if (!scenario::buildCrashPlan(V.Epochs.front(), Out.Topo, *Out.PlanRand,
                                  V.MaxFaulty, Out.Plan, Err))
      return false;
    scenario::applyPerturbation(V.Perturb, Out.Topo.G.numNodes(), Out.Plan);
  }
  Out.Options = scenario::makeRunnerOptions(V, *Out.LatRand);
  Out.Options.LinkSeed = Seed;
  return true;
}

/// Engine::run time of the same world with only the plan's first crash:
/// the at-rest cost every run pays whatever the failure pattern.
double fixedCost(const scenario::Spec &V, const graph::Graph &G,
                 const workload::CrashPlan &Plan,
                 const trace::RunnerOptions &Opts, unsigned Workers,
                 uint64_t Seed) {
  workload::CrashPlan One;
  if (!Plan.Crashes.empty())
    One.Crashes.push_back(Plan.Crashes.front());
  engine::EngineOptions EO;
  EO.Workers = Workers;
  std::unique_ptr<engine::Engine> Eng = engine::makeEngine(V.Backend, EO);
  engine::EngineJob Job;
  Job.G = &G;
  Job.Plan = &One;
  Job.Options = Opts;
  Job.Options.StreamingCheck = nullptr;
  Job.Seed = Seed;
  Clock::time_point T0 = Clock::now();
  Eng->run(Job);
  return secondsSince(T0);
}

void runSingle(Context &X, uint64_t Seed, bool SetupOnly, JobRecord &J) {
  Tracer &T = X.T;
  Clock::time_point T0 = Clock::now();
  double Cpu0 = jobCpuSeconds();
  Scope JobSpan(T, "bench.job");
  scenario::Spec V;
  scenario::MaterializedRun Run;
  std::unique_ptr<engine::Engine> Eng;
  {
    Scope Setup(T, "bench.setup");
    if (!parseWorkloadSpec(X, V, J.Error) ||
        !materialize(V, Seed, Run, T, J.Error))
      return;
    if (T.On)
      countNotices(Run.Options, X.Notices);
    engine::EngineOptions EO;
    EO.Workers = X.W->Workers;
    Eng = engine::makeEngine(V.Backend, EO);
  }
  J.SetupS = secondsSince(T0);
  if (SetupOnly)
    return;

  ProbeEngine PE(std::move(Eng), T);
  trace::RunnerOptions Kept;
  if (T.On)
    Kept = Run.Options;
  engine::EngineJob Job;
  Job.G = &Run.Topo.G;
  Job.Plan = &Run.Plan;
  Job.Options = std::move(Run.Options);
  Job.Seed = Seed;
  engine::EngineResult R = PE.run(Job);
  if (!R.Quiesced) {
    J.Error = "aborted: event budget exhausted";
    return;
  }
  trace::CheckResult Res;
  {
    if (T.On)
      resetPeakRss();
    uint64_t RssBefore = T.On ? statusKb("VmRSS") : 0;
    trace::CheckInput In;
    {
      Scope S(T, "trace.to_check_input");
      In = engine::toCheckInput(R, Run.Topo.G);
    }
    {
      Scope S(T, "trace.check_all");
      Res = trace::checkAll(In);
    }
    if (T.On) {
      uint64_t Peak = statusKb("VmHWM");
      J.CheckRssMb = Peak > RssBefore ? (Peak - RssBefore) / 1024.0 : 0.0;
    }
  }
  J.RunS = secondsSince(T0);
  JobSpan.close();
  J.CpuS = jobCpuSeconds() - Cpu0;
  J.Ran = true;
  J.Violation = !Res.Ok;
  if (!Res.Ok)
    J.Error = Res.Violations.empty() ? "violation" : Res.Violations.front();

  J.EngineS = PE.WallS;
  J.EngineCpuS = PE.CpuS;
  J.EngineAllocs = PE.AllocCount;
  J.C.Events = PE.Events;
  J.C.Delivered = PE.Delivered;
  J.C.Messages = R.Stats.MessagesSent;
  J.C.Bytes = R.Stats.BytesSent;
  J.C.Retransmits = R.Stats.Channel.Retransmits;
  J.C.DupSuppressed = R.Stats.Channel.DupSuppressed;
  J.C.AckBytes = R.Stats.Channel.AckBytes;
  J.C.LinkDropped = R.Stats.Channel.LinkDropped;
  J.C.Crashes = Run.Plan.Crashes.size();
  J.C.Decisions = R.Decisions.size();
  agreement(R.Decisions, R.CrashTimes, J.C);
  J.GraphNodes = Run.Topo.G.numNodes();
  J.GraphEdges = Run.Topo.G.numEdges();

  J.Notices = X.Notices.load(std::memory_order_relaxed);

  if (T.On) {
    J.FixedS = fixedCost(V, Run.Topo.G, Run.Plan, Kept, X.W->Workers, Seed);
    scenario::MaterializedRun Again;
    if (X.W->Workers > 1 &&
        scenario::materializeSingle(V, Seed, Again, J.Error)) {
      // The same job on one worker (freshly materialized, so the latency
      // stream replays): the within-run threads verdict, and a check that
      // the counters do not depend on the worker count.
      engine::EngineOptions EO;
      EO.Workers = 1;
      std::unique_ptr<engine::Engine> One = engine::makeEngine(V.Backend, EO);
      Job.G = &Again.Topo.G;
      Job.Plan = &Again.Plan;
      Job.Options = std::move(Again.Options);
      Clock::time_point T1 = Clock::now();
      engine::EngineResult R1 = One->run(Job);
      J.Jobs1EngineS = secondsSince(T1);
      if (R1.Events != R.Events ||
          R1.Stats.MessagesSent != R.Stats.MessagesSent ||
          R1.Stats.BytesSent != R.Stats.BytesSent ||
          R1.Stats.MessagesDelivered != R.Stats.MessagesDelivered ||
          R1.Decisions.size() != R.Decisions.size())
        J.Error = formatStr(
            "counters differ between 1 and %u engine workers: events "
            "%llu/%llu, messages %llu/%llu, bytes %llu/%llu",
            X.W->Workers, static_cast<unsigned long long>(R1.Events),
            static_cast<unsigned long long>(R.Events),
            static_cast<unsigned long long>(R1.Stats.MessagesSent),
            static_cast<unsigned long long>(R.Stats.MessagesSent),
            static_cast<unsigned long long>(R1.Stats.BytesSent),
            static_cast<unsigned long long>(R.Stats.BytesSent));
    }
  }
}

void runService(Context &X, uint64_t Seed, bool SetupOnly, JobRecord &J) {
  Tracer &T = X.T;
  Clock::time_point T0 = Clock::now();
  double Cpu0 = jobCpuSeconds();
  Scope JobSpan(T, "bench.job");
  scenario::Spec V;
  scenario::TopologyInfo Topo;
  std::unique_ptr<Rng> PlanRand, LatRand;
  trace::RunnerOptions Options;
  std::unique_ptr<trace::StreamingChecker> SC;
  std::unique_ptr<ProbeEngine> PE;
  std::unique_ptr<workload::EpochRunner> Runner;
  {
    Scope Setup(T, "bench.setup");
    if (!parseWorkloadSpec(X, V, J.Error))
      return;
    {
      // The service-run steps of scenario::CampaignRunner::runOneJob.
      Scope M(T, "scenario.materialize");
      Rng TopoRand(Seed);
      {
        Scope G(T, "graph.build");
        if (!scenario::buildTopology(V.Topology, TopoRand, Topo, J.Error))
          return;
      }
      SplitMix64 Sub(Seed);
      PlanRand.reset(new Rng(Sub.next()));
      LatRand.reset(new Rng(Sub.next()));
      Options = scenario::makeRunnerOptions(V, *LatRand);
    }
    SC = std::make_unique<trace::StreamingChecker>(Topo.G);
    Options.StreamingCheck = SC.get();
    Options.RecordSends = false;
    if (T.On)
      countNotices(Options, X.Notices);
    PE = std::make_unique<ProbeEngine>(engine::makeEngine(V.Backend), T);
    Runner = std::make_unique<workload::EpochRunner>(Topo.G, Options,
                                                     PE.get());
  }
  J.SetupS = secondsSince(T0);
  if (SetupOnly)
    return;

  scenario::JobOutcome Out;
  Out.Seed = Seed;
  Out.Epochs = V.ServiceEpochs;
  Out.SpecOk = true;
  workload::CrashPlan FirstPlan;
  for (size_t E = 0; E < V.ServiceEpochs; ++E) {
    workload::CrashPlan Plan;
    {
      Scope P(T, "workload.plan");
      Plan = workload::poissonChurn(Topo.G, static_cast<double>(V.ChurnRate),
                                    static_cast<size_t>(V.ChurnSize), 100,
                                    V.ChurnHorizon, *PlanRand);
      size_t Cap = Topo.G.numNodes() * 3 / 4;
      if (V.MaxFaulty)
        Cap = std::min(Cap, static_cast<size_t>(V.MaxFaulty));
      Plan = workload::capFaulty(std::move(Plan), Cap);
    }
    if (E == 0)
      FirstPlan = Plan;
    Clock::time_point E0 = Clock::now();
    workload::EpochResult Res;
    {
      Scope Ep(T, "workload.epoch");
      Res = Runner->runEpoch(Plan, Seed);
    }
    if (T.On)
      J.EpochS.push_back(secondsSince(E0));
    Out.Decisions += Res.Decisions;
    Out.DistinctViews += Res.DecidedViews.size();
    Out.Events += Res.Events;
    Out.Messages += Res.Messages;
    Out.Bytes += Res.Bytes;
    Out.Retransmits += Res.Channel.Retransmits;
    Out.DupSuppressed += Res.Channel.DupSuppressed;
    Out.AckBytes += Res.Channel.AckBytes;
    Out.Crashes += Plan.Crashes.size();
    J.C.LinkDropped += Res.Channel.LinkDropped;
    if (!Res.Quiesced) {
      J.Error = formatStr("epoch %zu aborted: event budget exhausted", E + 1);
      return;
    }
    if (!Res.Check.Ok) {
      Out.SpecOk = false;
      for (const std::string &Why : Res.Check.Violations)
        Out.Violations.push_back(formatStr("epoch %zu: %s", E + 1,
                                           Why.c_str()));
    }
  }
  trace::StreamingChecker::Metrics M = SC->metrics();
  Out.Ran = true;
  Out.LatP50 = M.LatencyP50;
  Out.LatP90 = M.LatencyP90;
  Out.LatP99 = M.LatencyP99;
  Out.LatMax = M.LatencyMax;
  Out.MsgsPerDecision = M.msgsPerDecision();
  Out.OpenWavesHw = M.OpenWavesHighWater;

  // Users of a service run keep its evidence: one run bundle per job.
  scenario::CampaignSummary Sum;
  Sum.Scenario = V.Name;
  Sum.Jobs = 1;
  Sum.Passed = Out.SpecOk ? 1 : 0;
  Sum.Failed = Out.SpecOk ? 0 : 1;
  Sum.TotalDecisions = Out.Decisions;
  Sum.TotalMessages = Out.Messages;
  Sum.TotalBytes = Out.Bytes;
  Sum.TotalEvents = Out.Events;
  Sum.Results.push_back(Out);
  report::BundleOptions BO;
  BO.OutDir = X.Work + "/bundle-" + X.W->Name;
  BO.Flat = true;
  report::BundleResult BR;
  {
    Scope B(T, "report.bundle");
    if (!report::writeBundle(V, Sum, BO, BR, J.Error)) {
      J.Error = "bundle: " + J.Error;
      return;
    }
  }
  J.RunS = secondsSince(T0);
  JobSpan.close();
  J.CpuS = jobCpuSeconds() - Cpu0;
  J.Ran = true;
  J.Violation = !Out.SpecOk;
  if (!Out.SpecOk)
    J.Error = Out.Violations.empty() ? "violation" : Out.Violations.front();

  J.EngineS = PE->WallS;
  J.EngineCpuS = PE->CpuS;
  J.EngineAllocs = PE->AllocCount;
  J.C.Events = PE->Events;
  J.C.Delivered = PE->Delivered;
  J.C.Messages = Out.Messages;
  J.C.Bytes = Out.Bytes;
  J.C.Retransmits = Out.Retransmits;
  J.C.DupSuppressed = Out.DupSuppressed;
  J.C.AckBytes = Out.AckBytes;
  J.C.Crashes = Out.Crashes;
  J.C.Decisions = Out.Decisions;
  J.C.Views = Out.DistinctViews;
  J.C.AgreeP50 = M.LatencyP50;
  J.C.AgreeP90 = M.LatencyP90;
  J.OpenWavesHw = M.OpenWavesHighWater;
  J.GraphNodes = Topo.G.numNodes();
  J.GraphEdges = Topo.G.numEdges();
  J.Notices = X.Notices.load(std::memory_order_relaxed);
  if (T.On) {
    std::error_code EC;
    for (const auto &F : std::filesystem::directory_iterator(BR.Dir, EC))
      if (F.is_regular_file(EC))
        J.BundleBytes += F.file_size(EC);
    J.FixedS = fixedCost(V, Topo.G, FirstPlan, Options, 1, Seed);
  }
}

void runProc(Context &X, uint64_t Seed, bool SetupOnly, JobRecord &J) {
  Tracer &T = X.T;
  Clock::time_point T0 = Clock::now();
  double Cpu0 = jobCpuSeconds();
  Scope JobSpan(T, "bench.job");
  scenario::Spec V;
  proc::ProcResult R;
  {
    std::unique_ptr<proc::Launcher> L;
    {
      Scope Setup(T, "bench.setup");
      if (!parseWorkloadSpec(X, V, J.Error))
        return;
      std::string Why;
      if (!proc::specSupportsProc(V, Why)) {
        J.Error = "not a proc spec: " + Why;
        return;
      }
      proc::LauncherOptions LO;
      LO.NodeBinary = PERFBENCH_NODE_BIN;
      L = std::make_unique<proc::Launcher>(V, Seed, LO);
    }
    J.SetupS = secondsSince(T0);
    if (SetupOnly)
      return;
    bool Ok;
    {
      Scope S(T, "proc.launcher_run");
      Ok = L->run(R, J.Error);
    }
    if (!Ok)
      return;
  }
  J.RunS = secondsSince(T0);
  JobSpan.close();
  J.CpuS = jobCpuSeconds() - Cpu0;
  if (R.Infra != proc::FailureClass::Ok) {
    J.Error = formatStr("infra_failure: %s: %s",
                        proc::failureClassName(R.Infra), R.Error.c_str());
    return;
  }
  J.Ran = true;
  J.Violation = !R.Check.Ok;
  if (!R.Check.Ok)
    J.Error = R.Check.summary();
  J.EngineS = R.WallMs / 1000.0;
  J.C.Events = R.Stats.Events;
  J.C.Messages = R.Stats.Sent;
  J.C.Delivered = R.Stats.Delivered;
  J.C.Retransmits = R.Stats.Retransmits;
  J.C.DupSuppressed = R.Stats.DupSuppressed;
  J.C.AckBytes = R.Stats.AckBytes;
  J.C.Crashes = R.Faulty.size();
  J.C.Decisions = R.Trace.Decisions.size();
  agreement(R.Trace.Decisions, R.Trace.CrashTimes, J.C);
  J.WallMs = R.WallMs;
  J.DaemonCpuMs = R.DaemonCpuMs;
  J.DaemonRssKb = R.DaemonPeakRssKb;
  J.ShimDropped = R.Stats.ShimDropped;
  J.Shards = R.NumShards;
}

JobRecord runJob(Context &X, uint64_t Seed, bool SetupOnly) {
  JobRecord J;
  J.Seed = Seed;
  J.Traced = X.T.On;
  size_t FirstSpan = X.T.Spans.size();
  X.Notices.store(0, std::memory_order_relaxed);
  switch (X.W->K) {
  case Kind::Single:
    runSingle(X, Seed, SetupOnly, J);
    break;
  case Kind::Service:
    runService(X, Seed, SetupOnly, J);
    break;
  case Kind::Proc:
    runProc(X, Seed, SetupOnly, J);
    break;
  }
  // Inclusive and self time per span name; self = duration minus the
  // direct children's durations.
  const std::vector<Span> &S = X.T.Spans;
  std::vector<double> ChildSum(S.size() - FirstSpan, 0.0);
  for (size_t I = FirstSpan; I < S.size(); ++I)
    if (S[I].Parent >= static_cast<int32_t>(FirstSpan))
      ChildSum[S[I].Parent - FirstSpan] += S[I].End - S[I].Start;
  for (size_t I = FirstSpan; I < S.size(); ++I) {
    double Dur = S[I].End - S[I].Start;
    std::pair<double, double> &Sum = J.SpanSums[S[I].Name];
    Sum.first += Dur;
    Sum.second += Dur - ChildSum[I - FirstSpan];
  }
  return J;
}

// -- Output -------------------------------------------------------------------

std::string num(double V) { return formatStr("%.9g", V); }
std::string num(uint64_t V) {
  return formatStr("%llu", static_cast<unsigned long long>(V));
}

std::string countersJson(const Counters &C) {
  return formatStr(
      "{\"events\":%s,\"messages\":%s,\"bytes\":%s,\"delivered\":%s,"
      "\"crashes\":%s,\"decisions\":%s,\"views\":%s,\"retransmits\":%s,"
      "\"dup_suppressed\":%s,\"ack_bytes\":%s,\"link_dropped\":%s,"
      "\"agree_p50\":%s,\"agree_p90\":%s}",
      num(C.Events).c_str(), num(C.Messages).c_str(), num(C.Bytes).c_str(),
      num(C.Delivered).c_str(), num(C.Crashes).c_str(),
      num(C.Decisions).c_str(), num(C.Views).c_str(),
      num(C.Retransmits).c_str(), num(C.DupSuppressed).c_str(),
      num(C.AckBytes).c_str(), num(C.LinkDropped).c_str(),
      num(C.AgreeP50).c_str(), num(C.AgreeP90).c_str());
}

std::string jobJson(const JobRecord &J) {
  std::string Out = formatStr(
      "{\"seed\":%s,\"traced\":%s,\"ran\":%s,\"violation\":%s,"
      "\"error\":\"%s\",\"setup_s\":%s,\"run_s\":%s,\"cpu_s\":%s,"
      "\"engine_s\":%s,\"counters\":%s",
      num(J.Seed).c_str(), J.Traced ? "true" : "false",
      J.Ran ? "true" : "false", J.Violation ? "true" : "false",
      jsonEscape(J.Error).c_str(), num(J.SetupS).c_str(),
      num(J.RunS).c_str(), num(J.CpuS).c_str(), num(J.EngineS).c_str(),
      countersJson(J.C).c_str());
  Out += formatStr(
      ",\"graph_nodes\":%s,\"graph_edges\":%s,\"wall_ms\":%s,"
      "\"daemon_cpu_ms\":%s,\"daemon_rss_kb\":%s,\"shim_dropped\":%s,"
      "\"shards\":%u,\"open_waves_hw\":%s",
      num(J.GraphNodes).c_str(), num(J.GraphEdges).c_str(),
      num(J.WallMs).c_str(), num(J.DaemonCpuMs).c_str(),
      num(J.DaemonRssKb).c_str(), num(J.ShimDropped).c_str(), J.Shards,
      num(J.OpenWavesHw).c_str());
  if (J.Traced) {
    Out += formatStr(
        ",\"engine_cpu_s\":%s,\"engine_allocs\":%s,\"notices\":%s,"
        "\"check_rss_mb\":%s,\"fixed_s\":%s,\"jobs1_engine_s\":%s,"
        "\"bundle_bytes\":%s,\"epoch_s\":[",
        num(J.EngineCpuS).c_str(), num(J.EngineAllocs).c_str(),
        num(J.Notices).c_str(), num(J.CheckRssMb).c_str(),
        num(J.FixedS).c_str(), num(J.Jobs1EngineS).c_str(),
        num(J.BundleBytes).c_str());
    for (size_t I = 0; I < J.EpochS.size(); ++I)
      Out += (I ? "," : "") + num(J.EpochS[I]);
    Out += "],\"spans\":{";
    bool First = true;
    for (const auto &KV : J.SpanSums) {
      Out += formatStr("%s\"%s\":[%s,%s]", First ? "" : ",",
                       KV.first.c_str(), num(KV.second.first).c_str(),
                       num(KV.second.second).c_str());
      First = false;
    }
    Out += "}";
  }
  return Out + "}";
}

bool parseSeeds(const std::string &Text, std::vector<uint64_t> &Out) {
  std::stringstream In(Text);
  std::string Tok;
  while (std::getline(In, Tok, ',')) {
    char *End = nullptr;
    unsigned long long V = std::strtoull(Tok.c_str(), &End, 10);
    if (Tok.empty() || *End != '\0')
      return false;
    Out.push_back(V);
  }
  return !Out.empty();
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --root DIR --work DIR --seconds S [--seeds A,B,...] "
               "[--trace 0|1] [--max-jobs N]\n       perfbench_driver "
               "--workload NAME --root DIR --work DIR [--seeds A,B,...] "
               "--rss-probe|--crosscheck\n",
               Why);
  return 2;
}

/// Peak RSS of one untraced job: in a fresh process ru_maxrss is that
/// job's peak (it covers the whole process lifetime).
int rssProbe(Context &X, uint64_t Seed) {
  JobRecord J = runJob(X, Seed, false);
  struct rusage Ru;
  getrusage(RUSAGE_SELF, &Ru);
  std::printf("{\"ok\":%s,\"error\":\"%s\",\"self_maxrss_kb\":%ld,"
              "\"daemon_peak_rss_kb\":%s}\n",
              J.Ran && !J.Violation ? "true" : "false",
              jsonEscape(J.Error).c_str(), Ru.ru_maxrss,
              num(J.DaemonRssKb).c_str());
  return 0;
}

/// One set-up block: set-up alone for at least 10 ms and 10 samples, right
/// after a calibration. Returns the median and the calibration time, or
/// false with \p Error set.
bool setupBlock(Context &X, const std::vector<uint64_t> &Seeds,
                std::pair<double, double> &Out, std::string &Error) {
  double Cal = calibrate();
  std::vector<double> Samples;
  Clock::time_point T0 = Clock::now();
  while (Samples.size() < 10 || secondsSince(T0) < 0.01) {
    JobRecord J = runJob(X, Seeds[Samples.size() % Seeds.size()], true);
    if (!J.Error.empty()) {
      Error = "set-up: " + J.Error;
      return false;
    }
    Samples.push_back(J.SetupS);
  }
  std::sort(Samples.begin(), Samples.end());
  Out = {Samples[Samples.size() / 2], Cal};
  return true;
}

/// The service loop above repeats scenario::CampaignRunner::runOneJob's,
/// because the engine boundary needs the probe engine. This runs both on
/// one seed and prints whether they produced the same run.
int crosscheck(Context &X, uint64_t Seed) {
  if (X.W->K != Kind::Service)
    return usage("--crosscheck needs a service workload");
  JobRecord J = runJob(X, Seed, false);
  scenario::Spec V;
  std::string Err;
  if (!parseWorkloadSpec(X, V, Err))
    return usage(Err.c_str());
  scenario::JobOutcome O = scenario::CampaignRunner::runOneJob(V, Seed, 1);
  Counters P;
  P.Events = O.Events;
  P.Messages = O.Messages;
  P.Bytes = O.Bytes;
  P.Crashes = O.Crashes;
  P.Decisions = O.Decisions;
  P.Views = O.DistinctViews;
  P.Retransmits = O.Retransmits;
  P.DupSuppressed = O.DupSuppressed;
  P.AckBytes = O.AckBytes;
  P.AgreeP50 = O.LatP50;
  P.AgreeP90 = O.LatP90;
  // runOneJob does not report these two.
  P.Delivered = J.C.Delivered;
  P.LinkDropped = J.C.LinkDropped;
  bool Same = J.Ran && O.Ran && J.C == P &&
              J.Violation == !O.SpecOk && J.OpenWavesHw == O.OpenWavesHw;
  std::printf("{\"ok\":%s,\"error\":\"%s\",\"driver\":%s,"
              "\"run_one_job\":%s}\n",
              Same ? "true" : "false",
              jsonEscape(J.Error.empty() ? O.Error : J.Error).c_str(),
              countersJson(J.C).c_str(), countersJson(P).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // Pin glibc's malloc thresholds at their documented defaults. Left alone
  // they adapt to the largest block freed so far, so a job's cost would
  // depend on which seeds ran before it in this process (million-quake's
  // seed windows then differ by up to 10% in run_s, reproducibly). Pinned,
  // every job maps and faults in its large arrays as a fresh process does.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  std::string Name, Root = ".", Work = ".", SeedText;
  double Seconds = -1;
  bool Trace = false;
  std::string Probe;
  size_t MaxJobs = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--rss-probe" || A == "--crosscheck") {
      Probe = A;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string Val = Argv[++I];
    if (A == "--workload")
      Name = Val;
    else if (A == "--root")
      Root = Val;
    else if (A == "--work")
      Work = Val;
    else if (A == "--seeds")
      SeedText = Val;
    else if (A == "--seconds")
      Seconds = std::atof(Val.c_str());
    else if (A == "--trace")
      Trace = Val == "1";
    else if (A == "--max-jobs")
      MaxJobs = std::strtoull(Val.c_str(), nullptr, 10);
    else
      return usage(("unknown option " + A).c_str());
  }
  Context X;
  for (const Workload &W : Workloads)
    if (Name == W.Name)
      X.W = &W;
  if (!X.W)
    return usage(("unknown workload '" + Name + "'").c_str());
  if (Seconds < 0 && Probe.empty())
    return usage("--seconds is required");
  X.Work = Work;
  std::ifstream In(Root + "/" + X.W->SpecPath);
  if (!In) {
    std::fprintf(stderr, "perfbench_driver: cannot read %s/%s\n",
                 Root.c_str(), X.W->SpecPath);
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  X.SpecText = Buf.str();

  std::vector<uint64_t> Seeds;
  if (!SeedText.empty()) {
    if (!parseSeeds(SeedText, Seeds))
      return usage("--seeds wants comma-separated integers");
  } else {
    // Default: the curated spec's own seed range.
    scenario::ParseResult P = scenario::parseSpec(X.SpecText);
    for (uint64_t S = P.S.SeedLo; P.Ok && S <= P.S.SeedHi; ++S)
      Seeds.push_back(S);
    if (Seeds.empty()) {
      std::fprintf(stderr, "perfbench_driver: %s does not parse\n",
                   X.W->SpecPath);
      return 1;
    }
  }

  if (Probe == "--rss-probe")
    return rssProbe(X, Seeds.front());
  if (Probe == "--crosscheck")
    return crosscheck(X, Seeds.front());

  // Every seed runs at least once (twice under --trace 1: untraced and
  // traced), whatever --seconds says, so the counters always cover the
  // whole seed set.
  size_t PerSeed = Trace ? 2 : 1;
  size_t MinJobs = Seeds.size() * PerSeed;
  std::vector<JobRecord> Jobs;
  std::map<uint64_t, Counters> FirstSeen;
  std::vector<std::string> Mismatches;
  std::vector<std::pair<double, double>> SetupBlocks;
  // Calibration[I] runs just before job I, the last one after the last job.
  std::vector<double> Calibration;
  calibrate(); // Touches the table once.
  Clock::time_point Start = Clock::now();
  for (size_t I = 0;; ++I) {
    if (MaxJobs && I >= MaxJobs)
      break;
    if (I >= MinJobs && secondsSince(Start) >= Seconds)
      break;
    size_t Pair = I / PerSeed;
    uint64_t Seed = Seeds[Pair % Seeds.size()];
    // Under --trace 1 each seed runs untraced and traced back to back,
    // alternating which goes first, so drift cancels out of the overhead.
    bool Traced = Trace && ((I % 2 == 1) != (Pair % 2 == 1));
    X.T.On = Traced;
    X.T.Job = static_cast<uint32_t>(I);
    CountAllocs.store(Traced, std::memory_order_relaxed);
    Calibration.push_back(calibrate());
    JobRecord J = runJob(X, Seed, false);
    CountAllocs.store(false, std::memory_order_relaxed);
    X.T.On = false;
    if (J.Ran && X.W->Deterministic) {
      auto It = FirstSeen.find(Seed);
      if (It == FirstSeen.end())
        FirstSeen.emplace(Seed, J.C);
      else if (!(It->second == J.C))
        Mismatches.push_back(formatStr(
            "seed %llu: %s vs %s", static_cast<unsigned long long>(Seed),
            countersJson(It->second).c_str(), countersJson(J.C).c_str()));
    }
    Jobs.push_back(std::move(J));
    for (unsigned B = 0; !Trace && B < X.W->SetupBlocks; ++B) {
      std::pair<double, double> Block;
      if (!setupBlock(X, Seeds, Block, Jobs.back().Error))
        break;
      SetupBlocks.push_back(Block);
    }
  }
  Calibration.push_back(calibrate());
  double MeasuredS = secondsSince(Start);

  std::string SpansFile;
  if (Trace) {
    SpansFile = Work + "/spans-" + X.W->Name + ".json";
    if (!X.T.write(SpansFile))
      SpansFile.clear();
  }

#ifdef NDEBUG
  const char *NDebug = "true";
#else
  const char *NDebug = "false";
#endif
  std::string Out = formatStr(
      "{\"workload\":\"%s\",\"spec\":\"%s\",\"build_type\":\"%s\","
      "\"ndebug\":%s,\"compiler\":\"%s\",\"trace\":%s,\"workers\":%u,"
      "\"deterministic\":%s,\"measured_s\":%s,\"spans_file\":\"%s\","
      "\"seeds\":[",
      X.W->Name, X.W->SpecPath, PERFBENCH_BUILD_TYPE, NDebug,
      jsonEscape(PERFBENCH_COMPILER).c_str(), Trace ? "true" : "false",
      X.W->Workers, X.W->Deterministic ? "true" : "false",
      num(MeasuredS).c_str(), jsonEscape(SpansFile).c_str());
  for (size_t I = 0; I < Seeds.size(); ++I)
    Out += (I ? "," : "") + num(Seeds[I]);
  Out += "],\"calibration_s\":[";
  for (size_t I = 0; I < Calibration.size(); ++I)
    Out += (I ? "," : "") + num(Calibration[I]);
  Out += "],\"setup_blocks\":[";
  for (size_t I = 0; I < SetupBlocks.size(); ++I)
    Out += formatStr("%s[%s,%s]", I ? "," : "",
                     num(SetupBlocks[I].first).c_str(),
                     num(SetupBlocks[I].second).c_str());
  Out += "],\"determinism_mismatches\":[";
  for (size_t I = 0; I < Mismatches.size(); ++I)
    Out += (I ? ",\"" : "\"") + jsonEscape(Mismatches[I]) + "\"";
  Out += "],\"jobs\":[\n";
  for (size_t I = 0; I < Jobs.size(); ++I)
    Out += jobJson(Jobs[I]) + (I + 1 < Jobs.size() ? ",\n" : "\n");
  Out += "]}\n";
  std::fputs(Out.c_str(), stdout);
  return 0;
}
