//===- perfbench/workloads.cpp - One workload of the mco benchmark --------===//
//
// Part of the mco project (CGO 2021 code-size outlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Runs one named benchmark workload against the library's public entry
/// points (or the spawned mco-buildd) and prints one JSON object of raw
/// measurements: timing samples, deterministic work counters, output
/// checks, and — with --trace 1 — the path of a span dump. run.py turns
/// that into the benchmark's metrics; the statistics live there.
///
///   perfbench-workloads --workload wp-outline|pm-cache|fleet-bp|daemon-mix
///                       --seed N --seconds S --trace 0|1 --work DIR
///                       [--buildd PATH] [--check-only]
///
/// Every run first builds its outputs once, untimed, and checks them
/// (digests, the unoutlined-vs-built span oracle, bp vs module order).
/// The timed loop then repeats the workload's operation until --seconds
/// have passed. With --trace 1 the first half of the time runs with the
/// tracer off and the second half with it on, so one run yields both the
/// per-layer spans and the tracing overhead.
///
//===----------------------------------------------------------------------===//

#include "cache/ArtifactCache.h"
#include "daemon/Client.h"
#include "linker/LayoutStrategy.h"
#include "pipeline/BuildPipeline.h"
#include "sim/Interpreter.h"
#include "support/Checksum.h"
#include "support/Random.h"
#include "synth/CorpusSynthesizer.h"
#include "telemetry/FleetSim.h"
#include "telemetry/Tracer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace mco;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Threads per workload process, sized for a 4-core machine.
constexpr unsigned Threads = 4;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool CheckOnly = false;
  std::string Work;
  std::string Buildd;
};

/// Everything a run measured. Samples are keyed by phase: "" for the
/// untraced part of the run, "traced." for the traced part.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::pair<std::string, bool>> Checks;
  std::vector<std::string> Notes;
  std::map<std::string, std::vector<double>> Samples;
  std::map<std::string, double> Values;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, std::string> Digests;
  std::string SpansPath;
  unsigned SpanIterations = 0;
  uint64_t SpansDropped = 0;

  void check(const std::string &Name, bool Ok, const std::string &Why = "") {
    Checks.emplace_back(Name, Ok);
    if (!Ok)
      Notes.push_back(Name + (Why.empty() ? "" : ": " + Why));
  }
};

/// The part of the run currently executing: its samples go under Prefix,
/// and Traced says whether the tracer records spans.
struct Phase {
  std::string Prefix;
  bool Traced = false;
  Report *R = nullptr;
  void sample(const std::string &Key, double V) {
    R->Samples[Prefix + Key].push_back(V);
  }
};

/// CPU seconds used so far by every thread of this process. The guest
/// kernel leaves time stolen by the hypervisor out of it, so on a shared
/// VM it repeats where wall time does not.
double processCpuSeconds() {
  timespec Ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) + 1e-9 * double(Ts.tv_nsec);
}

/// Wall and CPU seconds since construction.
struct Stopwatch {
  Clock::time_point Wall = Clock::now();
  double Cpu = processCpuSeconds();
  double wallS() const { return secondsSince(Wall); }
  double cpuS() const { return processCpuSeconds() - Cpu; }
};

/// User and system seconds of a process, from its rusage.
struct CpuTimes {
  double User = 0, Sys = 0;
  explicit CpuTimes(const rusage &U)
      : User(double(U.ru_utime.tv_sec) + 1e-6 * double(U.ru_utime.tv_usec)),
        Sys(double(U.ru_stime.tv_sec) + 1e-6 * double(U.ru_stime.tv_usec)) {}
  static CpuTimes self() {
    rusage U{};
    ::getrusage(RUSAGE_SELF, &U);
    return CpuTimes(U);
  }
};

/// How fast the machine runs right now: the CPU milliseconds of a fixed
/// piece of work that belongs to the benchmark, not to the program — a
/// dependent random walk over a 64 MB table and a register-only hash loop.
/// On a shared VM, other guests' memory traffic moves the CPU time of the
/// same build by a quarter within an hour; the walk moves with it, so
/// run.py divides it out. The probe runs in a child process so the table
/// stays out of the runner's RSS.
class SpeedProbe {
public:
  SpeedProbe() {
    int Down[2], Up[2];
    if (::pipe2(Down, O_CLOEXEC) != 0)
      return;
    if (::pipe2(Up, O_CLOEXEC) != 0) {
      ::close(Down[0]);
      ::close(Down[1]);
      return;
    }
    Pid = ::fork();
    if (Pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::close(Down[1]);
      ::close(Up[0]);
      serve(Down[0], Up[1]);
      ::_exit(0);
    }
    ::close(Down[0]);
    ::close(Up[1]);
    ToChild = Down[1];
    FromChild = Up[0];
  }

  ~SpeedProbe() {
    if (ToChild >= 0)
      ::close(ToChild); // The child exits when its input closes.
    if (FromChild >= 0)
      ::close(FromChild);
    if (Pid > 0)
      ::waitpid(Pid, nullptr, 0);
  }

  /// CPU milliseconds of one probe, or 0 if the child is gone.
  double measureMs() {
    const char Go = 1;
    double Ms = 0;
    if (Pid <= 0 || ::write(ToChild, &Go, 1) != 1 ||
        ::read(FromChild, &Ms, sizeof(Ms)) != ssize_t(sizeof(Ms)))
      return 0;
    return Ms;
  }

private:
  pid_t Pid = -1;
  int ToChild = -1, FromChild = -1;

  static void serve(int In, int Out) {
    // One cycle through a random permutation of 16M slots, so every step
    // is a dependent load that misses the caches.
    const uint32_t N = 16u << 20;
    std::vector<uint32_t> Order(N), Next(N);
    for (uint32_t I = 0; I < N; ++I)
      Order[I] = I;
    Rng G(0x5eed);
    for (uint32_t I = N - 1; I > 0; --I)
      std::swap(Order[I], Order[G.nextBounded(I + 1)]);
    for (uint32_t I = 0; I < N; ++I)
      Next[Order[I]] = Order[(I + 1) % N];
    std::vector<uint32_t>().swap(Order);
    uint32_t X = 0;
    uint64_t H = 1;
    volatile uint64_t Sink; // Keeps the loops from being optimized away.
    char Go;
    while (::read(In, &Go, 1) == 1) {
      const double C0 = processCpuSeconds();
      for (unsigned I = 0; I < 1000000; ++I)
        X = Next[X];
      H += X;
      for (unsigned I = 0; I < 25000000; ++I)
        H = (H ^ (H >> 29)) * 0xBF58476D1CE4E5B9ull + I;
      Sink = H;
      const double Ms = 1e3 * (processCpuSeconds() - C0);
      if (::write(Out, &Ms, sizeof(Ms)) != ssize_t(sizeof(Ms)))
        return;
    }
  }
};

/// The probe every timed loop samples; forked at start-up, before the
/// runner has threads or a large heap.
SpeedProbe &speedProbe() {
  static SpeedProbe P;
  return P;
}

double selfPeakRssMb() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

/// Appends the tracer's buffered spans to the dump as one iteration.
void drainSpans(Report &R) {
  const unsigned Iter = R.SpanIterations++;
  Tracer &T = Tracer::instance();
  T.disable();
  R.SpansDropped += T.eventsDropped();
  std::ofstream Out(R.SpansPath, std::ios::app);
  for (const TraceEvent &E : T.snapshot())
    Out << Iter << ' ' << E.Tid << ' ' << E.StartNs << ' ' << E.DurNs << ' '
        << E.Name << '\n';
}

/// Runs \p Iteration until --seconds have passed, and at least three
/// times. With tracing, the first half runs untraced and the second half
/// traced, one span-dump iteration per call. Records the process's user and
/// system seconds over the whole loop.
void timedLoop(const Args &A, Report &R,
               const std::function<void(Phase &)> &Iteration) {
  auto RunFor = [&](double Budget, Phase P) {
    Clock::time_point T0 = Clock::now();
    for (unsigned N = 0; N < 3 || secondsSince(T0) < Budget; ++N) {
      P.sample("probe_ms", speedProbe().measureMs());
      if (P.Traced)
        Tracer::instance().enable(1 << 17);
      Iteration(P);
      if (P.Traced)
        drainSpans(R);
    }
  };
  const CpuTimes Cpu0 = CpuTimes::self();
  if (!A.Trace) {
    RunFor(A.Seconds, Phase{"", false, &R});
  } else {
    RunFor(A.Seconds / 2, Phase{"", false, &R});
    RunFor(A.Seconds / 2, Phase{"traced.", true, &R});
  }
  const CpuTimes Cpu1 = CpuTimes::self();
  R.Values["proc.user_s"] = Cpu1.User - Cpu0.User;
  R.Values["proc.sys_s"] = Cpu1.Sys - Cpu0.Sys;
}

//===----------------------------------------------------------------------===//
// Calls into the library's public entry points, each under its own span.
//===----------------------------------------------------------------------===//

std::unique_ptr<Program> synthesize(const AppProfile &P, unsigned NThreads) {
  MCO_TRACE_SPAN("api.CorpusSynthesizer::generate", "bench");
  return CorpusSynthesizer(P).withThreads(NThreads).generate();
}

BuildResult build(Program &Prog, const PipelineOptions &Opts) {
  MCO_TRACE_SPAN("api.buildProgram", "bench");
  return buildProgram(Prog, Opts);
}

std::string digestOf(Program &Prog) {
  MCO_TRACE_SPAN("api.programContentDigest", "bench");
  return programContentDigest(Prog);
}

std::string hex64(uint64_t V) {
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)V);
  return Buf;
}

AppProfile riderProfile(uint64_t Seed, unsigned Modules) {
  AppProfile P = AppProfile::uberRider();
  P.Seed = Seed;
  P.NumModules = Modules;
  return P;
}

/// What the span drivers of one program compute: each driver's return
/// value, a digest of every module global afterwards, and (with a
/// performance model) each driver's modeled cycles.
struct SpanRun {
  std::vector<int64_t> Returns;
  uint64_t GlobalsDigest = 0;
  std::vector<double> Cycles;
  std::string Fault;

  double totalCycles() const {
    double N = 0;
    for (double C : Cycles)
      N += C;
    return N;
  }

  bool sameBehaviour(const SpanRun &O) const {
    return Fault.empty() && O.Fault.empty() && Returns == O.Returns &&
           GlobalsDigest == O.GlobalsDigest;
  }
};

SpanRun runSpans(const Program &Prog, const AppProfile &P,
                 const PerfConfig *Cfg, const LayoutPlan *Plan = nullptr) {
  SpanRun Out;
  Expected<BinaryImage> Img = BinaryImage::create(Prog, Plan);
  if (!Img.ok()) {
    Out.Fault = Img.status().render();
    return Out;
  }
  Interpreter I(*Img, Prog, Cfg);
  for (unsigned S = 0; S < P.NumSpans; ++S) {
    const double Before = I.counters().Cycles;
    Expected<int64_t> V = I.tryCall(CorpusSynthesizer::spanFunctionName(S));
    if (!V.ok()) {
      Out.Fault = V.status().render();
      return Out;
    }
    Out.Returns.push_back(*V);
    Out.Cycles.push_back(I.counters().Cycles - Before);
  }
  Fnv64 H;
  for (unsigned M = 0; M < P.NumModules; ++M)
    for (unsigned G = 0; G < P.GlobalsPerModule; ++G) {
      uint32_t Sym =
          Prog.lookupSymbol("g_" + std::to_string(M) + "_" + std::to_string(G));
      uint64_t Addr = Sym == UINT32_MAX ? 0 : Img->globalAddr(Sym);
      if (Addr == 0)
        continue;
      for (unsigned W = 0; W < P.GlobalWords; ++W)
        H.update(I.memory().read64(Addr + 8 * W));
    }
  H.update(I.memory().liveHeapBytes());
  Out.GlobalsDigest = H.value();
  return Out;
}

/// The reference device the wp/pm/daemon span cycles are modeled on: the
/// fleet's first device class.
const PerfConfig &referenceDevice() {
  static const std::vector<DeviceClass> Classes = defaultDeviceClasses();
  return Classes[0].Cfg;
}

/// Checks that a freshly synthesized corpus and \p Built compute the same
/// thing — an oracle that does not depend on the outliner. \returns the
/// built program's spans, modeled on the reference device.
SpanRun checkSpanOracle(Report &R, const std::string &What,
                        const AppProfile &P, const Program &Built) {
  std::unique_ptr<Program> Plain = synthesize(P, Threads);
  SpanRun Ref = runSpans(*Plain, P, nullptr);
  SpanRun Got = runSpans(Built, P, &referenceDevice());
  R.check(What + ".span_oracle", Ref.sameBehaviour(Got),
          Ref.Fault.empty() ? Got.Fault : Ref.Fault);
  return Got;
}

/// Deterministic work counters of one build's outlining.
std::map<std::string, uint64_t> outlineCounters(const BuildResult &B) {
  std::map<std::string, uint64_t> C;
  uint64_t Later = 0;
  for (size_t I = 0; I < B.OutlineStats.Rounds.size(); ++I) {
    const OutlineRoundStats &RS = B.OutlineStats.Rounds[I];
    C["outliner.patterns_considered"] += RS.PatternsConsidered;
    C["outliner.sequences_outlined"] += RS.SequencesOutlined;
    C["outliner.functions_created"] += RS.FunctionsCreated;
    C["outliner.functions_remapped"] += RS.FunctionsRemapped;
    C["outliner.liveness_computed"] += RS.LivenessComputed;
    uint64_t Saved = RS.CodeSizeBefore > RS.CodeSizeAfter
                         ? RS.CodeSizeBefore - RS.CodeSizeAfter
                         : 0;
    C["outliner.bytes_saved"] += Saved;
    if (I > 0)
      Later += Saved;
  }
  C["outliner.later_rounds_bytes_saved"] = Later;
  return C;
}

uint64_t dirBytes(const fs::path &Dir) {
  uint64_t N = 0;
  std::error_code EC;
  for (auto It = fs::recursive_directory_iterator(Dir, EC);
       !EC && It != fs::recursive_directory_iterator(); It.increment(EC))
    if (It->is_regular_file(EC))
      N += It->file_size(EC);
  return N;
}

void freshDir(const fs::path &Dir) {
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir);
}

//===----------------------------------------------------------------------===//
// wp-outline: the whole-program pipeline on a 600-module corpus.
//===----------------------------------------------------------------------===//

void runWpOutline(const Args &A, Report &R) {
  const AppProfile P = riderProfile(A.Seed, 600);
  PipelineOptions Opts;
  Opts.WholeProgram = true;
  Opts.OutlineRounds = 5;
  Opts.Threads = Threads;

  std::string Digest;
  std::map<std::string, uint64_t> Counters;
  {
    std::unique_ptr<Program> Prog = synthesize(P, Threads);
    R.Counters["synth.instrs"] = Prog->numInstrs();
    BuildResult B = build(*Prog, Opts);
    Digest = digestOf(*Prog);
    Counters = outlineCounters(B);
    SpanRun S = checkSpanOracle(R, "wp", P, *Prog);
    R.Values["text_bytes"] = double(B.CodeSize);
    R.Values["span_cycles"] = S.totalCycles();
  }
  R.Digests["artifact_digest"] = Digest;
  R.Counters.insert(Counters.begin(), Counters.end());
  if (A.CheckOnly)
    return;

  timedLoop(A, R, [&](Phase &Ph) {
    Stopwatch Setup;
    std::unique_ptr<Program> Prog = synthesize(P, Threads);
    Ph.sample("setup_s", Setup.cpuS());
    Ph.sample("setup_wall_s", Setup.wallS());
    Stopwatch Op;
    BuildResult B = build(*Prog, Opts);
    const double BuildS = Op.wallS();
    Ph.sample("op_cpu_ms", 1e3 * Op.cpuS());
    Ph.sample("op_ms", 1e3 * BuildS);
    Ph.sample("items", double(P.NumModules));
    Ph.sample("items_wall_s", BuildS);
    Ph.sample("pipeline.link_s", B.LinkIRSeconds);
    Ph.sample("pipeline.layout_s", B.LayoutSeconds);
    ++R.Attempted;
    if (digestOf(*Prog) != Digest || outlineCounters(B) != Counters) {
      ++R.Failed;
      R.Notes.push_back("wp: a timed build's output differs from the first");
    }
  });
}

//===----------------------------------------------------------------------===//
// pm-cache: the per-module pipeline, cold into an empty cache, then warm.
//===----------------------------------------------------------------------===//

void runPmCache(const Args &A, Report &R) {
  const AppProfile P = riderProfile(A.Seed, 600);
  const fs::path CacheDir = fs::path(A.Work) / "pm-cache";
  PipelineOptions Opts;
  Opts.WholeProgram = false;
  Opts.OutlineRounds = 5;
  Opts.Threads = Threads;
  Opts.Resilience.CacheDir = CacheDir.string();

  std::string Digest;
  std::map<std::string, uint64_t> Counters;
  uint64_t Modules = 0;
  {
    freshDir(CacheDir);
    std::unique_ptr<Program> Prog = synthesize(P, Threads);
    R.Counters["synth.instrs"] = Prog->numInstrs();
    Modules = Prog->Modules.size();
    BuildResult Cold = build(*Prog, Opts);
    Digest = digestOf(*Prog);
    R.Counters["cache.bytes_written"] = dirBytes(CacheDir / "objects");
    SpanRun S = checkSpanOracle(R, "pm", P, *Prog);
    R.Values["text_bytes"] = double(Cold.CodeSize);
    R.Values["span_cycles"] = S.totalCycles();

    Prog = synthesize(P, Threads);
    BuildResult Warm = build(*Prog, Opts);
    R.check("pm.cold_equals_warm", digestOf(*Prog) == Digest);
    R.check("pm.cold_all_misses",
            Cold.CacheMisses == Modules && Cold.CacheHits == 0);
    R.check("pm.warm_all_hits",
            Warm.CacheHits == Modules && Warm.CacheMisses == 0);
    R.check("pm.no_corrupt_entries",
            Cold.CacheCorrupt == 0 && Warm.CacheCorrupt == 0);
    Counters = outlineCounters(Cold);
    R.Counters["cache.misses"] = Cold.CacheMisses;
    R.Counters["cache.hits"] = Warm.CacheHits;
    R.Counters["cache.corrupt"] = Cold.CacheCorrupt + Warm.CacheCorrupt;
  }
  R.Digests["artifact_digest"] = Digest;
  R.Counters.insert(Counters.begin(), Counters.end());
  if (A.CheckOnly)
    return;

  timedLoop(A, R, [&](Phase &Ph) {
    freshDir(CacheDir);
    double Cpu = 0;
    auto OneBuild = [&](const char *Key) {
      Stopwatch Setup;
      std::unique_ptr<Program> Prog = synthesize(P, Threads);
      Ph.sample("setup_s", Setup.cpuS());
      Ph.sample("setup_wall_s", Setup.wallS());
      Stopwatch Op;
      BuildResult B = build(*Prog, Opts);
      const double S = Op.wallS();
      Cpu += Op.cpuS();
      Ph.sample(Key, S);
      Ph.sample("pipeline.link_s", B.LinkIRSeconds);
      Ph.sample("pipeline.layout_s", B.LayoutSeconds);
      ++R.Attempted;
      if (digestOf(*Prog) != Digest || B.CacheCorrupt != 0) {
        ++R.Failed;
        R.Notes.push_back(std::string("pm: ") + Key + " output differs");
      }
      return std::make_pair(S, B);
    };
    auto [ColdS, Cold] = OneBuild("cold_build_s");
    auto [WarmS, Warm] = OneBuild("warm_build_s");
    if (Cold.CacheMisses != Modules || Warm.CacheHits != Modules ||
        outlineCounters(Cold) != Counters) {
      ++R.Failed;
      R.Notes.push_back("pm: cache counters differ from the first cycle");
    }
    Ph.sample("op_ms", 1e3 * (ColdS + WarmS));
    Ph.sample("op_cpu_ms", 1e3 * Cpu);
    Ph.sample("items", 2.0 * double(Modules));
    Ph.sample("items_wall_s", ColdS + WarmS);
  });
  std::error_code EC;
  fs::remove_all(CacheDir, EC);
}

//===----------------------------------------------------------------------===//
// fleet-bp: measure -> bp plan -> verify over a 64-device fleet.
//===----------------------------------------------------------------------===//

std::string fleetDigest(const FleetReport &F) {
  Fnv64 H;
  H.update(fleetReportJson(F));
  return hex64(H.value());
}

void runFleetBp(const Args &A, Report &R) {
  const AppProfile P = riderProfile(A.Seed, 64);
  PipelineOptions Opts;
  Opts.WholeProgram = true;
  Opts.OutlineRounds = 3;
  Opts.Threads = Threads;

  // Set-up builds the artifact several times so setup_s is a median.
  std::unique_ptr<Program> Prog;
  BuildResult Built;
  for (int I = 0; I < 7; ++I) {
    Stopwatch Setup;
    Prog = synthesize(P, Threads);
    Built = build(*Prog, Opts);
    R.Samples["setup_s"].push_back(Setup.cpuS());
    R.Samples["setup_wall_s"].push_back(Setup.wallS());
  }
  R.Digests["artifact_digest"] = digestOf(*Prog);
  R.Values["text_bytes"] = double(Built.CodeSize);
  checkSpanOracle(R, "fleet", P, *Prog);

  FleetOptions FO;
  FO.NumDevices = 64;
  FO.Seed = A.Seed;
  FO.Threads = Threads;
  for (unsigned S = 0; S < P.NumSpans; ++S)
    FO.Entries.push_back(CorpusSynthesizer::spanFunctionName(S));
  Expected<std::unique_ptr<LayoutStrategy>> Bp = createLayoutStrategy("bp");
  if (!Bp.ok()) {
    R.check("fleet.bp_strategy", false, Bp.status().render());
    return;
  }

  struct Loop {
    FleetReport Measure, Verify;
    TraceProfile Traces;
    LayoutPlan Plan;
  };
  auto RunLoop = [&] {
    Loop L;
    HeatProfile Heat;
    {
      MCO_TRACE_SPAN("api.runFleet:measure", "bench");
      L.Measure = runFleet(*Prog, FO, nullptr, &L.Traces, &Heat);
    }
    {
      MCO_TRACE_SPAN("api.LayoutStrategy::plan", "bench");
      Expected<LayoutPlan> PE = (*Bp)->plan(*Prog, L.Traces);
      if (PE.ok())
        L.Plan = std::move(*PE);
      else
        R.check("fleet.bp_plan", false, PE.status().render());
    }
    {
      MCO_TRACE_SPAN("api.runFleet:verify", "bench");
      L.Verify = runFleet(*Prog, FO, &L.Plan);
    }
    return L;
  };

  // Probes from outside, traced runs only: the image the verify pass lays
  // out, then one device per class with Interpreter set-up timed apart
  // from the span calls.
  auto Probe = [&](Phase &Ph, const LayoutPlan &Plan) {
    Expected<BinaryImage> Img = [&] {
      MCO_TRACE_SPAN("api.BinaryImage::create", "bench");
      return BinaryImage::create(*Prog, &Plan);
    }();
    if (!Img.ok())
      return;
    const std::vector<DeviceClass> Classes = defaultDeviceClasses();
    uint64_t Instrs = 0;
    for (const DeviceClass &C : Classes) {
      std::optional<Interpreter> I;
      {
        MCO_TRACE_SPAN("api.Interpreter", "bench");
        I.emplace(*Img, *Prog, &C.Cfg);
      }
      for (const std::string &E : FO.Entries) {
        MCO_TRACE_SPAN("api.Interpreter::call", "bench");
        (void)I->tryCall(E);
      }
      Instrs += I->counters().Instrs;
    }
    Ph.sample("sim.probe_devices", double(Classes.size()));
    Ph.sample("sim.probe_instrs", double(Instrs));
  };

  Loop First = RunLoop();
  const uint64_t OriginalFaults = estimateTextFaults(*Prog, {}, First.Traces);
  const std::string MeasureDigest = fleetDigest(First.Measure);
  const std::string VerifyDigest = fleetDigest(First.Verify);
  R.Digests["fleet_measure_digest"] = MeasureDigest;
  R.Digests["fleet_verify_digest"] = VerifyDigest;
  auto Faulted = [](const FleetReport &F) {
    uint64_t N = 0;
    for (const DeviceResult &D : F.Devices)
      N += !D.FaultMsg.empty();
    return N;
  };
  R.check("fleet.no_device_faults",
          Faulted(First.Measure) == 0 && Faulted(First.Verify) == 0);
  R.check("fleet.bp_fewer_text_faults",
          First.Plan.EstimatedTextFaults < OriginalFaults,
          std::to_string(First.Plan.EstimatedTextFaults) + " vs " +
              std::to_string(OriginalFaults));
  R.Values["span_cycles"] =
      runSpans(*Prog, P, &referenceDevice(), &First.Plan).totalCycles();
  R.Values["fleet.span_cycles_p50"] = First.Verify.Overall.CyclesP50;
  R.Values["fleet.text_faults_p50"] = First.Verify.Overall.TextFaultsP50;
  R.Counters["sim.instrs"] =
      First.Measure.Overall.TotalInstrs + First.Verify.Overall.TotalInstrs;
  R.Counters["linker.est_text_faults"] = First.Plan.EstimatedTextFaults;
  R.Counters["linker.est_text_faults_original"] = OriginalFaults;
  if (A.CheckOnly)
    return;

  timedLoop(A, R, [&](Phase &Ph) {
    Stopwatch Op;
    Loop L = RunLoop();
    const double S = Op.wallS();
    Ph.sample("op_cpu_ms", 1e3 * Op.cpuS());
    if (Ph.Traced)
      Probe(Ph, L.Plan);
    Ph.sample("op_ms", 1e3 * S);
    Ph.sample("items", 2.0 * FO.NumDevices);
    Ph.sample("items_wall_s", S);
    R.Attempted += 2 * FO.NumDevices;
    uint64_t Bad = Faulted(L.Measure) + Faulted(L.Verify);
    if (fleetDigest(L.Measure) != MeasureDigest ||
        fleetDigest(L.Verify) != VerifyDigest) {
      Bad = std::max<uint64_t>(Bad, 1);
      R.Notes.push_back("fleet: a fleet report differs from the first");
    }
    R.Failed += Bad;
  });
}

//===----------------------------------------------------------------------===//
// daemon-mix: 4 closed-loop clients against a spawned mco-buildd.
//===----------------------------------------------------------------------===//

/// One (profile, modules) request shape of the mix.
struct MixConfig {
  std::string Profile;
  unsigned Modules = 0;
  std::string Digest; ///< In-process reference build's artifact digest.
  int64_t CodeSize = 0;
};

/// The daemon's profile table (mco-buildd resolves "profile" the same way).
AppProfile daemonProfile(const std::string &Name, unsigned Modules) {
  AppProfile P = Name == "driver" ? AppProfile::uberDriver()
                 : Name == "eats" ? AppProfile::uberEats()
                                  : AppProfile::uberRider();
  P.NumModules = Modules;
  return P;
}

PipelineOptions daemonBuildOptions() {
  PipelineOptions O;
  O.WholeProgram = false;
  O.OutlineRounds = 2;
  return O;
}

struct Daemon {
  pid_t Pid = -1;
  std::string Socket, State, Binary;
  rusage Usage{};

  ClientOptions clientOptions(unsigned Attempts) const {
    ClientOptions CO;
    CO.SocketPath = Socket;
    CO.MaxAttempts = Attempts;
    CO.ReplyTimeoutMs = 60000;
    return CO;
  }

  /// fork+exec mco-buildd and wait for its first pong. \returns the wall
  /// seconds until then, or a negative value if it never answered.
  double start() {
    freshDir(State);
    std::error_code EC;
    fs::remove(Socket, EC);
    Clock::time_point T0 = Clock::now();
    Pid = ::fork();
    if (Pid == 0) {
      // Never outlive the benchmark, even if it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      std::freopen("/dev/null", "w", stderr);
      // One worker: concurrent workers race on the process-wide
      // MetricsRegistry (each buildProgram resets it while another build
      // writes through its counters), which kills the daemon in about one
      // 20-second run in eight. The 4 clients still queue on it.
      ::execl(Binary.c_str(), "mco-buildd", "--socket", Socket.c_str(),
              "--state", State.c_str(), "--workers", "1", (char *)nullptr);
      ::_exit(127);
    }
    if (Pid < 0)
      return -1;
    DaemonClient Probe(clientOptions(1));
    RpcMessage Ping;
    Ping.Type = "ping";
    for (int I = 0; I < 20000; ++I) {
      Expected<RpcMessage> Pong = Probe.call(Ping);
      if (Pong.ok() && Pong->Type == "pong")
        return secondsSince(T0);
      ::usleep(250);
    }
    return -1;
  }

  bool alive() const {
    return Pid > 0 && ::waitpid(Pid, nullptr, WNOHANG) == 0;
  }

  /// Asks the daemon to shut down and reaps it, keeping its rusage.
  void stop() {
    if (Pid <= 0)
      return;
    RpcMessage M;
    M.Type = "shutdown";
    (void)DaemonClient(clientOptions(1)).call(M);
    int WStatus = 0;
    ::wait4(Pid, &WStatus, 0, &Usage);
    Pid = -1;
  }

  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
  }
};

std::map<std::string, int64_t> daemonStats(const Daemon &D) {
  RpcMessage M;
  M.Type = "stats";
  Expected<RpcMessage> S = DaemonClient(D.clientOptions(3)).call(M);
  return S.ok() ? S->Int : std::map<std::string, int64_t>{};
}

void runDaemonMix(const Args &A, Report &R) {
  // The request mix: three profiles times four seeded module counts, one
  // from each of 7..9, 15..17, 23..25 and 31..33 so every seed asks for
  // about the same amount of work. Requests draw shapes from the seed, so
  // prefixes of one profile share cache entries and a run mixes full hits,
  // partial hits and misses.
  Rng MixRng(A.Seed * 0x9E3779B97F4A7C15ull + 7);
  std::vector<unsigned> ModuleCounts;
  for (unsigned K = 1; K <= 4; ++K)
    ModuleCounts.push_back(unsigned(8 * K + MixRng.nextInRange(-1, 1)));
  std::vector<MixConfig> Configs;
  for (const char *Profile : {"rider", "driver", "eats"})
    for (unsigned M : ModuleCounts)
      Configs.push_back(MixConfig{Profile, M, "", 0});
  std::vector<uint32_t> Mix;
  auto ConfigOf = [&](size_t I) -> const MixConfig & {
    while (Mix.size() <= I)
      Mix.push_back(uint32_t(MixRng.nextBounded(Configs.size())));
    return Configs[Mix[I]];
  };
  for (size_t I = 0; I < 4096; ++I)
    (void)ConfigOf(I); // Fixed before the clients start: no shared growth.

  // Set-up: build every request shape in-process, five times over.
  // Every daemon result must match these builds. setup_s is the CPU time of
  // one pass over the 12 shapes; the daemon's own start to first pong, a
  // few milliseconds of page faults, is too short to gate steadily and is
  // reported as daemon.start_ms.
  double Cycles = 0;
  uint64_t TextBytes = 0, Instrs = 0;
  Fnv64 RefDigest;
  for (int Pass = 0; Pass < 5; ++Pass) {
    double PassCpu = 0, PassWall = 0;
    for (MixConfig &C : Configs) {
      AppProfile P = daemonProfile(C.Profile, C.Modules);
      Stopwatch Setup;
      std::unique_ptr<Program> Prog = synthesize(P, 1);
      const uint64_t Synthesized = Prog->numInstrs();
      BuildResult B = build(*Prog, daemonBuildOptions());
      PassCpu += Setup.cpuS();
      PassWall += Setup.wallS();
      if (Pass > 0)
        continue;
      Instrs += Synthesized;
      C.Digest = digestOf(*Prog);
      C.CodeSize = int64_t(B.CodeSize);
      TextBytes += B.CodeSize;
      RefDigest.update(C.Digest);
      Cycles += checkSpanOracle(R, "daemon." + C.Profile, P, *Prog)
                    .totalCycles();
    }
    R.Samples["setup_s"].push_back(PassCpu);
    R.Samples["setup_wall_s"].push_back(PassWall);
  }
  R.Digests["artifact_digest"] = hex64(RefDigest.value());
  R.Values["text_bytes"] = double(TextBytes);
  R.Values["span_cycles"] = Cycles / double(Configs.size());
  R.Counters["synth.instrs"] = Instrs;
  if (A.CheckOnly)
    return;

  Daemon D;
  D.Binary = A.Buildd;
  // Relative to the work directory (this process's cwd): a socket path must
  // fit sockaddr_un's 108 bytes wherever the checkout lives.
  D.Socket = "buildd.sock";
  D.State = (fs::path(A.Work) / "buildd-state").string();
  const double StartS = D.start();
  if (StartS < 0) {
    R.check("daemon.started", false, "mco-buildd never answered a ping");
    return;
  }
  R.Values["daemon.start_ms"] = 1e3 * StartS;
  std::map<std::string, int64_t> Before = daemonStats(D);

  constexpr unsigned Burst = 48;
  std::atomic<uint64_t> NextId{0};
  std::mutex Mu;
  uint64_t Hits = 0, Misses = 0, Completed = 0;
  timedLoop(A, R, [&](Phase &Ph) {
    const uint64_t End = NextId.load() + Burst;
    Clock::time_point T0 = Clock::now();
    std::vector<std::thread> Clients;
    for (unsigned C = 0; C < 4; ++C)
      Clients.emplace_back([&] {
        DaemonClient Client(D.clientOptions(3));
        for (unsigned N = 0;; ++N) {
          const uint64_t I = NextId.fetch_add(1);
          if (I >= End)
            return;
          if (Ph.Traced && N % 4 == 0) {
            RpcMessage Ping;
            Ping.Type = "ping";
            Clock::time_point P0 = Clock::now();
            Expected<RpcMessage> Pong = [&] {
              MCO_TRACE_SPAN("api.DaemonClient::call", "bench");
              return Client.call(Ping);
            }();
            std::lock_guard<std::mutex> L(Mu);
            if (Pong.ok())
              Ph.sample("daemon.ping_ms", 1e3 * secondsSince(P0));
          }
          const MixConfig &Cfg = ConfigOf(I % Mix.size());
          RpcMessage Req;
          Req.Type = "build";
          Req.Str["id"] = "s" + std::to_string(A.Seed) + "-" + std::to_string(I);
          Req.Str["profile"] = Cfg.Profile;
          Req.Int["modules"] = Cfg.Modules;
          Req.Int["rounds"] = 2;
          Req.Int["per_module"] = 1;
          Clock::time_point R0 = Clock::now();
          Expected<RpcMessage> Res = [&] {
            MCO_TRACE_SPAN("api.DaemonClient::submitBuild", "bench");
            return Client.submitBuild(Req);
          }();
          const double Ms = 1e3 * secondsSince(R0);
          std::lock_guard<std::mutex> L(Mu);
          ++R.Attempted;
          if (!Res.ok() || Res->Type != "result" ||
              Res->strOr("state", "") != "completed" ||
              Res->strOr("artifact_digest", "") != Cfg.Digest ||
              Res->intOr("code_size", -1) != Cfg.CodeSize) {
            ++R.Failed;
            if (R.Notes.size() < 8)
              R.Notes.push_back("daemon: request " + Req.Str["id"] + " " +
                                (Res.ok() ? Res->strOr("state", Res->Type)
                                          : Res.status().render()));
            continue;
          }
          ++Completed;
          Hits += uint64_t(Res->intOr("cache_hits", 0));
          Misses += uint64_t(Res->intOr("cache_misses", 0));
          Ph.sample("op_ms", Ms);
        }
      });
    for (std::thread &T : Clients)
      T.join();
    Ph.sample("items", Burst);
    Ph.sample("items_wall_s", secondsSince(T0));
  });

  R.check("daemon.alive_after_burst", D.alive());
  std::map<std::string, int64_t> After = daemonStats(D);
  auto Delta = [&](const char *Key) {
    return double(After[Key] - Before[Key]);
  };
  R.Values["daemon.rejected"] = Delta("requests_rejected");
  R.Values["daemon.degraded"] = Delta("requests_degraded");
  R.Values["daemon.failed"] = Delta("requests_failed");
  R.Values["daemon.completed"] = double(Completed);
  R.Values["daemon.hit_ratio"] =
      Hits + Misses ? double(Hits) / double(Hits + Misses) : 0;
  R.Values["daemon.cache_hits"] = double(Hits);
  R.Values["daemon.cache_misses"] = double(Misses);
  // `failed` counts what the clients saw. The daemon's own completions must
  // match theirs; a build it failed and a client then retried to success
  // shows in daemon.failed, a rejection the client waited out in
  // daemon.rejected.
  R.check("daemon.stats_match_clients",
          Delta("requests_completed") == double(Completed),
          std::to_string(int64_t(Delta("requests_completed"))) + " vs " +
              std::to_string(Completed));
  D.stop();
  R.Values["peak_rss_mb"] = double(D.Usage.ru_maxrss) / 1024.0;
  const CpuTimes Child(D.Usage);
  const double DaemonCpu = Child.User + Child.Sys;
  R.Values["daemon.cpu_s"] = DaemonCpu;
  if (Completed)
    R.Samples["op_cpu_ms"].push_back(1e3 * DaemonCpu / double(Completed));

  if (A.Trace) {
    // The daemon re-synthesizes every request's corpus; time the same
    // mix's synthesis in-process to see how much of a request that is.
    Tracer::instance().enable(1 << 17);
    for (size_t I = 0; I < 64; ++I) {
      const MixConfig &Cfg = ConfigOf(I);
      Clock::time_point T0 = Clock::now();
      std::unique_ptr<Program> Prog =
          synthesize(daemonProfile(Cfg.Profile, Cfg.Modules), 1);
      R.Samples["synth.per_request_ms"].push_back(1e3 * secondsSince(T0));
    }
    Tracer::instance().disable();
  }
}

//===----------------------------------------------------------------------===//
// Output.
//===----------------------------------------------------------------------===//

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printReport(const Args &A, const Report &R) {
  std::string O = "{\"workload\": " + jsonString(A.Workload);
  O += ", \"seed\": " + std::to_string(A.Seed);
  O += ", \"attempted\": " + std::to_string(R.Attempted);
  O += ", \"failed\": " + std::to_string(R.Failed);
  O += ", \"checks\": {";
  for (size_t I = 0; I < R.Checks.size(); ++I)
    O += (I ? ", " : "") + jsonString(R.Checks[I].first) + ": " +
         (R.Checks[I].second ? "true" : "false");
  O += "}, \"notes\": [";
  for (size_t I = 0; I < R.Notes.size(); ++I)
    O += (I ? ", " : "") + jsonString(R.Notes[I]);
  O += "], \"samples\": {";
  bool First = true;
  for (const auto &[K, V] : R.Samples) {
    O += (First ? "" : ", ") + jsonString(K) + ": [";
    for (size_t I = 0; I < V.size(); ++I)
      O += (I ? ", " : "") + jsonNumber(V[I]);
    O += "]";
    First = false;
  }
  O += "}, \"values\": {";
  First = true;
  for (const auto &[K, V] : R.Values) {
    O += (First ? "" : ", ") + jsonString(K) + ": " + jsonNumber(V);
    First = false;
  }
  O += "}, \"counters\": {";
  First = true;
  for (const auto &[K, V] : R.Counters) {
    O += (First ? "" : ", ") + jsonString(K) + ": " + std::to_string(V);
    First = false;
  }
  O += "}, \"digests\": {";
  First = true;
  for (const auto &[K, V] : R.Digests) {
    O += (First ? "" : ", ") + jsonString(K) + ": " + jsonString(V);
    First = false;
  }
  O += "}, \"spans\": " + jsonString(A.Trace ? R.SpansPath : "");
  O += ", \"spans_dropped\": " + std::to_string(R.SpansDropped);
  O += "}";
  std::printf("%s\n", O.c_str());
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--check-only") {
      A.CheckOnly = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--work")
      A.Work = V;
    else if (K == "--buildd")
      A.Buildd = V;
    else
      return false;
  }
  return !A.Workload.empty() && !A.Work.empty() && A.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench-workloads --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work DIR [--buildd PATH] "
                 "[--check-only]\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  if (!A.CheckOnly)
    (void)speedProbe();
  fs::create_directories(A.Work);
  A.Work = fs::absolute(A.Work).string();
  if (!A.Buildd.empty())
    A.Buildd = fs::absolute(A.Buildd).string();
  fs::current_path(A.Work);
  Report R;
  R.SpansPath = (fs::path(A.Work) / "spans.txt").string();
  std::error_code EC;
  fs::remove(R.SpansPath, EC);

  static const std::map<std::string, void (*)(const Args &, Report &)>
      Workloads = {{"wp-outline", runWpOutline},
                   {"pm-cache", runPmCache},
                   {"fleet-bp", runFleetBp},
                   {"daemon-mix", runDaemonMix}};
  auto It = Workloads.find(A.Workload);
  if (It == Workloads.end()) {
    std::fprintf(stderr, "perfbench-workloads: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  It->second(A, R);
  if (!R.Values.count("peak_rss_mb"))
    R.Values["peak_rss_mb"] = selfPeakRssMb();
  printReport(A, R);
  return 0;
}
