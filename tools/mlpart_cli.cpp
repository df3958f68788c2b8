// mlpart — command-line front end for the library.
//
//   mlpart stats      <netlist>                      circuit statistics
//   mlpart partition  <netlist> [options]            k-way ML partitioning
//   mlpart spectral   <netlist> [options]            spectral bisection
//   mlpart place      <netlist> [options]            top-down row placement
//   mlpart convert    <netlist> <out.hgr|out.netD>   format conversion
//   mlpart gen        <benchmark|rent> [options]     synthetic circuit
//
// Netlist formats are auto-detected by extension: .hgr (hMETIS),
// .bench (ISCAS-89), .net/.netD (CBL netD; a sibling .are file with the
// same stem is picked up automatically).
//
// Exit codes (DESIGN.md §8): 0 success, 2 usage, 3 parse error,
// 4 infeasible constraint, 5 deadline exceeded (best-so-far emitted),
// 6 all multi-start workers failed, 7 out of memory, 130 interrupted
// (best-so-far emitted), 1 anything else.
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "core/multilevel.h"
#include "core/parallel_multistart.h"
#include "gen/benchmark_suite.h"
#include "gen/rent_generator.h"
#include "hypergraph/bench_format.h"
#include "hypergraph/io.h"
#include "hypergraph/netd_format.h"
#include "hypergraph/stats.h"
#include "kway/kway_refiner.h"
#include "placement/topdown_placer.h"
#include "portfolio/portfolio.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "robust/memory_governor.h"
#include "robust/run_report.h"
#include "robust/status.h"
#include "serve/json.h"
#include "spectral/spectral.h"

#include "flag_value.h"

using namespace mlpart;

namespace {

// Set by the SIGINT/SIGTERM handler; every deadline binds it, so an
// interrupt behaves like an expired budget: workers wind down, the best
// partition found so far is emitted, and the process exits 130.
std::atomic<bool> g_interrupted{false};

extern "C" void onSignal(int) { g_interrupted.store(true, std::memory_order_relaxed); }

// Failure context for the top-level handler: which phase was running on
// which input when the exception surfaced.
std::string g_phase = "starting up";
std::string g_input;

void setPhase(const std::string& phase, const std::string& input = "") {
    g_phase = phase;
    if (!input.empty()) g_input = input;
}

[[noreturn]] void usage(const std::string& msg = "") {
    if (!msg.empty()) std::cerr << "error: " << msg << "\n\n";
    std::cerr <<
        "usage: mlpart <command> [args]\n"
        "  stats     <netlist>\n"
        "  partition <netlist> [-k K] [-r TOL] [-R RATIO]\n"
        "            [--engine fm|clip|auto|ml|two_phase|lsmc|spectral|genetic]\n"
        "            [--engine-budget SEC]   (portfolio engines: per-job budget,\n"
        "             split across lanes; auto races the whole portfolio)\n"
        "            [--runs N] [--threads T] [--vcycle-threads T] [--seed S]\n"
        "            [--cycles N] [--timeout SEC]\n"
        "            [--checkpoint FILE [--checkpoint-every N]\n"
        "             [--checkpoint-every-cycle] [--resume]]\n"
        "            [--mem-limit BYTES[k|m|g]] [--log-json] [-o OUT.parts]\n"
        "  spectral  <netlist> [-r TOL] [-o OUT.parts]\n"
        "  place     <netlist> [--levels L] [-o OUT.pl]\n"
        "  convert   <netlist> <out.hgr|out.netD>\n"
        "  gen       <benchmark-name|rent> [--scale S] [--modules N] [--nets M]\n"
        "            [--seed S] -o OUT.hgr\n"
        "netlist formats by extension: .hgr, .bench, .net/.netD (+.are)\n"
        "exit codes: 0 ok, 2 usage, 3 parse error, 4 infeasible, 5 deadline\n"
        "            (best-so-far emitted), 6 all starts failed, 7 out of\n"
        "            memory, 130 interrupted (best-so-far emitted)\n";
    std::exit(robust::exitCodeFor(robust::StatusCode::kUsage));
}

constexpr cli::FlagParser kFlag{usage};

Hypergraph loadNetlist(const std::string& path) {
    setPhase("loading netlist", path);
    const std::filesystem::path p(path);
    const std::string ext = p.extension().string();
    if (ext == ".hgr") return readHgrFile(path);
    if (ext == ".bench") return readBenchFile(path);
    if (ext == ".net" || ext == ".netD" || ext == ".netd") {
        std::filesystem::path are = p;
        are.replace_extension(".are");
        if (std::filesystem::exists(are)) return readNetDFile(path, are.string());
        return readNetDFile(path);
    }
    throw robust::Error(robust::StatusCode::kUsage,
                        "unrecognized netlist extension '" + ext + "' (want .hgr/.bench/.netD)");
}

// Tiny flag parser: flags with values; positional args collected in order.
struct Args {
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    [[nodiscard]] std::string get(const std::string& key, const std::string& def) const {
        const auto it = flags.find(key);
        return it == flags.end() ? def : it->second;
    }
    [[nodiscard]] double getD(const std::string& key, double def) const {
        const auto it = flags.find(key);
        return it == flags.end() ? def : kFlag.number<double>(key, it->second);
    }
    [[nodiscard]] long getI(const std::string& key, long def) const {
        const auto it = flags.find(key);
        return it == flags.end() ? def : kFlag.number<long>(key, it->second);
    }
};

Args parseArgs(int argc, char** argv, int start) {
    Args a;
    for (int i = start; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.size() >= 2 && arg[0] == '-' && !std::isdigit(static_cast<unsigned char>(arg[1]))) {
            if (arg == "--resume" || arg == "--log-json" ||
                arg == "--checkpoint-every-cycle") { // valueless flags
                a.flags[arg] = "1";
                continue;
            }
            if (i + 1 >= argc) usage("flag " + arg + " needs a value");
            a.flags[arg] = argv[++i];
        } else {
            a.positional.push_back(arg);
        }
    }
    return a;
}

int cmdStats(const Args& a) {
    if (a.positional.empty()) usage("stats: missing netlist");
    const Hypergraph h = loadNetlist(a.positional[0]);
    const HypergraphStats s = computeStats(h);
    std::cout << a.positional[0] << ":\n"
              << "  modules:    " << s.numModules << "\n"
              << "  nets:       " << s.numNets << "\n"
              << "  pins:       " << s.numPins << "\n"
              << "  avg net:    " << s.avgNetSize << " (max " << s.maxNetSize << ")\n"
              << "  avg degree: " << s.avgDegree << " (max " << s.maxDegree << ")\n"
              << "  components: " << s.numConnectedComponents << " (" << s.numIsolatedModules
              << " isolated modules)\n"
              << "  total area: " << h.totalArea() << " (max " << h.maxArea() << ")\n";
    return 0;
}

// --log-json: one NDJSON line per phase and per start on stderr, reusing
// the RunReport taxonomy — the same schema family the service speaks, so
// one log pipeline parses both (DESIGN.md §11).
void logPhaseJson(bool enabled, const char* phase, double seconds) {
    if (!enabled) return;
    serve::JsonWriter w;
    w.field("event", "phase").field("phase", phase).field("seconds", seconds);
    std::cerr << w.str() << "\n";
}

void logReportJson(const robust::RunReport& report, const MultiStartOutcome& out) {
    for (std::size_t i = 0; i < report.starts.size(); ++i) {
        const robust::StartRecord& rec = report.starts[i];
        serve::JsonWriter w;
        w.field("event", "start")
            .field("run", static_cast<std::int64_t>(i))
            .field("status", robust::startStatusName(rec.status))
            .field("cut", rec.cut)
            .field("attempts", rec.attempts);
        if (!rec.error.ok())
            w.field("error", robust::statusCodeName(rec.error.code))
                .field("message", rec.error.message);
        std::cerr << w.str() << "\n";
    }
    serve::JsonWriter s;
    s.field("event", "summary")
        .field("runs", static_cast<std::int64_t>(report.starts.size()))
        .field("runs_ok", report.succeeded())
        .field("runs_retried", report.retried())
        .field("runs_failed", report.failed())
        .field("runs_skipped", report.skipped())
        .field("deadline_hit", report.deadlineHit)
        .field("min_cut", static_cast<std::int64_t>(out.bestCut))
        .field("best_run", out.bestRun)
        .field("avg_cut", out.cuts.mean())
        .field("seconds", out.seconds);
    std::cerr << s.str() << "\n";
}

/// The --engine auto / single-portfolio-engine path: races the engine
/// portfolio under the fault-containment manager and prints the per-lane
/// evaluation report next to the winner.
int runPortfolioPartition(const Args& a, const Hypergraph& h, PartId k, double r,
                          const std::string& engine, double timeout, bool logJson) {
    portfolio::PortfolioConfig pc;
    pc.k = k;
    pc.tolerance = r;
    pc.matchingRatio = a.getD("-R", 0.5);
    pc.runs = static_cast<int>(a.getI("--runs", 4));
    pc.threads = static_cast<int>(a.getI("--threads", 0));
    pc.vcycleThreads = static_cast<int>(a.getI("--vcycle-threads", 0));
    pc.seed = static_cast<std::uint64_t>(a.getI("--seed", 1));
    pc.budgetSeconds = a.getD("--engine-budget", 0.0);
    if (pc.runs < 1) usage("partition: --runs must be >= 1");
    if (pc.vcycleThreads < 0) usage("partition: --vcycle-threads must be >= 0");
    if (pc.budgetSeconds < 0) usage("partition: --engine-budget must be >= 0");
    if (a.flags.count("--checkpoint"))
        usage("partition: --checkpoint requires --engine fm or clip");
    pc.deadline = timeout > 0 ? robust::Deadline::after(timeout) : robust::Deadline();
    pc.deadline.bindCancelFlag(&g_interrupted);
    if (engine != "auto") {
        portfolio::EngineKind kind{};
        if (!portfolio::parseEngineName(engine, kind))
            usage("partition: --engine must be fm, clip, auto, or one of "
                  "ml/two_phase/lsmc/spectral/genetic");
        pc.engines = {kind};
    }

    setPhase("partitioning (portfolio)");
    const portfolio::PortfolioResult out = runPortfolio(h, pc);
    logPhaseJson(logJson, "partition", out.report.totalSeconds);
    if (logJson)
        std::cerr << portfolio::evaluationReportJson(out.report) << "\n";

    setPhase("writing results");
    std::cout << k << "-way portfolio partition (" << engine << ", seed " << pc.seed;
    if (pc.budgetSeconds > 0) std::cout << ", budget " << pc.budgetSeconds << " s";
    std::cout << "):\n";
    for (const auto& lane : out.report.lanes) {
        std::cout << "  lane " << portfolio::engineName(lane.engine) << ": "
                  << portfolio::laneOutcomeName(lane.outcome);
        if (lane.cut >= 0)
            std::cout << "  cut " << lane.cut << "  max block " << lane.maxBlockArea;
        if (!lane.status.ok()) std::cout << "  (" << lane.status.message << ")";
        std::cout << "  [" << lane.seconds << " s]\n";
    }
    std::cout << "  winner:    " << out.report.winnerName() << "\n"
              << "  min cut:   " << out.bestCut << "\n"
              << "  wall time: " << out.report.totalSeconds << " s\n  block areas:";
    for (PartId p = 0; p < k; ++p) std::cout << ' ' << out.best.blockArea(p);
    std::cout << "\n";
    if (out.report.fallbackUsed)
        std::cout << "  all lanes failed: greedy area-split fallback emitted\n";
    if (a.flags.count("-o")) {
        writePartitionFile(out.best, a.get("-o", ""));
        std::cout << "  wrote " << a.get("-o", "") << "\n";
    }
    if (g_interrupted.load(std::memory_order_relaxed)) {
        std::cout << "  interrupted: best-so-far result emitted\n";
        return robust::exitCodeFor(robust::StatusCode::kInterrupted);
    }
    return 0;
}

int cmdPartition(const Args& a) {
    if (a.positional.empty()) usage("partition: missing netlist");
    const bool logJson = a.flags.count("--log-json") > 0;
    // The budget must govern the *reader's* allocations too, so it is set
    // before the netlist is touched.
    if (a.flags.count("--mem-limit"))
        robust::MemoryGovernor::instance().setLimitBytes(
            kFlag.byteSize("--mem-limit", a.get("--mem-limit", "")));
    const auto tLoad = std::chrono::steady_clock::now();
    const Hypergraph h = loadNetlist(a.positional[0]);
    logPhaseJson(logJson, "load",
                 std::chrono::duration<double>(std::chrono::steady_clock::now() - tLoad).count());
    const PartId k = static_cast<PartId>(a.getI("-k", 2));
    const double r = a.getD("-r", 0.1);
    const std::string engine = a.get("--engine", "clip");
    const double timeout = a.getD("--timeout", 0.0);
    setPhase("validating constraints");
    if (k < 2) usage("partition: -k must be >= 2");
    if (timeout < 0) usage("partition: --timeout must be >= 0");
    if (k > h.numModules())
        throw robust::Error(robust::StatusCode::kInfeasible,
                            "cannot split " + std::to_string(h.numModules()) +
                                " modules into " + std::to_string(k) + " non-empty blocks");

    {
        portfolio::EngineKind kind{};
        if (engine == "auto" || portfolio::parseEngineName(engine, kind))
            return runPortfolioPartition(a, h, k, r, engine, timeout, logJson);
    }
    if (a.flags.count("--engine-budget"))
        usage("partition: --engine-budget requires a portfolio engine (--engine auto/...)");

    MLConfig cfg;
    cfg.k = k;
    cfg.tolerance = r;
    cfg.matchingRatio = a.getD("-R", 0.5);
    if (k > 2) cfg.coarseningThreshold = 100;
    // Deterministic intra-V-cycle parallelism: results are bit-identical
    // for every count >= 1 (0 = the legacy serial algorithms).
    cfg.vcycleThreads = static_cast<int>(a.getI("--vcycle-threads", 0));
    if (cfg.vcycleThreads < 0) usage("partition: --vcycle-threads must be >= 0");
    cfg.vCycles = static_cast<int>(a.getI("--cycles", 1));
    if (cfg.vCycles < 1) usage("partition: --cycles must be >= 1");

    RefinerFactory factory;
    if (k == 2) {
        FMConfig fm;
        fm.tolerance = r;
        if (engine == "clip") fm.variant = EngineVariant::kCLIP;
        else if (engine != "fm")
            usage("partition: --engine must be fm, clip, auto, or one of "
                  "ml/two_phase/lsmc/spectral/genetic");
        factory = makeFMFactory(fm);
    } else {
        KWayConfig kw;
        kw.tolerance = r;
        if (engine != "fm" && engine != "clip")
            usage("partition: --engine must be fm, clip, auto, or one of "
                  "ml/two_phase/lsmc/spectral/genetic");
        kw.clip = engine == "clip";
        factory = makeKWayFactory(kw);
    }
    MultilevelPartitioner ml(cfg, factory);

    MultiStartConfig ms;
    ms.runs = static_cast<int>(a.getI("--runs", 10));
    ms.threads = static_cast<int>(a.getI("--threads", 0));
    ms.seed = static_cast<std::uint64_t>(a.getI("--seed", 1));
    ms.timeoutSeconds = timeout;
    ms.deadline.bindCancelFlag(&g_interrupted);
    ms.checkpointPath = a.get("--checkpoint", "");
    ms.checkpointEvery = static_cast<int>(a.getI("--checkpoint-every", 1));
    ms.resume = a.flags.count("--resume") > 0;
    ms.checkpointEveryCycle = a.flags.count("--checkpoint-every-cycle") > 0;
    if (ms.resume && ms.checkpointPath.empty())
        usage("partition: --resume requires --checkpoint FILE");
    if (ms.checkpointEveryCycle && ms.checkpointPath.empty())
        usage("partition: --checkpoint-every-cycle requires --checkpoint FILE");
    if (ms.checkpointEvery < 1) usage("partition: --checkpoint-every must be >= 1");
    if (!ms.checkpointPath.empty()) {
        // The library fingerprints the instance + MLConfig + protocol; the
        // engine choice is opaque to it (a factory), so fold it in here.
        std::uint64_t salt = 0x454e47u; // "ENG"
        for (const char c : engine)
            salt = robust::hashCombine(salt, static_cast<std::uint8_t>(c));
        ms.fingerprintSalt = salt;
    }
    setPhase("partitioning");
    const MultiStartOutcome out = parallelMultiStart(h, ml, ms);
    logPhaseJson(logJson, "partition", out.seconds);
    if (logJson) logReportJson(out.report, out);

    setPhase("writing results");
    std::cout << k << "-way ML partition (" << engine << " engine, R=" << cfg.matchingRatio
              << ", " << ms.runs << " runs):\n"
              << "  min cut:   " << out.bestCut << " (run " << out.bestRun << ")\n"
              << "  avg cut:   " << out.cuts.mean() << "  std: " << out.cuts.stddev() << "\n"
              << "  wall time: " << out.seconds << " s\n  block areas:";
    for (PartId p = 0; p < k; ++p) std::cout << ' ' << out.best.blockArea(p);
    std::cout << "\n";
    if (out.report.failed() > 0 || out.report.skipped() > 0 || out.report.retried() > 0)
        std::cout << "  " << out.report.summary() << "\n";
    if (ms.resume) {
        if (out.resumeStatus.ok())
            std::cout << "  resumed: " << out.resumedStarts << " starts restored from "
                      << ms.checkpointPath << "\n";
        else
            std::cout << "  resume fallback (fresh run): " << out.resumeStatus.message << "\n";
    }
    if (!out.checkpointStatus.ok())
        std::cout << "  checkpoint warning: " << out.checkpointStatus.message << "\n";
    if (a.flags.count("-o")) {
        writePartitionFile(out.best, a.get("-o", ""));
        std::cout << "  wrote " << a.get("-o", "") << "\n";
    }
    if (g_interrupted.load(std::memory_order_relaxed)) {
        std::cout << "  interrupted: best-so-far result emitted\n";
        return robust::exitCodeFor(robust::StatusCode::kInterrupted);
    }
    if (out.report.deadlineHit) {
        std::cout << "  deadline exceeded: best-so-far result emitted\n";
        return robust::exitCodeFor(robust::StatusCode::kDeadlineExceeded);
    }
    return 0;
}

int cmdSpectral(const Args& a) {
    if (a.positional.empty()) usage("spectral: missing netlist");
    const Hypergraph h = loadNetlist(a.positional[0]);
    SpectralConfig cfg;
    cfg.tolerance = a.getD("-r", 0.1);
    std::mt19937_64 rng(static_cast<std::uint64_t>(a.getI("--seed", 1)));
    setPhase("spectral bisection");
    const SpectralResult r = spectralBisect(h, cfg, rng);
    std::cout << "spectral bisection: cut " << r.cut << " (" << r.iterations
              << " power iterations)\n  block areas: " << r.partition.blockArea(0) << " | "
              << r.partition.blockArea(1) << "\n";
    if (a.flags.count("-o")) {
        writePartitionFile(r.partition, a.get("-o", ""));
        std::cout << "  wrote " << a.get("-o", "") << "\n";
    }
    return 0;
}

int cmdPlace(const Args& a) {
    if (a.positional.empty()) usage("place: missing netlist");
    const Hypergraph h = loadNetlist(a.positional[0]);
    TopDownPlacerConfig cfg;
    cfg.levels = static_cast<int>(a.getI("--levels", 3));
    std::mt19937_64 rng(static_cast<std::uint64_t>(a.getI("--seed", 1)));
    setPhase("top-down placement");
    const TopDownPlacement p = placeTopDown(h, cfg, rng);
    std::cout << "top-down placement: " << p.gridSize << " rows, HPWL " << p.hpwl << "\n";
    if (a.flags.count("-o")) {
        std::ofstream out(a.get("-o", ""));
        if (!out) throw std::runtime_error("cannot open " + a.get("-o", ""));
        for (ModuleId v = 0; v < h.numModules(); ++v)
            out << p.x[static_cast<std::size_t>(v)] << ' ' << p.y[static_cast<std::size_t>(v)] << '\n';
        std::cout << "  wrote " << a.get("-o", "") << "\n";
    }
    return 0;
}

int cmdConvert(const Args& a) {
    if (a.positional.size() < 2) usage("convert: need <netlist> <out.hgr|out.netD>");
    const Hypergraph h = loadNetlist(a.positional[0]);
    const std::filesystem::path outPath(a.positional[1]);
    const std::string ext = outPath.extension().string();
    setPhase("writing", a.positional[1]);
    if (ext == ".hgr") {
        writeHgrFile(h, a.positional[1]);
    } else if (ext == ".net" || ext == ".netD" || ext == ".netd") {
        writeNetDFile(h, a.positional[1]);
        std::filesystem::path are = outPath;
        are.replace_extension(".are");
        writeAreFile(h, are.string());
    } else {
        throw robust::Error(robust::StatusCode::kUsage,
                            "unrecognized output extension '" + ext + "' (want .hgr/.netD)");
    }
    std::cout << "wrote " << a.positional[1] << " (" << h.numModules() << " modules, "
              << h.numNets() << " nets)\n";
    return 0;
}

int cmdGen(const Args& a) {
    if (a.positional.empty()) usage("gen: need a benchmark name or 'rent'");
    if (!a.flags.count("-o")) usage("gen: missing -o OUT.hgr");
    setPhase("generating", a.positional[0]);
    Hypergraph h;
    if (a.positional[0] == "rent") {
        RentConfig cfg;
        cfg.numModules = static_cast<ModuleId>(a.getI("--modules", 2000));
        cfg.numNets = static_cast<NetId>(a.getI("--nets", cfg.numModules));
        cfg.pinsPerNet = a.getD("--pins-per-net", 3.0);
        cfg.seed = static_cast<std::uint64_t>(a.getI("--seed", 1));
        h = generateRentCircuit(cfg);
    } else {
        h = benchmarkInstance(a.positional[0], a.getD("--scale", 1.0));
    }
    writeHgrFile(h, a.get("-o", ""));
    std::cout << "wrote " << a.get("-o", "") << " (" << h.numModules() << " modules, "
              << h.numNets() << " nets, " << h.numPins() << " pins)\n";
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) usage();
    const std::string cmd = argv[1];
    const Args args = parseArgs(argc, argv, 2);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    try {
        // Opt-in deterministic fault injection (testing aid; DESIGN.md §8).
        robust::FaultInjector::instance().armFromEnv();
        if (cmd == "stats") return cmdStats(args);
        if (cmd == "partition") return cmdPartition(args);
        if (cmd == "spectral") return cmdSpectral(args);
        if (cmd == "place") return cmdPlace(args);
        if (cmd == "convert") return cmdConvert(args);
        if (cmd == "gen") return cmdGen(args);
        usage("unknown command '" + cmd + "'");
    } catch (const robust::Error& e) {
        std::cerr << "mlpart " << cmd << ": while " << g_phase
                  << (g_input.empty() ? "" : " on '" + g_input + "'") << ": "
                  << robust::statusCodeName(e.code()) << ": " << e.what() << "\n";
        return robust::exitCodeFor(e.code());
    } catch (const std::bad_alloc&) {
        std::cerr << "mlpart " << cmd << ": while " << g_phase
                  << (g_input.empty() ? "" : " on '" + g_input + "'") << ": out of memory\n";
        return robust::exitCodeFor(robust::StatusCode::kResourceExhausted);
    } catch (const std::exception& e) {
        std::cerr << "mlpart " << cmd << ": while " << g_phase
                  << (g_input.empty() ? "" : " on '" + g_input + "'") << ": " << e.what() << "\n";
        return robust::exitCodeFor(robust::StatusCode::kInternal);
    }
}
