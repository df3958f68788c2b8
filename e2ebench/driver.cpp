// e2ebench_driver — the in-process half of the end-to-end benchmark
// (README.md in this directory). run.py builds it next to mlpart_serve and
// calls one subcommand per step; every subcommand writes one JSON object
// to --out and exits non-zero only on a usage or I/O error. Output
// mismatches are reported in the JSON and judged by run.py.
//
//   e2ebench_driver env --out F
//       nproc, compiler, build type, SIMD tier.
//   e2ebench_driver gen --dir D --scale X NAME...
//       writes D/NAME.hgr for each Table I synthetic NAME.
//   e2ebench_driver ml --hgr F --seed S --seconds T --vcycle-threads V
//                      --starts K --reads R --out F [--trace 1]
//       R timed readHgrFile calls, then MultilevelPartitioner::run starts
//       0, 1, ... with the per-run seed stream of parallelMultiStart: at
//       least K starts and as many more as fit in T seconds. With --trace
//       exactly K starts, each run untraced and traced (order alternating),
//       plus a coarsening-only chain per start, with their spans in the
//       output.
//   e2ebench_driver ref --requests F --threads N --out F [--trace 1]
//       in-process reference runs of serve requests (one per line:
//       "id path k engine runs seed"), mirroring the serve worker's job
//       body, so each served cut and part_crc can be checked.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "coarsen/coarsen_kernel.h"
#include "coarsen/matcher.h"
#include "core/multilevel.h"
#include "core/parallel_multistart.h"
#include "gen/benchmark_suite.h"
#include "hypergraph/io.h"
#include "hypergraph/partition.h"
#include "kway/kway_refiner.h"
#include "perf/simd.h"
#include "portfolio/portfolio.h"
#include "refine/fm_config.h"
#include "refine/multistart.h"
#include "refine_profile_adapter.h"
#include "robust/checkpoint.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

using namespace mlpart;
using e2ebench::RefineTotals;

namespace {

using Clock = std::chrono::steady_clock;

/// Microseconds on the steady clock (CLOCK_MONOTONIC on Linux), the same
/// time base as Python's time.monotonic_ns(), so run.py can merge spans.
std::int64_t nowUs() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double secondsSince(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- arguments --------------------------------------------------------

struct Args {
    std::map<std::string, std::string> opts;
    std::vector<std::string> positional;

    [[nodiscard]] std::string str(const std::string& k, const std::string& def = {}) const {
        const auto it = opts.find(k);
        if (it != opts.end()) return it->second;
        if (def.empty()) throw std::invalid_argument("missing --" + k);
        return def;
    }
    [[nodiscard]] bool has(const std::string& k) const { return opts.count(k) != 0; }
    [[nodiscard]] double num(const std::string& k, const std::string& def = {}) const {
        return std::stod(str(k, def));
    }
};

Args parseArgs(int argc, char** argv, int first) {
    Args a;
    for (int i = first; i < argc; ++i) {
        const std::string s = argv[i];
        if (s.rfind("--", 0) == 0) {
            if (i + 1 >= argc) throw std::invalid_argument("missing value for " + s);
            a.opts[s.substr(2)] = argv[++i];
        } else {
            a.positional.push_back(s);
        }
    }
    return a;
}

// ---- spans ------------------------------------------------------------

/// In-memory span store, handed to run.py as rows in the --out JSON. Each
/// span records its parent's id (0 = root) and the request it belongs to;
/// run.py writes the Chrome trace and derives self times and the
/// unattributed share from them.
class Trace {
public:
    int add(const std::string& name, std::int64_t startUs, std::int64_t endUs, int parent,
            const std::string& req, int tid = 0) {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, startUs, std::max(endUs, startUs), nextId_, parent, req, tid});
        return nextId_++;
    }

    /// Sets the end of a span added before its children were known.
    void finish(int id, std::int64_t endUs) {
        std::lock_guard<std::mutex> lock(mu_);
        Span& s = spans_[static_cast<std::size_t>(id - 1)];
        s.endUs = std::max(endUs, s.startUs);
    }

    /// Lays `parts` (name, seconds) end to end from `startUs` as children
    /// of `parent`. Used for phase totals that the program reports as sums
    /// rather than intervals: their placement is nominal, their length real.
    void addSequence(const std::vector<std::pair<std::string, double>>& parts,
                     std::int64_t startUs, int parent, const std::string& req, int tid = 0) {
        std::int64_t t = startUs;
        for (const auto& [name, sec] : parts) {
            const auto len = static_cast<std::int64_t>(sec * 1e6);
            add(name, t, t + len, parent, req, tid);
            t += len;
        }
    }

    /// The spans as a JSON array of [name, start_us, end_us, id, parent,
    /// req, tid] rows, for the --out object; run.py writes the trace file.
    [[nodiscard]] std::string rows() const {
        std::ostringstream o;
        o << "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            o << (i ? ",\n" : "\n") << "[\"" << s.name << "\"," << s.startUs << "," << s.endUs
              << "," << s.id << "," << s.parent << ",\"" << s.req << "\"," << s.tid << "]";
        }
        o << "]";
        return o.str();
    }

private:
    struct Span {
        std::string name;
        std::int64_t startUs, endUs;
        int id, parent;
        std::string req;
        int tid;
    };
    std::mutex mu_;
    std::vector<Span> spans_;
    int nextId_ = 1;
};

// ---- helpers ----------------------------------------------------------

/// parallelMultiStart's first-attempt stream for run `run` (and therefore
/// mlpart_bench's and the CLI's): seed * golden-ratio constant + run.
std::uint64_t startSeed(std::uint64_t seed, int run) {
    return seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(run);
}

/// CPU-seconds the hypervisor has withheld from this machine since boot
/// (the steal column of /proc/stat, summed over CPUs).
double stealSeconds() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    std::int64_t v[8] = {};
    in >> cpu;
    for (std::int64_t& x : v) in >> x;
    return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::int64_t peakRssKb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
    return -1;
}

/// Independent re-check of an ML result: every module in a block, block
/// areas within the refinement bound MultilevelPartitioner balances to, and the cut
/// recomputed from the nets equal to the reported one. Returns "" when the
/// result holds.
std::string checkResult(const Hypergraph& h, const MLResult& r, PartId k, double tolerance) {
    const auto assign = r.partition.assignment();
    if (assign.size() != static_cast<std::size_t>(h.numModules())) return "assignment size";
    std::vector<Area> area(static_cast<std::size_t>(k), 0);
    for (ModuleId v = 0; v < h.numModules(); ++v) {
        const PartId p = assign[static_cast<std::size_t>(v)];
        if (p < 0 || p >= k) return "module " + std::to_string(v) + " in no block";
        area[static_cast<std::size_t>(p)] += h.area(v);
    }
    const BalanceConstraint bc = BalanceConstraint::forRefinement(h, k, tolerance);
    for (PartId p = 0; p < k; ++p)
        if (area[static_cast<std::size_t>(p)] < bc.lower(p) ||
            area[static_cast<std::size_t>(p)] > bc.upper(p))
            return "block " + std::to_string(p) + " area " +
                   std::to_string(area[static_cast<std::size_t>(p)]) + " out of balance";
    Weight cut = 0;
    for (NetId e = 0; e < h.numNets(); ++e) {
        const auto pins = h.pins(e);
        const PartId first = assign[static_cast<std::size_t>(pins[0])];
        for (const ModuleId v : pins)
            if (assign[static_cast<std::size_t>(v)] != first) {
                cut += h.netWeight(e);
                break;
            }
    }
    if (cut != r.cut)
        return "recomputed cut " + std::to_string(cut) + " != reported " + std::to_string(r.cut);
    return {};
}

std::string jsonEscape(const std::string& s) {
    std::string o;
    for (const char c : s) {
        if (c == '"' || c == '\\') o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) o += c;
    }
    return o;
}

void writeFile(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
    if (!out) throw std::runtime_error("cannot write " + path);
}

// ---- env / gen --------------------------------------------------------

int cmdEnv(const Args& a) {
    std::ostringstream o;
    o << "{\"nproc\":" << std::thread::hardware_concurrency() << ",\"compiler\":\""
      << jsonEscape(__VERSION__) << "\",\"build_type\":\"" << E2EBENCH_BUILD_TYPE
      << "\",\"simd\":\"" << perf::toString(perf::activeTier()) << "\"}\n";
    writeFile(a.str("out"), o.str());
    return 0;
}

int cmdGen(const Args& a) {
    const std::string dir = a.str("dir");
    const double scale = a.num("scale", "1");
    for (const std::string& name : a.positional)
        writeHgrFile(benchmarkInstance(name, scale), dir + "/" + name + ".hgr");
    return 0;
}

// ---- ml ---------------------------------------------------------------

/// What the coarsening-only chain measured for one start.
struct ChainRec {
    int levels = 0;
    double matchSec = 0.0;
    double induceSec = 0.0;
};

/// Re-runs the coarsening phase of MultilevelPartitioner::run on its own,
/// call by call, with the start's config and rng stream: runMatcher (or
/// matchParallel in parallel mode) then induceInto per level, each timed.
/// Coarsening is the first consumer of the rng in a V-cycle, so the chain
/// must reach the same number of levels as the run it mirrors.
ChainRec coarsenChain(const Hypergraph& h0, const MLConfig& cfg, std::uint64_t seed,
                      MLWorkspace& ws, Trace& trace, const std::string& req) {
    const std::int64_t t0 = nowUs();
    const int chainId = trace.add("coarsen.chain", t0, t0, 0, req);
    std::mt19937_64 rng(seed);
    robust::ThreadPool* pool = cfg.vcycleThreads > 0 ? &ws.ensurePool(cfg.vcycleThreads) : nullptr;
    std::vector<Hypergraph> coarse;
    const Hypergraph* cur = &h0;
    int netLimit = cfg.matchNetSizeLimit;
    ChainRec rec;
    while (cur->numModules() > cfg.coarseningThreshold &&
           static_cast<int>(coarse.size()) < cfg.maxLevels) {
        MatchConfig mc;
        mc.ratio = cfg.matchingRatio;
        mc.maxNetSize = netLimit;
        const std::int64_t m0 = nowUs();
        Clustering c = pool != nullptr
                           ? matchParallel(cfg.coarsener, *cur, mc, rng(), *pool, ws.match)
                           : runMatcher(cfg.coarsener, *cur, mc, rng);
        const std::int64_t m1 = nowUs();
        trace.add("coarsen.match", m0, m1, chainId, req);
        rec.matchSec += static_cast<double>(m1 - m0) * 1e-6;
        if (c.numClusters >= cur->numModules()) {
            if (cfg.adaptiveNetLimit && netLimit < cur->numModules()) {
                netLimit *= 4;
                continue;
            }
            break;
        }
        coarse.push_back(induceInto(*cur, c, ws.coarsen, pool));
        const std::int64_t i1 = nowUs();
        trace.add("coarsen.induce", m1, i1, chainId, req);
        rec.induceSec += static_cast<double>(i1 - m1) * 1e-6;
        cur = &coarse.back();
    }
    rec.levels = static_cast<int>(coarse.size());
    trace.finish(chainId, nowUs());
    return rec;
}

struct StartRec {
    int run = 0;
    double seconds = 0.0;
    double stealSec = 0.0; ///< CPU time withheld by the hypervisor meanwhile
    MLResult result;
    std::string mismatch;
};

int cmdMl(const Args& a) {
    const std::string path = a.str("hgr");
    const std::uint64_t seed = std::stoull(a.str("seed"));
    const double seconds = a.num("seconds");
    const int vt = static_cast<int>(a.num("vcycle-threads", "0"));
    const int minStarts = static_cast<int>(a.num("starts"));
    const int reads = static_cast<int>(a.num("reads", "5"));
    const bool traced = a.has("trace");
    Trace trace;

    // Set-up: the generated input read back through the public reader.
    std::vector<double> readSec;
    Hypergraph h;
    for (int i = 0; i < reads; ++i) {
        const std::int64_t t0 = nowUs();
        h = readHgrFile(path);
        const std::int64_t t1 = nowUs();
        readSec.push_back(static_cast<double>(t1 - t0) * 1e-6);
        if (traced) trace.add("hypergraph.load", t0, t1, 0, "setup");
    }

    // The `mlpart partition` defaults: k=2, CLIP, R=0.5, r=0.1, T=35.
    MLConfig cfg;
    cfg.matchingRatio = 0.5;
    cfg.tolerance = 0.1;
    cfg.vcycleThreads = vt;
    FMConfig fm;
    fm.tolerance = cfg.tolerance;
    fm.variant = EngineVariant::kCLIP;
    const MultilevelPartitioner ml(cfg, makeFMFactory(fm));
    MLConfig tcfg = cfg;
    e2ebench::enableRefineProfile(tcfg);
    const MultilevelPartitioner tml(tcfg, makeFMFactory(fm));

    MLWorkspace ws; // one workspace reused across every start
    auto start = [&](const MultilevelPartitioner& p, int run) {
        StartRec s;
        s.run = run;
        std::mt19937_64 rng(startSeed(seed, run));
        const double steal0 = stealSeconds();
        const auto t0 = Clock::now();
        s.result = p.run(h, rng, robust::Deadline{}, ws);
        s.seconds = secondsSince(t0);
        s.stealSec = stealSeconds() - steal0;
        s.mismatch = checkResult(h, s.result, cfg.k, cfg.tolerance);
        // Keep only the numbers: holding every start's partition would tie
        // peak RSS to how many starts fit in the run.
        s.result.partition = Partition();
        return s;
    };

    std::vector<StartRec> plain, prof;
    std::vector<ChainRec> chains;
    std::vector<std::pair<int, std::string>> mismatches; // (start, what)
    if (!traced) {
        const auto t0 = Clock::now();
        for (int run = 0; run < minStarts || secondsSince(t0) < seconds; ++run)
            plain.push_back(start(ml, run));
    } else {
        for (int run = 0; run < minStarts; ++run) {
            const std::string req = "start" + std::to_string(run);
            // Alternate which variant goes first so drift does not bias
            // the overhead estimate.
            if (run % 2 == 0) plain.push_back(start(ml, run));
            const std::int64_t t0 = nowUs();
            prof.push_back(start(tml, run));
            const std::int64_t t1 = nowUs();
            if (run % 2 == 1) plain.push_back(start(ml, run));

            const MLResult& r = prof.back().result;
            const RefineTotals rt = e2ebench::refineTotals(r);
            const int runId = trace.add("ml.run", t0, t1, 0, req);
            trace.addSequence({{"coarsen", r.timings.coarsenSec},
                               {"core.initial", r.timings.initialSec}},
                              t0, runId, req);
            const std::int64_t refStart =
                t0 + static_cast<std::int64_t>((r.timings.coarsenSec + r.timings.initialSec) * 1e6);
            const int refId = trace.add(
                "refine", refStart,
                refStart + static_cast<std::int64_t>(r.timings.refineSec * 1e6), runId, req);
            trace.addSequence({{"refine.build", rt.buildSec},
                               {"refine.select", rt.selectSec},
                               {"refine.apply", rt.applySec},
                               {"refine.undo", rt.undoSec}},
                              refStart, refId, req);

            chains.push_back(coarsenChain(h, cfg, startSeed(seed, run), ws, trace, req));
            if (plain.back().result.cut != r.cut)
                mismatches.emplace_back(run, "traced cut " + std::to_string(r.cut) +
                                                 " != untraced " +
                                                 std::to_string(plain.back().result.cut));
            if (chains.back().levels != r.levels)
                mismatches.emplace_back(run, "coarsen chain reached " +
                                                 std::to_string(chains.back().levels) +
                                                 " levels, run " + std::to_string(r.levels));
        }
    }
    for (const auto* v : {&plain, &prof})
        for (const StartRec& s : *v)
            if (!s.mismatch.empty()) mismatches.emplace_back(s.run, s.mismatch);

    std::ostringstream o;
    o.precision(9);
    o << "{\"read_seconds\":[";
    for (std::size_t i = 0; i < readSec.size(); ++i) o << (i ? "," : "") << readSec[i];
    o << "],\"input_bytes\":" << std::filesystem::file_size(path) << ",\"starts\":[";
    for (std::size_t i = 0; i < plain.size(); ++i)
        o << (i ? "," : "") << "{\"run\":" << plain[i].run << ",\"seconds\":" << plain[i].seconds
          << ",\"steal_s\":" << plain[i].stealSec << ",\"cut\":" << plain[i].result.cut << ",\"levels\":" << plain[i].result.levels << "}";
    o << "],\"traced_starts\":[";
    for (std::size_t i = 0; i < prof.size(); ++i) {
        const MLResult& r = prof[i].result;
        const RefineTotals rt = e2ebench::refineTotals(r);
        o << (i ? "," : "") << "{\"run\":" << prof[i].run << ",\"seconds\":" << prof[i].seconds
          << ",\"cut\":" << r.cut << ",\"levels\":" << r.levels
          << ",\"coarsen_s\":" << r.timings.coarsenSec << ",\"initial_s\":" << r.timings.initialSec
          << ",\"refine_s\":" << r.timings.refineSec << ",\"build_s\":" << rt.buildSec
          << ",\"select_s\":" << rt.selectSec << ",\"apply_s\":" << rt.applySec
          << ",\"undo_s\":" << rt.undoSec << ",\"passes\":" << rt.passes
          << ",\"moves\":" << rt.moves << ",\"rollbacks\":" << rt.rollbacks
          << ",\"chain_levels\":" << chains[i].levels << ",\"chain_match_s\":" << chains[i].matchSec
          << ",\"chain_induce_s\":" << chains[i].induceSec << "}";
    }
    o << "],\"mismatches\":[";
    for (std::size_t i = 0; i < mismatches.size(); ++i)
        o << (i ? "," : "") << "{\"run\":" << mismatches[i].first << ",\"what\":\""
          << jsonEscape(mismatches[i].second) << "\"}";
    o << "],\"peak_rss_kb\":" << peakRssKb() << ",\"spans\":" << trace.rows() << "}\n";
    writeFile(a.str("out"), o.str());
    return 0;
}

// ---- ref --------------------------------------------------------------

struct RefRequest {
    std::string id, path, engine;
    int k = 2, runs = 4;
    std::uint64_t seed = 1;
};

struct RefResult {
    std::int64_t cut = -1;
    std::uint32_t crc = 0;
    double loadSec = 0.0, runSec = 0.0, laneSecSum = 0.0;
    int lanesRun = 0, lanesVerified = 0;
    bool fallback = false;
    std::string error;
};

/// The serve worker's job body (serve/worker.cpp executeJob) for the
/// request shapes the benchmark sends: CLIP multi-start for k = 2, Sanchis
/// k-way CLIP for k > 2, the whole portfolio for engine "auto". No
/// deadline is set, so every class is deterministic and is checked by
/// exact cut and part_crc.
RefResult reference(const RefRequest& q, Trace* trace, int tid) {
    RefResult out;
    const std::int64_t t0 = nowUs();
    const Hypergraph h = readHgrFile(q.path);
    const std::int64_t t1 = nowUs();
    out.loadSec = static_cast<double>(t1 - t0) * 1e-6;
    Partition best;
    std::string layer;
    if (q.engine == "auto") {
        layer = "portfolio.run";
        portfolio::PortfolioConfig pc;
        pc.k = static_cast<PartId>(q.k);
        pc.tolerance = 0.1;
        pc.matchingRatio = 0.5;
        pc.runs = q.runs;
        pc.threads = 1;
        pc.seed = q.seed;
        const portfolio::PortfolioResult r = portfolio::runPortfolio(h, pc);
        out.cut = r.bestCut;
        out.fallback = r.report.fallbackUsed;
        for (const portfolio::LaneRecord& lane : r.report.lanes) {
            if (lane.outcome == portfolio::LaneOutcome::kSkipped) continue;
            ++out.lanesRun;
            out.lanesVerified += lane.verified ? 1 : 0;
            out.laneSecSum += lane.seconds;
        }
        best = r.best;
    } else {
        MLConfig cfg;
        cfg.k = static_cast<PartId>(q.k);
        cfg.tolerance = 0.1;
        cfg.matchingRatio = 0.5;
        if (q.engine != "clip") throw std::invalid_argument("engine must be clip or auto");
        RefinerFactory factory;
        if (q.k == 2) {
            layer = "core.multistart";
            FMConfig fm;
            fm.tolerance = cfg.tolerance;
            fm.variant = EngineVariant::kCLIP;
            factory = makeFMFactory(fm);
        } else {
            layer = "kway.run";
            cfg.coarseningThreshold = 100;
            KWayConfig kw;
            kw.tolerance = cfg.tolerance;
            kw.clip = true;
            factory = makeKWayFactory(kw);
        }
        const MultilevelPartitioner ml(cfg, factory);
        MultiStartConfig ms;
        ms.runs = q.runs;
        ms.threads = 1;
        ms.seed = q.seed;
        const MultiStartOutcome r = parallelMultiStart(h, ml, ms);
        out.cut = r.bestCut;
        best = r.best;
    }
    const std::int64_t t2 = nowUs();
    out.runSec = static_cast<double>(t2 - t1) * 1e-6;
    const std::vector<std::uint8_t> blob = encodePartitionBinary(best);
    out.crc = robust::crc32(blob.data(), blob.size());
    if (trace != nullptr) {
        const int id = trace->add("ref.request", t0, nowUs(), 0, q.id, tid);
        trace->add("hypergraph.load", t0, t1, id, q.id, tid);
        trace->add(layer, t1, t2, id, q.id, tid);
    }
    return out;
}

int cmdRef(const Args& a) {
    std::vector<RefRequest> reqs;
    {
        std::ifstream in(a.str("requests"));
        if (!in) throw std::runtime_error("cannot read " + a.str("requests"));
        RefRequest q;
        while (in >> q.id >> q.path >> q.k >> q.engine >> q.runs >> q.seed) reqs.push_back(q);
    }
    const int threads = std::max(1, static_cast<int>(a.num("threads", "1")));
    const bool traced = a.has("trace");
    Trace trace;
    std::vector<RefResult> res(reqs.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&](int tid) {
        for (std::size_t i = next.fetch_add(1); i < reqs.size(); i = next.fetch_add(1)) {
            try {
                res[i] = reference(reqs[i], traced ? &trace : nullptr, tid);
            } catch (const std::exception& e) {
                res[i].error = e.what();
            }
        }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t) pool.emplace_back(worker, t);
    worker(0);
    for (std::thread& t : pool) t.join();

    std::ostringstream o;
    o.precision(9);
    o << "{\"results\":[";
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const RefResult& r = res[i];
        o << (i ? ",\n" : "\n") << "{\"id\":\"" << reqs[i].id << "\",\"cut\":" << r.cut
          << ",\"part_crc\":" << r.crc << ",\"load_s\":" << r.loadSec << ",\"run_s\":" << r.runSec
          << ",\"lane_s_sum\":" << r.laneSecSum << ",\"lanes_run\":" << r.lanesRun
          << ",\"lanes_verified\":" << r.lanesVerified
          << ",\"fallback\":" << (r.fallback ? "true" : "false") << ",\"error\":\""
          << jsonEscape(r.error) << "\"}";
    }
    o << "\n],\"spans\":" << trace.rows() << "}\n";
    writeFile(a.str("out"), o.str());
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::cerr << "usage: e2ebench_driver env|gen|ml|ref [options] (see driver.cpp)\n";
        return 2;
    }
    try {
        const std::string cmd = argv[1];
        const Args a = parseArgs(argc, argv, 2);
        if (cmd == "env") return cmdEnv(a);
        if (cmd == "gen") return cmdGen(a);
        if (cmd == "ml") return cmdMl(a);
        if (cmd == "ref") return cmdRef(a);
        std::cerr << "unknown subcommand " << cmd << "\n";
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "e2ebench_driver: " << e.what() << "\n";
        return 1;
    }
}
