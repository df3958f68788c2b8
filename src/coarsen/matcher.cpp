#include "coarsen/matcher.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "robust/thread_pool.h"

namespace mlpart {

namespace {

void checkConfig(const Hypergraph& h, const MatchConfig& cfg) {
    if (cfg.ratio <= 0.0 || cfg.ratio > 1.0)
        throw std::invalid_argument("matching: ratio must be in (0, 1]");
    if (cfg.maxNetSize < 2) throw std::invalid_argument("matching: maxNetSize must be >= 2");
    if (!cfg.excluded.empty() && cfg.excluded.size() != static_cast<std::size_t>(h.numModules()))
        throw std::invalid_argument("matching: excluded mask size mismatch");
    if (!cfg.sameBlockOnly.empty() &&
        cfg.sameBlockOnly.size() != static_cast<std::size_t>(h.numModules()))
        throw std::invalid_argument("matching: sameBlockOnly size mismatch");
}

bool isExcluded(const MatchConfig& cfg, ModuleId v) {
    return !cfg.excluded.empty() && cfg.excluded[static_cast<std::size_t>(v)] != 0;
}

bool blockMismatch(const MatchConfig& cfg, ModuleId v, ModuleId w) {
    return !cfg.sameBlockOnly.empty() &&
           cfg.sameBlockOnly[static_cast<std::size_t>(v)] != cfg.sameBlockOnly[static_cast<std::size_t>(w)];
}

/// The one neighbour scan of every matcher: calls f(w, perNet) for each
/// pin w of each net of v with at most cfg.maxNetSize pins, where w is not
/// v, still unassigned (assigned[w] == kInvalidModule), not excluded, and
/// in v's block. perNet is the net's conn term w(e)/(|e|-1): the paper's
/// 1/(|e|-1), scaled by the net weight so that parallel nets merged during
/// coarsening keep their full pull. A module is visited once per shared net.
template <typename F>
void forEachEligibleNeighbour(const Hypergraph& h, const MatchConfig& cfg, const ModuleId* assigned,
                              ModuleId v, F&& f) {
    for (NetId e : h.nets(v)) {
        if (h.netSize(e) > cfg.maxNetSize) continue;
        const double perNet = static_cast<double>(h.netWeight(e)) /
                              static_cast<double>(h.netSize(e) - 1);
        for (ModuleId w : h.pins(e)) {
            if (w == v) continue;
            if (assigned[static_cast<std::size_t>(w)] != kInvalidModule) continue;
            if (isExcluded(cfg, w)) continue;
            if (blockMismatch(cfg, v, w)) continue;
            f(w, perNet);
        }
    }
}

/// Accumulates conn(v, w) (before area normalization) over v's eligible
/// neighbours into `conn`, then calls rate(w, conn(v, w)) once per
/// neighbour in first-touch order and clears its slot again (the paper's
/// Conn array plus touched set S, so a query costs O(pins), not O(n)).
template <typename Rate>
void rateNeighbours(const Hypergraph& h, const MatchConfig& cfg, const ModuleId* assigned,
                    ModuleId v, std::vector<double>& conn, std::vector<ModuleId>& touched,
                    Rate&& rate) {
    touched.clear();
    forEachEligibleNeighbour(h, cfg, assigned, v, [&](ModuleId w, double perNet) {
        if (conn[static_cast<std::size_t>(w)] == 0.0) touched.push_back(w);
        conn[static_cast<std::size_t>(w)] += perNet;
    });
    for (ModuleId w : touched) {
        rate(w, conn[static_cast<std::size_t>(w)]);
        conn[static_cast<std::size_t>(w)] = 0.0;
    }
}

/// The matcher's score of pair (v, w) given conn(v, w): area-normalized
/// for connectivity matching, raw for heavy-edge. Random matching rates
/// every neighbour equally (its parallel form breaks the tie by hash).
double pairScore(CoarsenerKind kind, const Hypergraph& h, ModuleId v, ModuleId w, double conn) {
    switch (kind) {
        case CoarsenerKind::kConnectivityMatch:
            return conn / static_cast<double>(h.area(v) + h.area(w));
        case CoarsenerKind::kHeavyEdgeMatch: return conn;
        case CoarsenerKind::kRandomMatch: break;
    }
    return 1.0;
}

// Shared matching skeleton: visits modules in random order, asks `pickMate`
// for the partner of each unmatched module, stops at the matching ratio,
// then closes out singletons (paper Fig. 3 steps 8-11).
template <typename PickMate>
Clustering matchSkeleton(const Hypergraph& h, const MatchConfig& cfg, std::mt19937_64& rng,
                         PickMate&& pickMate) {
    checkConfig(h, cfg);
    const ModuleId n = h.numModules();
    Clustering c;
    c.clusterOf.assign(static_cast<std::size_t>(n), kInvalidModule);
    std::vector<ModuleId> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);

    ModuleId k = 0;
    std::int64_t nMatch = 0;
    std::size_t j = 0;
    // Step 2: while matched fraction < R and modules remain.
    while (j < perm.size() &&
           static_cast<double>(nMatch) < cfg.ratio * static_cast<double>(n)) {
        const ModuleId v = perm[j++];
        if (c.clusterOf[static_cast<std::size_t>(v)] != kInvalidModule) continue;
        const ModuleId cluster = k++;
        c.clusterOf[static_cast<std::size_t>(v)] = cluster;
        if (isExcluded(cfg, v)) continue; // pads stay singletons
        const ModuleId w = pickMate(v, c);
        if (w != kInvalidModule) {
            c.clusterOf[static_cast<std::size_t>(w)] = cluster;
            nMatch += 2;
        }
    }
    // Steps 8-10: remaining modules become singletons. This single sweep is
    // exhaustive: perm is a permutation, entries before j were assigned in
    // the main loop, and entries from j on are assigned here — whether the
    // loop above stopped on the ratio bound or ran out of modules.
    for (; j < perm.size(); ++j) {
        const ModuleId v = perm[j];
        if (c.clusterOf[static_cast<std::size_t>(v)] == kInvalidModule)
            c.clusterOf[static_cast<std::size_t>(v)] = k++;
    }
    c.numClusters = k;
    for (ModuleId v = 0; v < n; ++v) {
        assert(c.clusterOf[static_cast<std::size_t>(v)] >= 0 &&
               c.clusterOf[static_cast<std::size_t>(v)] < k && "cluster ids must be dense");
    }
    return c;
}

/// Paper Fig. 3 step 5 for connectivity and heavy-edge matching: each
/// visited module takes the eligible neighbour with the highest score,
/// the first one in scan order on ties.
Clustering bestScoreMatching(CoarsenerKind kind, const Hypergraph& h, const MatchConfig& cfg,
                             std::mt19937_64& rng) {
    std::vector<double> conn(static_cast<std::size_t>(h.numModules()), 0.0);
    std::vector<ModuleId> touched;
    return matchSkeleton(h, cfg, rng, [&](ModuleId v, const Clustering& c) -> ModuleId {
        ModuleId best = kInvalidModule;
        double bestScore = 0.0;
        rateNeighbours(h, cfg, c.clusterOf.data(), v, conn, touched, [&](ModuleId w, double cw) {
            const double score = pairScore(kind, h, v, w, cw);
            if (best == kInvalidModule || score > bestScore) {
                best = w;
                bestScore = score;
            }
        });
        return best;
    });
}

} // namespace

Clustering matchClustering(const Hypergraph& h, const MatchConfig& cfg, std::mt19937_64& rng) {
    return bestScoreMatching(CoarsenerKind::kConnectivityMatch, h, cfg, rng);
}

Clustering heavyEdgeMatching(const Hypergraph& h, const MatchConfig& cfg, std::mt19937_64& rng) {
    return bestScoreMatching(CoarsenerKind::kHeavyEdgeMatch, h, cfg, rng);
}

Clustering randomMatching(const Hypergraph& h, const MatchConfig& cfg, std::mt19937_64& rng) {
    // A neighbour sharing several nets appears once per net, so the draw
    // favours well-connected partners; the list keeps that multiplicity.
    std::vector<ModuleId> candidates;
    return matchSkeleton(h, cfg, rng, [&](ModuleId v, const Clustering& c) -> ModuleId {
        candidates.clear();
        forEachEligibleNeighbour(h, cfg, c.clusterOf.data(), v,
                                 [&](ModuleId w, double) { candidates.push_back(w); });
        if (candidates.empty()) return kInvalidModule;
        return candidates[std::uniform_int_distribution<std::size_t>(0, candidates.size() - 1)(rng)];
    });
}

const char* toString(CoarsenerKind k) {
    switch (k) {
        case CoarsenerKind::kConnectivityMatch: return "match";
        case CoarsenerKind::kRandomMatch: return "random";
        case CoarsenerKind::kHeavyEdgeMatch: return "heavy-edge";
    }
    return "?";
}

Clustering runMatcher(CoarsenerKind kind, const Hypergraph& h, const MatchConfig& cfg,
                      std::mt19937_64& rng) {
    switch (kind) {
        case CoarsenerKind::kConnectivityMatch: return matchClustering(h, cfg, rng);
        case CoarsenerKind::kRandomMatch: return randomMatching(h, cfg, rng);
        case CoarsenerKind::kHeavyEdgeMatch: return heavyEdgeMatching(h, cfg, rng);
    }
    throw std::invalid_argument("runMatcher: unknown coarsener kind");
}

namespace {

/// Modules per proposal chunk. Fixed (input-size-only decomposition): the
/// chunk boundaries must not depend on the thread count.
constexpr std::int64_t kMatchChunk = 1024;

/// Symmetric pair hash (splitmix64 over the unordered pair + seed): the
/// seeded randomness of the parallel matcher. Symmetry matters — mutual
/// proposals only happen when both endpoints rank the pair identically.
std::uint64_t pairHash(std::uint64_t seed, ModuleId a, ModuleId b) {
    if (a > b) std::swap(a, b);
    std::uint64_t x = seed ^ (static_cast<std::uint64_t>(a) << 32) ^
                      (static_cast<std::uint64_t>(b) + 0x9e3779b97f4a7c15ULL);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// One module's proposal: the eligible unmatched neighbour maximizing
/// (score, pairHash, -id). `conn`/`touched` are this worker's scratch.
ModuleId proposeFor(const Hypergraph& h, const MatchConfig& cfg, CoarsenerKind kind,
                    std::uint64_t seed, const ModuleId* mate, ModuleId v,
                    std::vector<double>& conn, std::vector<ModuleId>& touched) {
    ModuleId best = kInvalidModule;
    double bestScore = 0.0;
    std::uint64_t bestHash = 0;
    rateNeighbours(h, cfg, mate, v, conn, touched, [&](ModuleId w, double cw) {
        // For kRandomMatch every score is equal, so the seeded hash picks:
        // uniform-ish among neighbours yet reproducible in any order.
        const double score = pairScore(kind, h, v, w, cw);
        const std::uint64_t hash = pairHash(seed, v, w);
        const bool better = best == kInvalidModule || score > bestScore ||
                            (score == bestScore &&
                             (hash > bestHash || (hash == bestHash && w < best)));
        if (better) {
            best = w;
            bestScore = score;
            bestHash = hash;
        }
    });
    return best;
}

} // namespace

Clustering matchParallel(CoarsenerKind kind, const Hypergraph& h, const MatchConfig& cfg,
                         std::uint64_t seed, robust::ThreadPool& pool, MatchWorkspace& ws) {
    checkConfig(h, cfg);
    const ModuleId n = h.numModules();
    const std::size_t nSz = static_cast<std::size_t>(n);
    const int workers = pool.threads();

    ws.mate.assign(nSz, kInvalidModule);
    ws.proposal.assign(nSz, kInvalidModule);
    if (static_cast<int>(ws.conn.size()) < workers) ws.conn.resize(static_cast<std::size_t>(workers));
    if (static_cast<int>(ws.touched.size()) < workers)
        ws.touched.resize(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
        ws.conn[static_cast<std::size_t>(w)].assign(nSz, 0.0);
        ws.touched[static_cast<std::size_t>(w)].clear();
    }

    ModuleId* mate = ws.mate.data();
    ModuleId* proposal = ws.proposal.data();
    const std::int64_t chunks = robust::ThreadPool::chunkCount(n, kMatchChunk);

    std::int64_t nMatch = 0;
    // Bounded by n/2 matches total, but in practice a handful of rounds
    // reaches the ratio — the bound only guards a degenerate no-progress
    // loop that the matched-nothing break already exits.
    const int maxRounds = 64;
    for (int round = 0; round < maxRounds; ++round) {
        if (static_cast<double>(nMatch) >= cfg.ratio * static_cast<double>(n)) break;
        // Propose: parallel over fixed chunks; reads mate[] frozen at the
        // round boundary, writes proposal[v] only — chunk-slot confined.
        pool.forChunks(chunks, [&](int worker, std::int64_t chunk) {
            std::vector<double>& conn = ws.conn[static_cast<std::size_t>(worker)];
            std::vector<ModuleId>& touched = ws.touched[static_cast<std::size_t>(worker)];
            const ModuleId lo = static_cast<ModuleId>(chunk * kMatchChunk);
            const ModuleId hi = std::min<ModuleId>(n, static_cast<ModuleId>(lo + kMatchChunk));
            for (ModuleId v = lo; v < hi; ++v) {
                if (mate[static_cast<std::size_t>(v)] != kInvalidModule || isExcluded(cfg, v)) {
                    proposal[static_cast<std::size_t>(v)] = kInvalidModule;
                    continue;
                }
                proposal[static_cast<std::size_t>(v)] =
                    proposeFor(h, cfg, kind, seed, mate, v, conn, touched);
            }
        });
        // Commit: mutual proposals match. Only the lower endpoint writes
        // both mate slots, so writes never race and the outcome is the set
        // of locally-maximal eligible pairs — order-independent.
        pool.forChunks(chunks, [&](int, std::int64_t chunk) {
            const ModuleId lo = static_cast<ModuleId>(chunk * kMatchChunk);
            const ModuleId hi = std::min<ModuleId>(n, static_cast<ModuleId>(lo + kMatchChunk));
            for (ModuleId v = lo; v < hi; ++v) {
                const ModuleId w = proposal[static_cast<std::size_t>(v)];
                if (w == kInvalidModule || w <= v) continue;
                if (proposal[static_cast<std::size_t>(w)] != v) continue;
                mate[static_cast<std::size_t>(v)] = w;
                mate[static_cast<std::size_t>(w)] = v;
            }
        });
        std::int64_t matched = 0;
        for (ModuleId v = 0; v < n; ++v)
            if (mate[static_cast<std::size_t>(v)] != kInvalidModule) ++matched;
        if (matched == nMatch) break; // no eligible pair left
        nMatch = matched;
        // The seed advances per round so a pair rejected on a tie one
        // round is not retried with the identical coin forever.
        seed = seed * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15;
    }

    // Deterministic dense cluster ids: ascending sweep, pairs take the
    // lower endpoint's slot, everything unmatched closes out singleton.
    Clustering c;
    c.clusterOf.assign(nSz, kInvalidModule);
    ModuleId k = 0;
    for (ModuleId v = 0; v < n; ++v) {
        if (c.clusterOf[static_cast<std::size_t>(v)] != kInvalidModule) continue;
        const ModuleId cluster = k++;
        c.clusterOf[static_cast<std::size_t>(v)] = cluster;
        const ModuleId w = mate[static_cast<std::size_t>(v)];
        if (w != kInvalidModule) c.clusterOf[static_cast<std::size_t>(w)] = cluster;
    }
    c.numClusters = k;
    return c;
}

} // namespace mlpart
