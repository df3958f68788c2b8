// Tests for hMETIS .hgr I/O.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "check/verify_hypergraph.h"
#include "gen/benchmark_suite.h"
#include "hgr_oracle.h"
#include "hypergraph/builder.h"
#include "hypergraph/io.h"
#include "test_util.h"

namespace mlpart {
namespace {

TEST(Io, ReadsPlainFormat) {
    std::istringstream in("% comment\n3 4\n1 2\n2 3 4\n1 4\n");
    const Hypergraph h = readHgr(in);
    EXPECT_EQ(h.numModules(), 4);
    EXPECT_EQ(h.numNets(), 3);
    EXPECT_EQ(h.netSize(1), 3);
    EXPECT_EQ(h.netWeight(0), 1);
}

TEST(Io, ReadsNetWeights) {
    std::istringstream in("2 3 1\n5 1 2\n2 2 3\n");
    const Hypergraph h = readHgr(in);
    EXPECT_EQ(h.netWeight(0), 5);
    EXPECT_EQ(h.netWeight(1), 2);
}

TEST(Io, ReadsModuleWeights) {
    std::istringstream in("1 3 10\n1 2 3\n4\n5\n6\n");
    const Hypergraph h = readHgr(in);
    EXPECT_EQ(h.area(0), 4);
    EXPECT_EQ(h.area(2), 6);
    EXPECT_EQ(h.totalArea(), 15);
}

TEST(Io, ReadsBothWeights) {
    std::istringstream in("1 2 11\n3 1 2\n7\n9\n");
    const Hypergraph h = readHgr(in);
    EXPECT_EQ(h.netWeight(0), 3);
    EXPECT_EQ(h.area(1), 9);
}

TEST(Io, RoundTripPreservesStructure) {
    const Hypergraph h = testing::mediumCircuit(150);
    std::ostringstream out;
    writeHgr(h, out);
    std::istringstream in(out.str());
    const Hypergraph back = readHgr(in);
    ASSERT_EQ(back.numModules(), h.numModules());
    ASSERT_EQ(back.numNets(), h.numNets());
    ASSERT_EQ(back.numPins(), h.numPins());
    for (NetId e = 0; e < h.numNets(); ++e) {
        const auto a = h.pins(e);
        const auto b = back.pins(e);
        ASSERT_EQ(a.size(), b.size()) << "net " << e;
        for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    }
}

TEST(Io, RoundTripPreservesWeights) {
    HypergraphBuilder b(3);
    b.setArea(0, 2);
    b.setArea(1, 3);
    b.setArea(2, 4);
    b.addNet({0, 1}, 7);
    b.addNet({1, 2});
    const Hypergraph h = std::move(b).build();
    std::ostringstream out;
    writeHgr(h, out);
    std::istringstream in(out.str());
    const Hypergraph back = readHgr(in);
    EXPECT_EQ(back.netWeight(0), 7);
    EXPECT_EQ(back.area(2), 4);
}

TEST(Io, RoundTripGeneratedWeightedCircuit) {
    // A generated circuit with randomized net weights and areas survives a
    // write -> read cycle exactly (fmt=11 path).
    const Hypergraph base = testing::mediumCircuit(130, 31);
    HypergraphBuilder b(base.numModules());
    std::mt19937_64 rng(9);
    for (ModuleId v = 0; v < base.numModules(); ++v)
        b.setArea(v, 1 + static_cast<Area>(rng() % 7));
    std::vector<ModuleId> pins;
    for (NetId e = 0; e < base.numNets(); ++e) {
        pins.assign(base.pins(e).begin(), base.pins(e).end());
        b.addNet(pins, 1 + static_cast<Weight>(rng() % 5));
    }
    const Hypergraph h = std::move(b).build();

    std::ostringstream out;
    writeHgr(h, out);
    std::istringstream in(out.str());
    const Hypergraph back = readHgr(in);
    ASSERT_EQ(back.numModules(), h.numModules());
    ASSERT_EQ(back.numNets(), h.numNets());
    ASSERT_EQ(back.numPins(), h.numPins());
    for (ModuleId v = 0; v < h.numModules(); ++v) EXPECT_EQ(back.area(v), h.area(v));
    for (NetId e = 0; e < h.numNets(); ++e) {
        EXPECT_EQ(back.netWeight(e), h.netWeight(e));
        const auto a = h.pins(e);
        const auto c = back.pins(e);
        ASSERT_EQ(a.size(), c.size()) << "net " << e;
        for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], c[i]);
    }
}

TEST(Io, RejectsMalformedInput) {
    {
        std::istringstream in("");
        EXPECT_THROW(readHgr(in), std::runtime_error);
    }
    {
        std::istringstream in("abc def\n");
        EXPECT_THROW(readHgr(in), std::runtime_error);
    }
    {
        std::istringstream in("2 3\n1 2\n"); // truncated net list
        EXPECT_THROW(readHgr(in), std::runtime_error);
    }
    {
        std::istringstream in("1 3\n1 9\n"); // pin out of range
        EXPECT_THROW(readHgr(in), std::runtime_error);
    }
    {
        std::istringstream in("1 3 99\n1 2\n"); // unsupported fmt
        EXPECT_THROW(readHgr(in), std::runtime_error);
    }
    {
        std::istringstream in("1 3 1\n0 1 2\n"); // net weight < 1
        EXPECT_THROW(readHgr(in), std::runtime_error);
    }
    EXPECT_THROW(readHgrFile("/nonexistent/path.hgr"), std::runtime_error);
}

// ------------------------------------------------- differential ingest
//
// The one-buffer reader and the flat-table merge must build exactly what
// the historical istringstream reader and unordered_map merge built
// (tests/hgr_oracle.h) on every input the historical reader accepted.

std::string toHgrText(const Hypergraph& h) {
    std::ostringstream out;
    writeHgr(h, out);
    return out.str();
}

void expectIdentical(const Hypergraph& got, const Hypergraph& want) {
    const check::CheckResult r = check::verifyIdenticalHypergraphs(got, want);
    EXPECT_TRUE(r.ok()) << r.summary();
}

// `h` with random or unit net weights and random or unit module areas, so
// writeHgr emits the requested fmt code.
Hypergraph reweighted(const Hypergraph& h, bool netWeights, bool moduleWeights,
                      std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    HypergraphBuilder b(h.numModules());
    if (moduleWeights)
        for (ModuleId v = 0; v < h.numModules(); ++v) b.setArea(v, 1 + static_cast<Area>(rng() % 9));
    for (NetId e = 0; e < h.numNets(); ++e)
        b.addNet(h.pins(e), netWeights ? 1 + static_cast<Weight>(rng() % 7) : 1);
    return std::move(b).build();
}

TEST(IngestDifferential, TableISyntheticsInEveryFmtMatchTheOracle) {
    for (const BenchmarkSpec& spec : benchmarkSuite()) {
        const Hypergraph base = benchmarkInstance(spec.name, 0.05);
        for (const int fmt : {0, 1, 10, 11}) {
            SCOPED_TRACE(spec.name + " fmt " + std::to_string(fmt));
            const Hypergraph h = reweighted(base, fmt % 10 == 1, fmt >= 10, 17 + fmt);
            const std::string text = toHgrText(h);
            ASSERT_EQ(readHgrHeader(text).fmt, fmt);
            const Hypergraph got = readHgrText(text, static_cast<std::int64_t>(text.size()));
            expectIdentical(got, testing::referenceReadHgr(text));
            expectIdentical(got, h);
        }
    }
}

// Rewrites .hgr text in the ways the format allows without changing its
// meaning: '%' comment lines (some indented), blank and whitespace-only
// lines, CRLF endings, tabs and runs of blanks between tokens, a leading
// '+' on numbers, trailing blanks, and no final newline.
std::string decorate(const std::string& text, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::string out = "% decorated copy\r\n";
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        switch (rng() % 6) {
        case 0: out += "\r\n"; break;
        case 1: out += " \t % comment between data lines\n"; break;
        case 2: out += "  \t \r\n"; break;
        default: break;
        }
        std::istringstream tokens(line);
        std::string tok;
        bool first = true;
        while (tokens >> tok) {
            if (!first) out += (rng() % 3 == 0) ? "\t" : (rng() % 2 ? " " : "  \t ");
            if (rng() % 4 == 0) out += '+';
            out += tok;
            first = false;
        }
        if (rng() % 3 == 0) out += " \t";
        out += (rng() % 2) ? "\r\n" : "\n";
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
    return out;
}

TEST(IngestDifferential, CommentsBlankLinesCrlfTabsAndPlusSignsMatchTheOracle) {
    const Hypergraph base = testing::mediumCircuit(200, 5);
    for (const int fmt : {0, 1, 10, 11}) {
        SCOPED_TRACE("fmt " + std::to_string(fmt));
        const Hypergraph h = reweighted(base, fmt % 10 == 1, fmt >= 10, 3 + fmt);
        const std::string plain = toHgrText(h);
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const std::string text = decorate(plain, seed);
            ASSERT_NE(text, plain);
            const Hypergraph got = readHgrText(text, static_cast<std::int64_t>(text.size()));
            expectIdentical(got, testing::referenceReadHgr(text));
            expectIdentical(got, h);
        }
    }
}

// Many parallel nets (pins permuted and repeated), degenerate nets and
// nets that collapse to one pin, with merging on and off: the flat table
// must keep the same nets in the same order, merge into the first
// occurrence and sum the same weights as the unordered_map merge.
TEST(IngestDifferential, DuplicateHeavyBuilderMatchesTheOracle) {
    std::mt19937_64 rng(2024);
    for (const ModuleId modules : {2, 9, 60, 400}) {
        testing::RawNetlist raw;
        raw.modules = modules;
        raw.areas.assign(static_cast<std::size_t>(modules), 1);
        std::vector<std::vector<ModuleId>> distinct;
        for (int i = 0; i < 80; ++i) {
            std::vector<ModuleId> net(1 + rng() % 6);
            for (ModuleId& v : net) v = static_cast<ModuleId>(rng() % static_cast<std::uint64_t>(modules));
            distinct.push_back(net);
        }
        for (int i = 0; i < 3000; ++i) {
            std::vector<ModuleId> net = distinct[rng() % distinct.size()];
            std::shuffle(net.begin(), net.end(), rng);
            if (rng() % 4 == 0) net.push_back(net[rng() % net.size()]);
            raw.nets.push_back(net);
            raw.weights.push_back(1 + static_cast<Weight>(rng() % 5));
        }
        for (const bool merge : {true, false}) {
            SCOPED_TRACE(std::to_string(modules) + (merge ? " merged" : " unmerged"));
            HypergraphBuilder b(modules);
            b.setMergeParallelNets(merge);
            for (std::size_t e = 0; e < raw.nets.size(); ++e) b.addNet(raw.nets[e], raw.weights[e]);
            const Hypergraph got = std::move(b).build();
            const Hypergraph want = testing::referenceBuild(raw, merge);
            expectIdentical(got, want);
            if (merge && modules > 2) {
                EXPECT_LT(got.numNets(), 100);
            }
            if (!merge) {
                EXPECT_GT(got.numNets(), 1500);
            }
        }
    }
}

} // namespace
} // namespace mlpart
