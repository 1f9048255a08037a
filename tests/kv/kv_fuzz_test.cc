/**
 * @file
 * Seeded concurrency fuzzing of the lock-free kv read path
 * (oracle/kv_fuzzer.hh). Random get/put/fetch/erase/pin/unpin
 * schedules run across 2-4 threads; a failure ddmin-shrinks to a
 * minimal schedule whose literal is printed for committing to
 * tests/data/regressions/ as a <name>.sched file, which this suite
 * replays on every run (serially as the witness, then concurrently).
 *
 * Knobs: ADCACHE_FUZZ_ITERS scales the number of seeds,
 * ADCACHE_FUZZ_SEED rebases them (same knobs as the differential
 * trace fuzzer).
 */

#include "oracle/kv_fuzzer.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "oracle/trace_fuzzer.hh"

#ifndef ADCACHE_REGRESSION_DIR
#error "build must define ADCACHE_REGRESSION_DIR"
#endif

namespace adcache
{
namespace
{

namespace fs = std::filesystem;

/** Small, eviction-heavy config so short schedules reach every
 *  path: 2 shards, lock-free reads. */
kv::KvConfig
fuzzConfig()
{
    kv::KvConfig c;
    c.capacity = 256;
    c.numShards = 2;
    c.numBuckets = 64;
    c.bucketWays = 4;
    c.leaderEvery = 4;
    c.shadowTagBits = 12;
    c.selector = kv::SelectorMode::Adaptive;
    c.keyHash = kv::KeyHashKind::Mix;
    return c;
}

/** Shrink with a flake-tolerant predicate, then FAIL with the
 *  replayable literal and the serial witness verdict. */
void
reportFailure(const KvFuzzSchedule &failing, unsigned threads,
              const std::string &first_error)
{
    const auto still_fails = [&](const KvFuzzSchedule &cand) {
        // Interleaving-dependent failures are flaky by nature:
        // keep a candidate only if some rerun still fails.
        for (int rep = 0; rep < 8; ++rep) {
            if (!KvConcurrencyFuzzer::runOnce(cand, fuzzConfig(),
                                              threads)
                     .empty())
                return true;
        }
        return false;
    };
    KvFuzzSchedule shrunk = failing;
    if (still_fails(shrunk))
        shrunk = KvConcurrencyFuzzer::shrink(still_fails, shrunk);
    const std::string serial =
        KvConcurrencyFuzzer::runSerial(shrunk, fuzzConfig());
    ADD_FAILURE()
        << "concurrent schedule failed: " << first_error
        << "\nserial witness: "
        << (serial.empty() ? "passes (concurrency-only failure)"
                           : serial)
        << "\nshrunk to " << shrunk.size() << "/" << failing.size()
        << " ops; commit to tests/data/regressions/ as .sched:\n"
        << KvConcurrencyFuzzer::toLiteral(shrunk);
}

TEST(KvFuzzTest, RandomSchedulesRunCleanConcurrently)
{
    const std::size_t iters = fuzzIters(6);
    const std::uint64_t base = fuzzSeed(0x5eed);
    for (std::size_t i = 0; i < iters; ++i) {
        const std::uint64_t seed = base + i;
        const unsigned threads = 2 + unsigned(seed % 3);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     std::to_string(threads) + " threads");
        KvConcurrencyFuzzer fuzzer(seed, threads, 1024);
        const KvFuzzSchedule sched = fuzzer.generate(3000);
        const std::string err = KvConcurrencyFuzzer::runOnce(
            sched, fuzzConfig(), threads);
        if (!err.empty()) {
            reportFailure(sched, threads, err);
            return;
        }
    }
}

TEST(KvFuzzTest, SerialWitnessRunsClean)
{
    // The serial replay is the shrunken-failure witness format; it
    // must be clean on generated schedules or every shrink would
    // "reproduce" spuriously.
    const std::uint64_t base = fuzzSeed(0x5eed);
    for (std::size_t i = 0; i < 3; ++i) {
        KvConcurrencyFuzzer fuzzer(base + 100 + i, 3, 1024);
        const KvFuzzSchedule sched = fuzzer.generate(2000);
        EXPECT_EQ(KvConcurrencyFuzzer::runSerial(sched,
                                                 fuzzConfig()),
                  "")
            << "seed " << base + 100 + i;
    }
}

TEST(KvFuzzTest, GeneratorIsDeterministicPerSeed)
{
    KvConcurrencyFuzzer a(42, 3, 512), b(42, 3, 512);
    const KvFuzzSchedule sa = a.generate(500);
    const KvFuzzSchedule sb = b.generate(500);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].thread, sb[i].thread) << "op " << i;
        EXPECT_EQ(int(sa[i].kind), int(sb[i].kind)) << "op " << i;
        EXPECT_EQ(sa[i].key, sb[i].key) << "op " << i;
    }
    // Schedules cover more than one thread and op kind.
    bool multi_thread = false, multi_kind = false;
    for (const KvFuzzOp &op : sa) {
        multi_thread |= op.thread != sa[0].thread;
        multi_kind |= op.kind != sa[0].kind;
    }
    EXPECT_TRUE(multi_thread);
    EXPECT_TRUE(multi_kind);
}

TEST(KvFuzzTest, ShrinkIsolatesEssentialOps)
{
    // ddmin self-test with a deterministic predicate: only two ops
    // of a 64-op schedule matter; the shrink must isolate exactly
    // those two.
    KvConcurrencyFuzzer fuzzer(9, 2, 64);
    KvFuzzSchedule sched = fuzzer.generate(62);
    sched.insert(sched.begin() + 20,
                 {0, KvFuzzOpKind::Put, 7777});
    sched.insert(sched.begin() + 40,
                 {1, KvFuzzOpKind::Erase, 8888});

    const auto needs_both = [](const KvFuzzSchedule &cand) {
        bool put = false, erase = false;
        for (const KvFuzzOp &op : cand) {
            put |= op.kind == KvFuzzOpKind::Put && op.key == 7777;
            erase |=
                op.kind == KvFuzzOpKind::Erase && op.key == 8888;
        }
        return put && erase;
    };
    const KvFuzzSchedule shrunk =
        KvConcurrencyFuzzer::shrink(needs_both, sched);
    ASSERT_EQ(shrunk.size(), 2u);
    EXPECT_EQ(shrunk[0].key, 7777u);
    EXPECT_EQ(shrunk[1].key, 8888u);
}

TEST(KvFuzzTest, LiteralNamesEveryOp)
{
    const KvFuzzSchedule sched = {
        {0, KvFuzzOpKind::Get, 1},   {1, KvFuzzOpKind::Put, 2},
        {2, KvFuzzOpKind::Fetch, 3}, {0, KvFuzzOpKind::Erase, 4},
        {1, KvFuzzOpKind::Pin, 5},   {2, KvFuzzOpKind::Unpin, 6},
    };
    const std::string lit = KvConcurrencyFuzzer::toLiteral(sched);
    for (const char *kind :
         {"Get", "Put", "Fetch", "Erase", "Pin", "Unpin"})
        EXPECT_NE(lit.find(std::string("KvFuzzOpKind::") + kind),
                  std::string::npos)
            << kind;
    EXPECT_NE(lit.find("// 6 ops"), std::string::npos);
}

/**
 * Committed shrunken failures replay on every run: one
 * "<thread> <op> <key>" op per line, '#' comments. The serial
 * witness must stay clean AND the concurrent rerun must stay clean
 * (a regression flips one of them).
 */
KvFuzzSchedule
parseSchedule(std::istream &in, unsigned *threads_out)
{
    KvFuzzSchedule sched;
    unsigned max_thread = 0;
    std::string line;
    while (std::getline(in, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        unsigned thread;
        std::string op;
        kv::KvKey key;
        if (!(fields >> thread >> op >> key))
            continue;
        // Op names are kvFuzzOpName's; kinds are only ever appended,
        // so committed files keep parsing.
        KvFuzzOpKind kind = KvFuzzOpKind::Get;
        bool known = false;
        for (unsigned k = 0; k <= unsigned(KvFuzzOpKind::PutPinned);
             ++k) {
            if (op == kvFuzzOpName(KvFuzzOpKind(k))) {
                kind = KvFuzzOpKind(k);
                known = true;
            }
        }
        if (!known)
            ADD_FAILURE() << "unknown op \"" << op
                          << "\" (treated as get)";
        sched.push_back({std::uint8_t(thread), kind, key});
        max_thread = std::max(max_thread, thread);
    }
    *threads_out = max_thread + 1;
    return sched;
}

TEST(KvFuzzTest, CommittedSchedulesReplayClean)
{
    std::vector<fs::path> files;
    for (const auto &entry :
         fs::directory_iterator(ADCACHE_REGRESSION_DIR)) {
        if (entry.path().extension() == ".sched")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const fs::path &path : files) {
        SCOPED_TRACE(path.filename().string());
        std::ifstream in(path);
        ASSERT_TRUE(in.good());
        unsigned threads = 1;
        const KvFuzzSchedule sched = parseSchedule(in, &threads);
        ASSERT_FALSE(sched.empty());
        EXPECT_EQ(KvConcurrencyFuzzer::runSerial(sched,
                                                 fuzzConfig()),
                  "");
        for (int rep = 0; rep < 4; ++rep)
            EXPECT_EQ(KvConcurrencyFuzzer::runOnce(
                          sched, fuzzConfig(), threads),
                      "")
                << "rep " << rep;
    }
}

} // namespace
} // namespace adcache
