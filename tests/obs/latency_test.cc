#include "obs/latency.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "obs/trace.hh"
#include "util/stat_registry.hh"

namespace adcache::obs
{
namespace
{

/** Snapshot of @p samples recorded on the calling thread. */
LatencySnapshot
snapshotOf(const std::vector<std::uint64_t> &samples)
{
    LatencyHistogram h;
    for (const std::uint64_t ns : samples)
        h.record(ns);
    return h.snapshot();
}

/** 1, 2, ..., n. */
std::vector<std::uint64_t>
upTo(std::uint64_t n)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t ns = 1; ns <= n; ++ns)
        out.push_back(ns);
    return out;
}

TEST(KvOpName, CanonicalNames)
{
    EXPECT_STREQ(kvOpName(KvOp::Get), "get");
    EXPECT_STREQ(kvOpName(KvOp::Fetch), "fetch");
    EXPECT_STREQ(kvOpName(KvOp::Put), "put");
}

TEST(LogBuckets, SmallValuesGetExactBuckets)
{
    for (std::uint64_t v = 0; v <= kLatencySubBuckets; ++v) {
        EXPECT_EQ(latencyBucket(v), unsigned(v));
        EXPECT_EQ(latencyBucketEdge(unsigned(v)), v);
    }
}

TEST(LogBuckets, OctavesSplitIntoSubBuckets)
{
    // Each octave splits into 8 sub-buckets: an edge is at or above
    // its samples, within 12.5% of them, and maps to its own bucket.
    for (std::uint64_t v = 8; v < std::uint64_t(1) << kLatencyTopBit;
         v = v * 9 / 8 + 1) {
        const unsigned idx = latencyBucket(v);
        const std::uint64_t edge = latencyBucketEdge(idx);
        EXPECT_GE(edge, v) << "v=" << v;
        EXPECT_LE(double(edge), double(v) * 1.125) << "v=" << v;
        EXPECT_EQ(latencyBucket(edge), idx) << "v=" << v;
    }
}

TEST(LogBuckets, MergeSumsCounts)
{
    LatencySnapshot a = snapshotOf({3});
    a.merge(snapshotOf({1'000}));
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.percentileNs(0.5), 3.0);
    EXPECT_EQ(a.percentileNs(1.0), 1'000.0);
}

TEST(LatencyBuckets, EdgeMap)
{
    // Edges rise, are upper-inclusive, and map to their own bucket.
    for (unsigned b = 0; b + 1 < kLatencyBuckets; ++b) {
        const std::uint64_t edge = latencyBucketEdge(b);
        EXPECT_LT(edge, latencyBucketEdge(b + 1)) << "b=" << b;
        EXPECT_EQ(latencyBucket(edge), b) << "b=" << b;
        EXPECT_EQ(latencyBucket(edge + 1), b + 1) << "b=" << b;
    }
    // Every power of two up to the top is an edge, so the Prometheus
    // le subset is exact.
    for (unsigned k = 0; k <= kLatencyTopBit; ++k)
        EXPECT_EQ(latencyBucketEdge(latencyBucket(std::uint64_t(1) << k)),
                  std::uint64_t(1) << k)
            << "k=" << k;
    // Past the top edge, one overflow bucket.
    const unsigned overflow = kLatencyBuckets - 1;
    EXPECT_EQ(latencyBucket((std::uint64_t(1) << kLatencyTopBit) + 1),
              overflow);
    EXPECT_EQ(latencyBucket(std::numeric_limits<std::uint64_t>::max()),
              overflow);
    EXPECT_EQ(latencyBucketEdge(overflow),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(LatencyHistogram, TracksExactExtremaAndMean)
{
    const LatencySnapshot h = snapshotOf({100, 300, 200});
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sumNs(), 600u);
    EXPECT_EQ(h.minNs(), 100u);
    EXPECT_EQ(h.maxNs(), 300u);
    EXPECT_DOUBLE_EQ(h.meanNs(), 200.0);
}

TEST(LatencyHistogram, PercentileWithinLogBucketError)
{
    const LatencySnapshot h = snapshotOf(upTo(1'000));
    // Bucket upper edges overestimate by at most 12.5%.
    const double p50 = h.percentileNs(0.50);
    EXPECT_GE(p50, 500.0);
    EXPECT_LE(p50, 500.0 * 1.125);
    const double p99 = h.percentileNs(0.99);
    EXPECT_GE(p99, 990.0);
    EXPECT_LE(p99, 990.0 * 1.125);
}

TEST(LatencyHistogram, NearestRank)
{
    // The p-quantile is the bucket edge of the ceil(p * n)-th
    // smallest sample, capped at the maximum. Taking rank
    // floor(p * n) + 1 instead would report the second sample of
    // {1000, 3000} as the median, and the outlier of
    // 99 x 1000 + 100000 as p99.
    const LatencySnapshot one = snapshotOf({1'000});
    const LatencySnapshot two = snapshotOf({1'000, 3'000});
    std::vector<std::uint64_t> samples(99, 1'000);
    samples.push_back(100'000);
    const LatencySnapshot hundred = snapshotOf(samples);

    struct Case
    {
        const LatencySnapshot *h;
        double p;
        double want;
    };
    for (const Case &c : {Case{&one, 0.5, 1'000},
                          Case{&one, 0.99, 1'000},
                          Case{&one, 1.0, 1'000},
                          Case{&two, 0.5, 1'024},
                          Case{&two, 0.99, 3'000},
                          Case{&two, 1.0, 3'000},
                          Case{&hundred, 0.5, 1'024},
                          Case{&hundred, 0.99, 1'024},
                          Case{&hundred, 1.0, 100'000}})
        EXPECT_EQ(c.h->percentileNs(c.p), c.want)
            << "n=" << c.h->count() << " p=" << c.p;
    EXPECT_EQ(LatencySnapshot().percentileNs(0.5), 0.0);
}

TEST(LatencyHistogram, P999ExactCountSanity)
{
    // Exact-count check for the tail quantile: with 10'000 samples,
    // p999 must land at or above the 9'990th smallest sample and
    // within one log-bucket (12.5%) of it.
    const LatencySnapshot h = snapshotOf(upTo(10'000));
    const double p999 = h.percentileNs(0.999);
    EXPECT_GE(p999, 9'990.0);
    EXPECT_LE(p999, 9'990.0 * 1.125);
    // The tail orders correctly and p=1 is the exact max.
    EXPECT_GE(p999, h.percentileNs(0.99));
    EXPECT_EQ(h.percentileNs(1.0), 10'000.0);

    // One outlier in an otherwise tight distribution: p999 must see
    // it once the outlier crosses the 0.1% population threshold.
    std::vector<std::uint64_t> samples(999, 100);
    samples.push_back(1'000'000); // sample 1000 of 1000 => rank 0.999
    const LatencySnapshot spiky = snapshotOf(samples);
    EXPECT_GE(spiky.percentileNs(0.999), 100.0);
    EXPECT_EQ(spiky.percentileNs(1.0), 1'000'000.0);
    EXPECT_EQ(spiky.maxNs(), 1'000'000u);
}

TEST(LatencyHistogram, RegisterIntoEmitsP999)
{
    StatRegistry reg;
    snapshotOf(upTo(10'000)).registerInto(reg, "lat.");
    EXPECT_GE(reg.numeric("lat.p999_ns"),
              reg.numeric("lat.p99_ns"));
    // Percentiles are capped at the exact max.
    EXPECT_LE(reg.numeric("lat.p999_ns"), reg.numeric("lat.max_ns"));
}

TEST(LatencyHistogram, MergeCombinesCountsAndExtrema)
{
    LatencySnapshot a = snapshotOf({10, 20});
    const LatencySnapshot b = snapshotOf({5, 40});
    LatencySnapshot empty;

    a.merge(empty); // identity
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.minNs(), 10u);

    empty.merge(b); // empty side adopts the other's extrema
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_EQ(empty.minNs(), 5u);
    EXPECT_EQ(empty.maxNs(), 40u);

    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.minNs(), 5u);
    EXPECT_EQ(a.maxNs(), 40u);
    EXPECT_EQ(a.sumNs(), 75u);
}

TEST(LatencyHistogram, RegisterIntoEmitsPercentileStats)
{
    StatRegistry reg;
    snapshotOf(upTo(100)).registerInto(reg, "lat.get.");
    EXPECT_EQ(reg.numeric("lat.get.count"), 100.0);
    EXPECT_GT(reg.numeric("lat.get.p50_ns"), 0.0);
    EXPECT_GE(reg.numeric("lat.get.p99_ns"),
              reg.numeric("lat.get.p50_ns"));
    EXPECT_EQ(reg.numeric("lat.get.max_ns"), 100.0);

    // Empty histograms register nothing rather than zeros.
    StatRegistry empty_reg;
    LatencySnapshot().registerInto(empty_reg, "lat.put.");
    EXPECT_EQ(empty_reg.find("lat.put.count"), nullptr);
}

TEST(LatencyRecording, SnapshotMergesAcrossJoinedThreads)
{
    resetLatency();

    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 250;
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kThreads; ++w)
        threads.emplace_back([w] {
            for (std::uint64_t i = 1; i <= kPerThread; ++i)
                recordLatency(KvOp::Get, i * (w + 1));
        });
    for (auto &t : threads)
        t.join();
    recordLatency(KvOp::Put, 77);

    const LatencySnapshot get = latencySnapshot(KvOp::Get);
    EXPECT_EQ(get.count(), kThreads * kPerThread);
    EXPECT_EQ(get.minNs(), 1u);
    EXPECT_EQ(get.maxNs(), kPerThread * kThreads);

    const LatencySnapshot put = latencySnapshot(KvOp::Put);
    EXPECT_EQ(put.count(), 1u);
    EXPECT_EQ(put.minNs(), 77u);
    EXPECT_EQ(latencySnapshot(KvOp::Fetch).count(), 0u);

    resetLatency();
    EXPECT_EQ(latencySnapshot(KvOp::Get).count(), 0u);
}

TEST(LatencyRecording, LiveSnapshotsWhileWritersRecord)
{
    // Three writers record into a kv op histogram and a histogram of
    // their own while this thread reads both 50 times.
    resetLatency();
    LatencyHistogram own;
    std::atomic<bool> stop{false};
    std::atomic<unsigned> started{0};
    std::vector<std::thread> writers;
    for (unsigned w = 0; w < 3; ++w)
        writers.emplace_back([&, w] {
            for (std::uint64_t i = 1;
                 !stop.load(std::memory_order_relaxed); ++i) {
                const std::uint64_t ns = 100 + (i * (w + 7)) % 100'000;
                recordLatency(KvOp::Get, ns);
                own.record(ns);
                if (i == 1)
                    started.fetch_add(1);
            }
        });
    while (started.load() < 3)
        std::this_thread::yield();

    const auto check = [](const LatencySnapshot &s,
                          std::uint64_t &last) {
        std::uint64_t total = 0;
        for (unsigned b = 0; b < kLatencyBuckets; ++b)
            total += s.bucket(b);
        EXPECT_EQ(total, s.count());
        EXPECT_GE(s.count(), last);
        last = s.count();
        if (s.count() == 0)
            return;
        EXPECT_LE(double(s.minNs()), s.percentileNs(0.5));
        EXPECT_LE(s.percentileNs(0.5), double(s.maxNs()));
    };
    std::uint64_t last_kv = 0, last_own = 0;
    for (int i = 0; i < 50; ++i) {
        check(latencySnapshot(KvOp::Get), last_kv);
        check(own.snapshot(), last_own);
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : writers)
        t.join();

    EXPECT_EQ(latencySnapshot(KvOp::Get).count(),
              own.snapshot().count());
    resetLatency();
}

TEST(ThreadCounters, SumsNeverDecreaseWhileWritersAdd)
{
    // Three writers add into two counters while this thread sums
    // them 50 times: no sum may go backwards, and the final sums are
    // every add.
    ThreadCounters<2> counters;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> adds{0};
    std::vector<std::thread> writers;
    for (unsigned w = 0; w < 3; ++w)
        writers.emplace_back([&] {
            std::uint64_t n = 0;
            for (; !stop.load(std::memory_order_relaxed); ++n) {
                counters.add(0);
                counters.add(1, 3);
            }
            adds.fetch_add(n);
        });

    std::uint64_t last0 = 0, last1 = 0;
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t s0 = counters.sum(0);
        const std::uint64_t s1 = counters.sum(1);
        EXPECT_GE(s0, last0);
        EXPECT_GE(s1, last1);
        last0 = s0;
        last1 = s1;
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : writers)
        t.join();
    EXPECT_EQ(counters.sum(0), adds.load());
    EXPECT_EQ(counters.sum(1), 3 * adds.load());
}

TEST(ThreadCounters, ExitedThreadsStillCount)
{
    ThreadCounters<1> counters;
    std::thread([&counters] { counters.add(0, 11); }).join();
    std::thread([&counters] { counters.add(0, 31); }).join();
    counters.add(0);
    EXPECT_EQ(counters.sum(0), 43u);
}

} // namespace
} // namespace adcache::obs
