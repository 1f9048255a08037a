/**
 * @file
 * Allocation-count gate for the serving path: this binary replaces
 * global operator new with one that counts per thread, and pins the
 * heap allocations one request costs on a warmed read-through
 * service, per scenario, against a committed table. Each scenario is
 * counted twice: through KvChannel::ingest alone (the server side,
 * what the socket transport runs per request) and through the whole
 * LoopbackConnection call (client encode and decode included).
 *
 * A count above its table entry is a regression and fails. A count
 * below it fails too, so the table is re-recorded in the change that
 * earned it (docs/TESTING.md, "Allocation gate").
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "net/loopback.hh"
#include "net/protocol.hh"
#include "net/service.hh"
#include "workloads/key_stream.hh"

namespace
{

/** operator new calls made by this thread. */
thread_local std::uint64_t tl_news = 0;

void *
countedAlloc(std::size_t n, std::size_t align)
{
    ++tl_news;
    void *p = nullptr;
    if (align <= alignof(std::max_align_t))
        p = std::malloc(n ? n : 1);
    else if (::posix_memalign(&p, align, n ? n : 1) != 0)
        p = nullptr;
    return p;
}

} // namespace

void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n, 0))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    if (void *p = countedAlloc(n, std::size_t(a)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return ::operator new(n, a);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace adcache;
using namespace adcache::net;

/** The committed table: heap allocations per request. */
struct Budget
{
    const char *scenario;
    std::uint64_t server;   //!< KvChannel::ingest alone
    std::uint64_t loopback; //!< the whole LoopbackConnection call
};

constexpr Budget kBudgets[] = {
    {"get_hit", 0, 1},
    {"get_miss_read_through", 3, 4},
    {"get_not_found", 0, 0},
    {"put_overwrite", 2, 2},
    {"put_insert", 3, 3},
    {"mget16_hit", 0, 17},
};

constexpr std::size_t kValueBytes = 100; //!< past the SSO buffer
constexpr std::uint64_t kCapacity = 1024;
constexpr unsigned kCalls = 32;          //!< measured per scenario
constexpr std::uint64_t kFreshKeys = 1'000'000; //!< never loaded

KvServiceConfig
serviceConfig(bool read_through)
{
    KvServiceConfig c;
    c.cache.capacity = kCapacity;
    c.cache.numShards = 2;
    c.cache.numBuckets = 128;
    c.readThrough = read_through;
    c.loaderValues = ValueSpec{kValueBytes, kValueBytes};
    return c;
}

/** A service and a loopback connection, warmed until every buffer
 *  and per-thread cell the request path touches exists. */
struct Fixture
{
    explicit Fixture(bool read_through)
        : service(serviceConfig(read_through)), channel(service),
          conn(service)
    {
        // Fill the cache past capacity, so inserts evict.
        for (std::uint64_t k = 0; k < 4 * kCapacity; ++k)
            service.cache().put(k, value(k, 0));
        for (std::uint64_t k = 0; k < 4 * kCapacity; ++k)
            if (service.cache().contains(k) && resident.size() < 64)
                resident.push_back(k);
        out.reserve(64 * 1024);
        // Every kind once on both paths, and a run of evicting fills.
        for (unsigned i = 0; i < 4 * kCalls; ++i) {
            const std::uint64_t k = resident[i % 16];
            conn.get(k);
            conn.put(k, value(k, i + 1));
            conn.mget(mgetKeys());
            conn.get(kFreshKeys + 100'000 + i);
            conn.put(kFreshKeys + 200'000 + i, value(k, i));
            ingest(encodedFrame(Message::get(k)));
            ingest(encodedFrame(Message::put(k, value(k, i + 2))));
            ingest(encodedFrame(Message::mget(mgetKeys())));
            ingest(encodedFrame(Message::get(kFreshKeys + 300'000 + i)));
        }
    }

    static std::string
    value(std::uint64_t key, unsigned version)
    {
        std::string v = valueFor(key, ValueSpec{kValueBytes, kValueBytes});
        v[v.size() - 1] = char('a' + version % 26);
        return v;
    }

    std::vector<std::uint64_t>
    mgetKeys() const
    {
        return {resident.begin(), resident.begin() + 16};
    }

    void
    ingest(const std::string &frame)
    {
        out.clear();
        ASSERT_TRUE(channel.ingest(frame, &out));
    }

    KvService service;
    KvChannel channel;
    LoopbackConnection conn;
    std::vector<std::uint64_t> resident; //!< keys warmed resident
    std::string out;                     //!< channel output buffer
};

/** Allocations @p call makes, the most over kCalls calls. */
template <class F>
std::uint64_t
maxAllocs(F &&call)
{
    std::uint64_t most = 0;
    for (unsigned i = 0; i < kCalls; ++i) {
        const std::uint64_t before = tl_news;
        call(i);
        most = std::max(most, tl_news - before);
    }
    return most;
}

struct Measured
{
    std::uint64_t server;
    std::uint64_t loopback;
};

Measured
measure(const char *scenario)
{
    const std::string s = scenario;
    Fixture f(s != "get_not_found");
    // Request frames are encoded before counting: the server side
    // sees bytes off the wire.
    std::vector<std::string> frames;
    for (unsigned i = 0; i < kCalls; ++i) {
        const std::uint64_t hit = f.resident[i % 16];
        if (s == "get_hit")
            frames.push_back(encodedFrame(Message::get(hit)));
        else if (s == "get_miss_read_through" || s == "get_not_found")
            frames.push_back(encodedFrame(Message::get(kFreshKeys + i)));
        else if (s == "put_overwrite")
            frames.push_back(encodedFrame(
                Message::put(hit, Fixture::value(hit, i + 7))));
        else if (s == "put_insert")
            frames.push_back(encodedFrame(Message::put(
                kFreshKeys + i, Fixture::value(hit, i))));
        else
            frames.push_back(encodedFrame(Message::mget(f.mgetKeys())));
    }
    Measured m;
    m.server = maxAllocs([&](unsigned i) { f.ingest(frames[i]); });

    // The same scenario through the whole loopback call, on keys the
    // server-side pass did not touch where freshness matters.
    const std::vector<std::uint64_t> mget = f.mgetKeys();
    std::vector<std::string> values;
    for (unsigned i = 0; i < kCalls; ++i)
        values.push_back(Fixture::value(f.resident[i % 16], i + 11));
    m.loopback = maxAllocs([&](unsigned i) {
        const std::uint64_t hit = f.resident[i % 16];
        const std::uint64_t fresh = kFreshKeys + 500'000 + i;
        if (s == "get_hit") {
            EXPECT_TRUE(f.conn.get(hit));
        } else if (s == "get_miss_read_through") {
            EXPECT_TRUE(f.conn.get(fresh));
        } else if (s == "get_not_found") {
            EXPECT_FALSE(f.conn.get(fresh));
        } else if (s == "put_overwrite") {
            EXPECT_TRUE(f.conn.put(hit, values[i]));
        } else if (s == "put_insert") {
            EXPECT_TRUE(f.conn.put(fresh, values[i]));
        } else {
            EXPECT_EQ(f.conn.mget(mget).size(), 16u);
        }
    });
    return m;
}

TEST(AllocCount, PerRequestCountsMatchTheTable)
{
    bool all_equal = true;
    for (const Budget &b : kBudgets) {
        const Measured m = measure(b.scenario);
        std::printf("%-24s server %llu (table %llu), loopback %llu "
                    "(table %llu)\n",
                    b.scenario, (unsigned long long)m.server,
                    (unsigned long long)b.server,
                    (unsigned long long)m.loopback,
                    (unsigned long long)b.loopback);
        EXPECT_LE(m.server, b.server)
            << b.scenario << ": server-side allocations rose";
        EXPECT_LE(m.loopback, b.loopback)
            << b.scenario << ": loopback-call allocations rose";
        all_equal &= m.server == b.server && m.loopback == b.loopback;
    }
    EXPECT_TRUE(all_equal)
        << "a count fell below its table entry: re-record kBudgets "
           "with the printed counts";
}

TEST(AllocCount, ServedHitsAndMissesAllocateNothingServerSide)
{
    // The acceptance limits behind the table, stated directly.
    for (const Budget &b : kBudgets) {
        const std::string s = b.scenario;
        if (s == "get_hit" || s == "get_not_found" || s == "mget16_hit") {
            EXPECT_EQ(b.server, 0u) << s;
        }
    }
    EXPECT_LE(kBudgets[0].loopback, 1u) << "get returns one string";
}

} // namespace
