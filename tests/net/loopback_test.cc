/**
 * @file
 * In-process transport tests: request/response semantics through
 * KvChannel + KvService without sockets — typed round-trips, chunked
 * ingest (partial-read coverage), the two-tier error contract
 * (undecodable body answers Error and the channel lives; corrupt
 * framing kills it), scenario injection (dead shard, read-through
 * identity under backend value derivation), TTL over the logical
 * clock, stats payloads, and a multi-thread loopback concurrency
 * test on one shared service (the TSan target that needs no
 * sockets).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "net/loopback.hh"
#include "net/protocol.hh"
#include "net/service.hh"
#include "workloads/key_stream.hh"

using namespace adcache;
using namespace adcache::net;

namespace
{

KvServiceConfig
smallService(bool read_through = false)
{
    KvServiceConfig c;
    c.cache.capacity = 1024;
    c.cache.numShards = 2;
    c.cache.numBuckets = 128;
    c.cache.bucketWays = 4;
    c.readThrough = read_through;
    c.loaderValues = ValueSpec{32, 64};
    return c;
}

TEST(Loopback, PutGetDelRoundTrip)
{
    KvService service(smallService());
    LoopbackConnection conn(service);

    EXPECT_FALSE(conn.get(1).has_value());
    EXPECT_TRUE(conn.put(1, "hello"));
    const auto got = conn.get(1);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "hello");
    EXPECT_TRUE(conn.del(1));
    EXPECT_FALSE(conn.del(1)); // second delete: NotFound
    EXPECT_FALSE(conn.get(1).has_value());
    EXPECT_TRUE(conn.ping());
    EXPECT_FALSE(conn.dead());
}

TEST(Loopback, ChunkedIngestMatchesWholeFrames)
{
    // Byte-at-a-time delivery must produce byte-identical behavior:
    // the channel is the same partial-read state machine the socket
    // server runs.
    KvService service(smallService());
    LoopbackConnection conn(service);

    Message r = conn.call(Message::put(9, "chunked value"), 1);
    EXPECT_EQ(r.kind, MsgKind::Ok);
    r = conn.call(Message::get(9), 1);
    ASSERT_EQ(r.kind, MsgKind::Value);
    EXPECT_EQ(r.payload, "chunked value");
    r = conn.call(Message::get(9), 3);
    ASSERT_EQ(r.kind, MsgKind::Value);
    EXPECT_EQ(r.payload, "chunked value");
}

TEST(Loopback, MalformedBodyAnswersErrorAndChannelLives)
{
    KvService service(smallService());
    KvChannel channel(service);

    // Well-framed, undecodable body: Get with a truncated key.
    std::string body(1, '\x01');
    body += "abc";
    std::string frame;
    frame.push_back(char(body.size()));
    frame.push_back('\0');
    frame.push_back('\0');
    frame.push_back('\0');
    frame += body;

    std::string out;
    EXPECT_TRUE(channel.ingest(frame, &out)); // channel stays alive
    EXPECT_FALSE(channel.dead());

    FrameReader responses;
    responses.feed(out);
    std::string_view resp_body;
    ASSERT_EQ(responses.next(&resp_body),
              FrameReader::Status::Frame);
    Message resp;
    ASSERT_TRUE(decodeBody(resp_body, &resp));
    EXPECT_EQ(resp.kind, MsgKind::Error);

    // The same channel keeps serving real requests afterwards.
    out.clear();
    EXPECT_TRUE(channel.ingest(encodedFrame(Message::ping()), &out));
    responses.feed(out);
    ASSERT_EQ(responses.next(&resp_body),
              FrameReader::Status::Frame);
    ASSERT_TRUE(decodeBody(resp_body, &resp));
    EXPECT_EQ(resp.kind, MsgKind::Ok);
}

TEST(Loopback, ResponseKindIsRejectedAsRequest)
{
    // A client sending a response kind is a protocol violation on a
    // valid frame: request-fatal, not connection-fatal.
    KvService service(smallService());
    KvChannel channel(service);
    std::string out;
    EXPECT_TRUE(channel.ingest(encodedFrame(Message::ok()), &out));
    EXPECT_FALSE(channel.dead());
    FrameReader responses;
    responses.feed(out);
    std::string_view body;
    ASSERT_EQ(responses.next(&body), FrameReader::Status::Frame);
    Message resp;
    ASSERT_TRUE(decodeBody(body, &resp));
    EXPECT_EQ(resp.kind, MsgKind::Error);
}

TEST(Loopback, CorruptFramingKillsTheChannel)
{
    KvService service(smallService());
    KvChannel channel(service);
    std::string out;
    // Length prefix far beyond kMaxFrameBytes.
    const std::string garbage = "\xff\xff\xff\xff then noise";
    EXPECT_FALSE(channel.ingest(garbage, &out));
    EXPECT_TRUE(channel.dead());
    // Dead is dead: further bytes never dispatch.
    const std::uint64_t before = channel.requestsHandled();
    EXPECT_FALSE(
        channel.ingest(encodedFrame(Message::ping()), &out));
    EXPECT_EQ(channel.requestsHandled(), before);
}

TEST(Loopback, DeadShardAnswersErrorOthersServe)
{
    KvService service(smallService());
    LoopbackConnection conn(service);

    // Find one key per shard.
    const unsigned shards = service.cache().numShards();
    std::vector<std::uint64_t> key_for(shards, 0);
    std::vector<bool> found(shards, false);
    for (std::uint64_t k = 0; k < 10'000; ++k) {
        const unsigned s = service.cache().shardOf(k);
        if (!found[s]) {
            found[s] = true;
            key_for[s] = k;
        }
    }
    ASSERT_TRUE(found[0] && found[1]);

    service.setDeadShardMask(1); // shard 0 down
    Message r = conn.call(Message::put(key_for[0], "x"));
    EXPECT_EQ(r.kind, MsgKind::Error);
    EXPECT_TRUE(conn.put(key_for[1], "y")); // shard 1 healthy
    EXPECT_GT(service.errorsAnswered(), 0u);

    service.setDeadShardMask(0); // recovery
    EXPECT_TRUE(conn.put(key_for[0], "x"));
}

TEST(Loopback, ReadThroughServesDerivedValuesAndCaches)
{
    KvService service(smallService(/*read_through=*/true));
    LoopbackConnection conn(service);

    const std::uint64_t key = 1234;
    const auto got = conn.get(key);
    ASSERT_TRUE(got.has_value()); // miss loaded from the "backend"
    EXPECT_EQ(*got,
              valueFor(key, service.config().loaderValues));

    // Second read is a cache hit: identical bytes, no reload.
    const auto again = conn.get(key);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, *got);
    EXPECT_GE(service.cache().shard(service.cache().shardOf(key))
                  .stats()
                  .hits,
              1u);
}

TEST(Loopback, TtlExpiresOverTheLogicalClock)
{
    KvService service(smallService());
    LoopbackConnection conn(service);
    EXPECT_TRUE(conn.put(5, "short-lived", /*ttl=*/2));
    EXPECT_TRUE(conn.get(5).has_value());
    service.cache().clockAdvance(2);
    EXPECT_FALSE(conn.get(5).has_value());
}

TEST(Loopback, StatsPayloadCarriesServiceCounters)
{
    KvService service(smallService());
    LoopbackConnection conn(service);
    conn.put(1, "a");
    conn.get(1);
    const std::string text = conn.stats();
    EXPECT_NE(text.find("net.requests"), std::string::npos);
    EXPECT_NE(text.find("net.errors"), std::string::npos);
    EXPECT_NE(text.find("kv.hits"), std::string::npos);
}

TEST(Loopback, MGetMixesHitsAndMisses)
{
    KvService service(smallService());
    LoopbackConnection conn(service);
    EXPECT_TRUE(conn.put(1, "one"));
    EXPECT_TRUE(conn.put(3, "three"));

    const auto got = conn.mget({1, 2, 3, 1});
    ASSERT_EQ(got.size(), 4u);
    ASSERT_TRUE(got[0].has_value());
    EXPECT_EQ(*got[0], "one");
    EXPECT_FALSE(got[1].has_value());
    ASSERT_TRUE(got[2].has_value());
    EXPECT_EQ(*got[2], "three");
    ASSERT_TRUE(got[3].has_value()); // duplicate key answers twice
    EXPECT_EQ(*got[3], "one");
    EXPECT_FALSE(conn.dead());
}

TEST(Loopback, MGetByteAtATimeMatchesWholeFrame)
{
    KvService service(smallService());
    LoopbackConnection conn(service);
    EXPECT_TRUE(conn.put(7, "chunky"));

    const Message whole = conn.call(Message::mget({7, 8}));
    const Message split = conn.call(Message::mget({7, 8}), 1);
    ASSERT_EQ(whole.kind, MsgKind::Values);
    ASSERT_EQ(split.kind, MsgKind::Values);
    ASSERT_EQ(whole.entries.size(), 2u);
    ASSERT_EQ(split.entries.size(), 2u);
    EXPECT_EQ(split.entries[0].status, MGetStatus::Found);
    EXPECT_EQ(split.entries[0].value, whole.entries[0].value);
    EXPECT_EQ(split.entries[1].status, MGetStatus::Miss);
}

TEST(Loopback, CallManyPipelinesConcatenatedFramesByteAtATime)
{
    // K frames of mixed kinds delivered one byte at a time: the
    // channel must decode every complete frame per feed and answer
    // all of them in request order — the pipelined hot path the
    // socket server runs per readable event.
    KvService service(smallService());
    LoopbackConnection conn(service);

    const std::vector<Message> requests = {
        Message::put(1, "a"),  Message::put(2, "bb"),
        Message::get(1),       Message::mget({1, 2, 3}),
        Message::del(2),       Message::get(2),
        Message::ping(),
    };
    const std::vector<Message> resps = conn.callMany(requests, 1);
    ASSERT_EQ(resps.size(), requests.size());
    EXPECT_EQ(resps[0].kind, MsgKind::Ok);
    EXPECT_EQ(resps[1].kind, MsgKind::Ok);
    ASSERT_EQ(resps[2].kind, MsgKind::Value);
    EXPECT_EQ(resps[2].payload, "a");
    ASSERT_EQ(resps[3].kind, MsgKind::Values);
    ASSERT_EQ(resps[3].entries.size(), 3u);
    EXPECT_EQ(resps[3].entries[0].value, "a");
    EXPECT_EQ(resps[3].entries[1].value, "bb");
    EXPECT_EQ(resps[3].entries[2].status, MGetStatus::Miss);
    EXPECT_EQ(resps[4].kind, MsgKind::Ok);
    EXPECT_EQ(resps[5].kind, MsgKind::NotFound);
    EXPECT_EQ(resps[6].kind, MsgKind::Ok);
    EXPECT_FALSE(conn.dead());
}

TEST(Loopback, MGetDeadShardAnswersPerKeyErrors)
{
    KvService service(smallService());
    LoopbackConnection conn(service);

    const unsigned shards = service.cache().numShards();
    std::vector<std::uint64_t> key_for(shards, 0);
    std::vector<bool> found(shards, false);
    for (std::uint64_t k = 0; k < 10'000; ++k) {
        const unsigned s = service.cache().shardOf(k);
        if (!found[s]) {
            found[s] = true;
            key_for[s] = k;
        }
    }
    ASSERT_TRUE(found[0] && found[1]);
    EXPECT_TRUE(conn.put(key_for[1], "alive"));

    service.setDeadShardMask(1); // shard 0 down
    const Message r =
        conn.call(Message::mget({key_for[0], key_for[1]}));
    ASSERT_EQ(r.kind, MsgKind::Values);
    ASSERT_EQ(r.entries.size(), 2u);
    EXPECT_EQ(r.entries[0].status, MGetStatus::Error);
    EXPECT_EQ(r.entries[1].status, MGetStatus::Found);
    EXPECT_EQ(r.entries[1].value, "alive");
    EXPECT_GT(service.errorsAnswered(), 0u);
}

TEST(Loopback, MGetReadThroughBackfillsMisses)
{
    KvService service(smallService(/*read_through=*/true));
    LoopbackConnection conn(service);

    const std::vector<std::uint64_t> keys = {100, 200, 300};
    const auto got = conn.mget(keys);
    ASSERT_EQ(got.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(got[i].has_value()) << "key " << keys[i];
        EXPECT_EQ(*got[i],
                  valueFor(keys[i],
                           service.config().loaderValues));
    }
    // Backfilled: the same batch now hits in cache.
    const auto again = conn.mget(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(again[i].has_value());
        EXPECT_EQ(*again[i], *got[i]);
    }
}

TEST(Loopback, OversizedMGetResponseAnswersErrorNotCorruption)
{
    // kMaxMGetKeys keys of read-through values big enough that the
    // Values response would blow kMaxFrameBytes: the service must
    // answer a request-fatal Error frame (the connection and its
    // framing survive), never emit an unframeable response.
    KvServiceConfig cfg = smallService(/*read_through=*/true);
    cfg.loaderValues = ValueSpec{512, 512};
    KvService service(cfg);
    LoopbackConnection conn(service);

    std::vector<std::uint64_t> keys(kMaxMGetKeys);
    for (std::size_t i = 0; i < keys.size(); ++i)
        keys[i] = i;
    const Message r = conn.call(Message::mget(keys));
    EXPECT_EQ(r.kind, MsgKind::Error);
    EXPECT_FALSE(conn.dead());
    EXPECT_TRUE(conn.ping()); // still serving
}

TEST(Loopback, ConcurrentConnectionsShareOneService)
{
    // The loopback concurrency test: N threads, each with its own
    // connection (channels are per-connection state), hammering one
    // shared service. Run under TSan this checks the whole
    // channel->service->cache stack without a socket.
    KvServiceConfig cfg = smallService(/*read_through=*/true);
    cfg.cache.lockFreeReads = true;
    KvService service(cfg);

    constexpr unsigned kThreads = 4;
    constexpr int kOpsPerThread = 4'000;
    constexpr std::uint64_t kKeys = 512;
    std::atomic<std::uint64_t> mismatches{0};

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            LoopbackConnection conn(service);
            std::uint64_t x = 0x9e3779b97f4a7c15ULL * (t + 1);
            for (int i = 0; i < kOpsPerThread; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                const std::uint64_t key = x % kKeys;
                switch (x % 16) {
                  case 0:
                    conn.put(key,
                             valueFor(key,
                                      service.config().loaderValues));
                    break;
                  case 1:
                    conn.del(key);
                    break;
                  default: {
                    // Read-through gets always produce the derived
                    // value: any other payload is a torn read.
                    const auto got = conn.get(key);
                    if (!got.has_value() ||
                        *got != valueFor(
                                    key,
                                    service.config().loaderValues))
                        mismatches.fetch_add(
                            1, std::memory_order_relaxed);
                    break;
                  }
                }
            }
            EXPECT_FALSE(conn.dead());
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(service.requestsServed(),
              std::uint64_t(kThreads) * kOpsPerThread);
}

} // namespace
