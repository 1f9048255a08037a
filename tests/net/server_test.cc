/**
 * @file
 * Socket-transport tests against a real KvServer on an ephemeral
 * 127.0.0.1 port: client round-trips, many concurrent clients on a
 * shared service, byte-at-a-time partial sends over a raw socket,
 * per-connection error isolation (garbage framing kills only the
 * offending connection), and graceful shutdown (stop() while clients
 * are connected, or while a peer never reads; idempotent stop; a
 * prompt stop of an idle server; restartability of a fresh server).
 * These run under the `server` ctest label and must pass under asan.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hh"
#include "net/loopback.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "net/service.hh"
#include "net/stats_v2.hh"
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

/**
 * Raw blocking client socket to 127.0.0.1:@p port (-1 on failure).
 * A nonzero @p rcvbuf sets SO_RCVBUF before connect, so the window
 * the handshake advertises already fits it.
 */
int
rawConnect(std::uint16_t port, int rcvbuf = 0)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (rcvbuf != 0 &&
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                     sizeof rcvbuf) != 0) {
        ::close(fd);
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    int rc;
    do {
        rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
rawSendAll(int fd, std::string_view bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + off, bytes.size() - off, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += std::size_t(n);
    }
    return true;
}

/**
 * Send @p bytes on the non-blocking @p fd until they are all sent or
 * the socket stays full for 20 waits of 10 ms (the server has taken
 * what it will); @return the bytes sent.
 */
std::size_t
sendUntilStalled(int fd, std::string_view bytes)
{
    std::size_t written = 0;
    for (int stalls = 0; written < bytes.size() && stalls < 20;) {
        const ssize_t n = ::send(fd, bytes.data() + written,
                                 bytes.size() - written, MSG_NOSIGNAL);
        if (n > 0) {
            written += std::size_t(n);
            stalls = 0;
        } else if (n < 0 && errno != EINTR) {
            EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK)
                << std::strerror(errno);
            ++stalls;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
    return written;
}

/** Read frames off @p fd until one full response arrives. */
bool
rawReadResponse(int fd, Message *out)
{
    FrameReader reader;
    std::string_view body;
    char buf[4096];
    for (;;) {
        switch (reader.next(&body)) {
          case FrameReader::Status::Frame:
            return decodeBody(body, out);
          case FrameReader::Status::Corrupt:
            return false;
          case FrameReader::Status::NeedMore:
            break;
        }
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-response
        reader.feed(std::string_view(buf, std::size_t(n)));
    }
}

class ServerTest : public ::testing::Test
{
  protected:
    void
    startServer(bool read_through = false, unsigned workers = 2)
    {
        service_ =
            std::make_unique<KvService>(smallService(read_through));
        KvServerConfig cfg;
        cfg.workers = workers;
        server_ = std::make_unique<KvServer>(*service_, cfg);
        ASSERT_TRUE(server_->start()) << server_->lastError();
        ASSERT_NE(server_->port(), 0);
    }

    void
    TearDown() override
    {
        if (server_)
            server_->stop();
    }

    std::unique_ptr<KvService> service_;
    std::unique_ptr<KvServer> server_;
};

TEST_F(ServerTest, ClientRoundTrip)
{
    startServer();
    KvClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()))
        << client.lastError();

    EXPECT_TRUE(client.ping());
    EXPECT_FALSE(client.get(1).has_value());
    EXPECT_TRUE(client.put(1, "over the wire"));
    const auto got = client.get(1);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "over the wire");
    EXPECT_TRUE(client.del(1));
    EXPECT_FALSE(client.del(1));
    const std::string stats = client.stats();
    EXPECT_NE(stats.find("net.requests"), std::string::npos);
    client.close();
    EXPECT_GE(server_->connectionsAccepted(), 1u);
}

TEST_F(ServerTest, ManyConcurrentClients)
{
    startServer(/*read_through=*/true, /*workers=*/3);
    constexpr unsigned kClients = 8;
    constexpr int kOpsPerClient = 500;
    std::vector<std::thread> threads;
    std::atomic<std::uint64_t> failures{0};
    threads.reserve(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            KvClient client;
            if (!client.connect("127.0.0.1", server_->port())) {
                failures.fetch_add(1);
                return;
            }
            for (int i = 0; i < kOpsPerClient; ++i) {
                const std::uint64_t key =
                    (c * kOpsPerClient + i) % 256;
                // Read-through get: the response must be the
                // key-derived backend value, from any thread.
                const auto got = client.get(key);
                if (!got.has_value() ||
                    *got != valueFor(
                                key,
                                service_->config().loaderValues))
                    failures.fetch_add(1,
                                       std::memory_order_relaxed);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_GE(server_->connectionsAccepted(), kClients);
    EXPECT_GE(service_->requestsServed(),
              std::uint64_t(kClients) * kOpsPerClient);
}

TEST_F(ServerTest, ByteAtATimePartialSends)
{
    // Dribble a request one byte at a time over a raw socket: the
    // server's partial-read path must reassemble it exactly.
    startServer();
    const int fd = rawConnect(server_->port());
    ASSERT_GE(fd, 0);

    const std::string put =
        encodedFrame(Message::put(77, "dribbled", 0));
    for (char b : put) {
        ASSERT_TRUE(rawSendAll(fd, std::string_view(&b, 1)));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    Message resp;
    ASSERT_TRUE(rawReadResponse(fd, &resp));
    EXPECT_EQ(resp.kind, MsgKind::Ok);

    const std::string get = encodedFrame(Message::get(77));
    ASSERT_TRUE(rawSendAll(fd, get.substr(0, 3)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(rawSendAll(fd, get.substr(3)));
    ASSERT_TRUE(rawReadResponse(fd, &resp));
    EXPECT_EQ(resp.kind, MsgKind::Value);
    EXPECT_EQ(resp.payload, "dribbled");
    ::close(fd);
}

TEST_F(ServerTest, GarbageFramingKillsOnlyThatConnection)
{
    startServer();
    KvClient healthy;
    ASSERT_TRUE(healthy.connect("127.0.0.1", server_->port()));
    ASSERT_TRUE(healthy.put(1, "survives"));

    // A second connection sends an impossible length prefix; the
    // server must close it (recv sees EOF) without disturbing the
    // healthy one.
    const int bad = rawConnect(server_->port());
    ASSERT_GE(bad, 0);
    ASSERT_TRUE(rawSendAll(bad, "\xff\xff\xff\xff junk"));
    char buf[64];
    ssize_t n;
    do {
        n = ::recv(bad, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    EXPECT_EQ(n, 0) << "server should close the corrupt connection";
    ::close(bad);

    const auto got = healthy.get(1);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "survives");
}

TEST_F(ServerTest, MalformedBodyGetsErrorConnectionSurvives)
{
    startServer();
    const int fd = rawConnect(server_->port());
    ASSERT_GE(fd, 0);

    // Well-framed Get with a short key: request-fatal only.
    std::string body(1, '\x01');
    body += "xy";
    std::string frame;
    frame.push_back(char(body.size()));
    frame.append(3, '\0');
    frame += body;
    ASSERT_TRUE(rawSendAll(fd, frame));
    Message resp;
    ASSERT_TRUE(rawReadResponse(fd, &resp));
    EXPECT_EQ(resp.kind, MsgKind::Error);

    // Same socket keeps working.
    ASSERT_TRUE(rawSendAll(fd, encodedFrame(Message::ping())));
    ASSERT_TRUE(rawReadResponse(fd, &resp));
    EXPECT_EQ(resp.kind, MsgKind::Ok);
    ::close(fd);
}

TEST_F(ServerTest, GracefulShutdownWithLiveClients)
{
    startServer();
    KvClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    ASSERT_TRUE(client.put(1, "x"));

    server_->stop();
    EXPECT_FALSE(server_->running());
    server_->stop(); // idempotent

    // The client's next call fails cleanly (closed socket), not by
    // hanging.
    client.get(1);
    EXPECT_FALSE(client.connected());

    // And the port is genuinely released: a fresh server can start.
    KvService service2(smallService());
    KvServer server2(service2, KvServerConfig{});
    ASSERT_TRUE(server2.start()) << server2.lastError();
    KvClient again;
    EXPECT_TRUE(again.connect("127.0.0.1", server2.port()));
    EXPECT_TRUE(again.ping());
    server2.stop();
}

TEST_F(ServerTest, IdleStopIsPrompt)
{
    // stop() wakes the acceptor, so a cycle takes about a
    // millisecond; an acceptor that saw stop() only when a 100 ms
    // poll timed out would need about 1 s for the ten. Each cycle
    // serves one ping first, so the acceptor is back in its poll
    // when stop() comes.
    KvService service(smallService());
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 10; ++i) {
        KvServer server(service, KvServerConfig{});
        ASSERT_TRUE(server.start()) << server.lastError();
        KvClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
        ASSERT_TRUE(client.ping());
        client.close();
        server.stop();
        EXPECT_FALSE(server.running());
    }
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(300));
}

TEST_F(ServerTest, PipelinedSendManyMatchesSerialCalls)
{
    // The same mixed request program through sendMany (one gathered
    // write, responses in order) and through one-at-a-time call()s
    // on a second connection must answer identically — and both must
    // match the loopback transport, the socket server's oracle.
    startServer();
    std::vector<Message> requests;
    for (std::uint64_t k = 0; k < 24; ++k)
        requests.push_back(
            Message::put(k, "v" + std::to_string(k)));
    for (std::uint64_t k = 0; k < 24; ++k)
        requests.push_back(Message::get(k * 2)); // half miss
    requests.push_back(Message::mget({1, 2, 3, 99}));
    requests.push_back(Message::ping());

    KvClient pipelined;
    ASSERT_TRUE(pipelined.connect("127.0.0.1", server_->port()));
    std::vector<Message> piped;
    ASSERT_EQ(pipelined.sendMany(requests, &piped),
              requests.size());

    KvClient serial;
    ASSERT_TRUE(serial.connect("127.0.0.1", server_->port()));
    LoopbackConnection loop(*service_);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Message s = serial.call(requests[i]);
        const Message l = loop.call(requests[i]);
        EXPECT_EQ(piped[i].kind, s.kind) << "request " << i;
        EXPECT_EQ(piped[i].payload, s.payload) << "request " << i;
        EXPECT_EQ(piped[i].kind, l.kind) << "request " << i;
        EXPECT_EQ(piped[i].payload, l.payload) << "request " << i;
        ASSERT_EQ(piped[i].entries.size(), l.entries.size());
        for (std::size_t e = 0; e < piped[i].entries.size(); ++e) {
            EXPECT_EQ(piped[i].entries[e].status,
                      l.entries[e].status);
            EXPECT_EQ(piped[i].entries[e].value,
                      l.entries[e].value);
        }
    }
}

TEST_F(ServerTest, MGetOverTheWire)
{
    startServer(/*read_through=*/true);
    KvClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    const std::vector<std::uint64_t> keys = {5, 6, 7, 8};
    const auto got = client.mget(keys);
    ASSERT_EQ(got.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(got[i].has_value());
        EXPECT_EQ(*got[i],
                  valueFor(keys[i],
                           service_->config().loaderValues));
    }
}

/** The largest send buffer TCP autotuning grows a socket to
 *  (tcp_wmem's third field), 4 MiB if it cannot be read. */
std::size_t
tcpSendBufferCeiling()
{
    std::ifstream in("/proc/sys/net/ipv4/tcp_wmem");
    std::size_t min = 0, initial = 0, max = 0;
    if (in >> min >> initial >> max && max > 0)
        return max;
    return std::size_t{4} << 20;
}

/** The server's backpressure_parks count, read through Stats v2. */
std::uint64_t
backpressureParks(const KvService &service)
{
    std::uint16_t shards = 0;
    std::vector<StatSample> samples;
    EXPECT_TRUE(decodeStatsV2(service.statsV2(), &shards, &samples));
    for (const StatSample &s : samples)
        if (s.tag == StatTag::BackpressureParks)
            return s.value;
    ADD_FAILURE() << "no backpressure_parks sample";
    return 0;
}

TEST_F(ServerTest, BackpressuredFlushDeliversEverything)
{
    // Short-write injection: a client with a tiny receive buffer
    // pipelines large-value reads worth twice the largest send
    // buffer the server's socket can grow to, and only starts reading
    // after the whole burst is sent. The server's flush must hit
    // EAGAIN, park the tail in the per-connection output buffer and
    // drain it under POLLOUT; every response must still arrive, in
    // order.
    startServer();
    server_->installStatsProvider();
    KvClient writer;
    ASSERT_TRUE(writer.connect("127.0.0.1", server_->port()));
    constexpr std::size_t kValueBytes = 8 * 1024;
    constexpr std::uint64_t kKeys = 4;
    std::vector<std::string> values;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        values.emplace_back(kValueBytes, char('A' + k));
        ASSERT_TRUE(writer.put(42 + k, values.back()));
    }

    const int fd = rawConnect(server_->port(), /*rcvbuf=*/4096);
    ASSERT_GE(fd, 0);
    const std::size_t requests =
        2 * tcpSendBufferCeiling() / kValueBytes;
    std::string burst;
    for (std::size_t i = 0; i < requests; ++i)
        encodeFrame(Message::get(42 + i % kKeys), &burst);
    ASSERT_TRUE(rawSendAll(fd, burst));
    // Let the server read the burst and jam against the socket.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // One FrameReader across the whole stream: a recv can deliver
    // bytes of several frames, and none may be dropped.
    FrameReader reader;
    std::string_view body;
    char buf[4096];
    std::size_t seen = 0;
    while (seen < requests) {
        switch (reader.next(&body)) {
          case FrameReader::Status::Frame: {
            Message resp;
            ASSERT_TRUE(decodeBody(body, &resp));
            ASSERT_EQ(resp.kind, MsgKind::Value)
                << "response " << seen;
            ASSERT_EQ(resp.payload, values[seen % kKeys])
                << "response " << seen;
            ++seen;
            continue;
          }
          case FrameReader::Status::Corrupt:
            FAIL() << "corrupt framing at response " << seen;
          case FrameReader::Status::NeedMore:
            break;
        }
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        ASSERT_GT(n, 0) << "EOF/error at response " << seen;
        reader.feed(std::string_view(buf, std::size_t(n)));
    }
    ::close(fd);
    EXPECT_GT(backpressureParks(*service_), 0u);
}

TEST_F(ServerTest, PeerHangupMidFlushKillsOnlyThatConnection)
{
    // A peer that pipelines a burst and vanishes without reading
    // forces the flush into EPIPE/ECONNRESET territory. With one
    // worker, that same thread must keep serving other connections.
    startServer(/*read_through=*/false, /*workers=*/1);
    KvClient writer;
    ASSERT_TRUE(writer.connect("127.0.0.1", server_->port()));
    const std::string big(8 * 1024, 'B');
    ASSERT_TRUE(writer.put(42, big));

    const int fd = rawConnect(server_->port());
    ASSERT_GE(fd, 0);
    {
        const int tiny = 4096;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny,
                     sizeof tiny);
        // RST on close, so the server's flush errors rather than
        // quietly draining into a closed-but-lingering socket.
        struct linger lg{1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    }
    std::string burst;
    for (int i = 0; i < 128; ++i)
        encodeFrame(Message::get(42), &burst);
    ASSERT_TRUE(rawSendAll(fd, burst));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ::close(fd); // vanish mid-flush

    // The lone worker survives and keeps serving.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    for (int i = 0; i < 5; ++i) {
        const auto got = writer.get(42);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, big);
    }
    KvClient fresh;
    ASSERT_TRUE(fresh.connect("127.0.0.1", server_->port()));
    EXPECT_TRUE(fresh.ping());
}

TEST_F(ServerTest, EofMidFrameClosesTheConnection)
{
    startServer();
    const int fd = rawConnect(server_->port());
    ASSERT_GE(fd, 0);
    const std::string frame = encodedFrame(Message::get(1));
    // Send half a frame, then disappear.
    ASSERT_TRUE(rawSendAll(fd, frame.substr(0, frame.size() / 2)));
    ::close(fd);

    // The server must absorb that without harm: a new client works.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    KvClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    EXPECT_TRUE(client.ping());
}

TEST_F(ServerTest, NeverReadingClientIsBackpressured)
{
    // A client pipelines GETs and never reads. Once its pending
    // output passes the cap, the server stops dispatching its
    // buffered requests and stops reading its socket, so the backlog
    // stays bounded and the client's writes stall in its own send
    // buffer; the lone worker keeps serving another connection.
    startServer(/*read_through=*/false, /*workers=*/1);
    KvClient other;
    ASSERT_TRUE(other.connect("127.0.0.1", server_->port()));
    const std::string value(1024, 'V');
    ASSERT_TRUE(other.put(7, value));

    const int fd = rawConnect(server_->port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK),
              0);
    const std::string get = encodedFrame(Message::get(7));
    constexpr std::size_t kFrames = 100'000;
    std::string burst;
    for (std::size_t i = 0; i < kFrames; ++i)
        burst += get;
    const std::size_t written = sendUntilStalled(fd, burst);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // The other connection is served meanwhile.
    for (int i = 0; i < 5; ++i) {
        const auto got = other.get(7);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, value);
    }
    const std::size_t response = 4 + 1 + value.size();
    EXPECT_LT(server_->outBufHighWater(), KvServer::kOutputCap + response);
    // The server stopped reading: it took far fewer request bytes than
    // the client managed to write (a server that drains every
    // readable socket would have read all of them).
    EXPECT_LT(server_->bytesReceived(), written);
    ::close(fd);
}

TEST_F(ServerTest, StopReturnsWhilePeerNeverReads)
{
    // A client pipelines GETs of a 1 KiB value and never reads, so
    // the lone worker holds more output than the socket will take.
    // stop() flushes until the drain deadline, then closes the
    // connection with its output still pending.
    startServer(/*read_through=*/false, /*workers=*/1);
    KvClient other;
    ASSERT_TRUE(other.connect("127.0.0.1", server_->port()));
    ASSERT_TRUE(other.put(7, std::string(1024, 'V')));

    const int fd = rawConnect(server_->port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK),
              0);
    std::string burst;
    const std::string get = encodedFrame(Message::get(7));
    for (int i = 0; i < 20'000; ++i)
        burst += get;
    sendUntilStalled(fd, burst);
    // Wait until the worker has filled the connection's output.
    for (int i = 0; i < 500 && server_->outBufHighWater() <
                                   KvServer::kOutputCap;
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GE(server_->outBufHighWater(), KvServer::kOutputCap);

    const auto t0 = std::chrono::steady_clock::now();
    server_->stop();
    const auto took = std::chrono::steady_clock::now() - t0;
    EXPECT_FALSE(server_->running());
    EXPECT_LT(took, KvServer::kDrainDeadline +
                        std::chrono::milliseconds(100));
    ::close(fd);
}

} // namespace
