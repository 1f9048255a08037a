/**
 * @file
 * MetricsHttpServer tests over real sockets: a Prometheus-style GET
 * /metrics scrape, /healthz, partial (byte-dribbled) requests, 404
 * on unknown paths, 400 on non-GET — all against an ephemeral-port
 * listener, raw write()/read() so no HTTP client library shapes the
 * bytes.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "obs/metrics_http.hh"

using namespace adcache::obs;

namespace
{

int
connectTo(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

void
writeAll(int fd, std::string_view bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        ASSERT_GT(n, 0);
        off += std::size_t(n);
    }
}

/** Read until the server closes (Connection: close semantics). */
std::string
readAll(int fd)
{
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        out.append(buf, std::size_t(n));
    }
    return out;
}

std::string
roundTrip(std::uint16_t port, std::string_view request)
{
    const int fd = connectTo(port);
    EXPECT_GE(fd, 0);
    if (fd < 0)
        return {};
    writeAll(fd, request);
    const std::string response = readAll(fd);
    ::close(fd);
    return response;
}

} // namespace

TEST(MetricsHttp, ServesMetricsInExpositionFormat)
{
    MetricsRegistry reg;
    reg.addCollector(
        [](MetricsSink &sink) { sink.counter("up_total", {}, 3, "Up"); });
    MetricsHttpServer server(reg);
    ASSERT_TRUE(server.start()) << server.lastError();
    ASSERT_NE(server.port(), 0);

    const std::string response = roundTrip(
        server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos)
        << response;
    EXPECT_NE(response.find(
                  "Content-Type: text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(response.find("# TYPE up_total counter\n"),
              std::string::npos);
    EXPECT_NE(response.find("up_total 3\n"), std::string::npos);
    // Body length matches the Content-Length header's promise.
    const std::size_t split = response.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    const std::string head = response.substr(0, split);
    const std::size_t cl = head.find("Content-Length: ");
    ASSERT_NE(cl, std::string::npos);
    EXPECT_EQ(std::stoul(head.substr(cl + 16)),
              response.size() - split - 4);
    server.stop();
}

TEST(MetricsHttp, HealthzAnswersOk)
{
    MetricsRegistry reg;
    MetricsHttpServer server(reg);
    ASSERT_TRUE(server.start()) << server.lastError();
    const std::string response =
        roundTrip(server.port(), "GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("ok\n"), std::string::npos);
    server.stop();
    EXPECT_GE(server.requestsServed(), 1u);
}

TEST(MetricsHttp, ReassemblesPartialRequests)
{
    MetricsRegistry reg;
    reg.addCollector(
        [](MetricsSink &sink) { sink.gauge("g_now", {}, 9, "G"); });
    MetricsHttpServer server(reg);
    ASSERT_TRUE(server.start()) << server.lastError();

    const int fd = connectTo(server.port());
    ASSERT_GE(fd, 0);
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    // Dribble the request one byte at a time: the listener must
    // buffer until the blank line lands.
    for (const char ch : request) {
        writeAll(fd, std::string_view(&ch, 1));
        // A naive server would answer (or 400) a torn prefix.
    }
    const std::string response = readAll(fd);
    ::close(fd);
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("g_now 9\n"), std::string::npos);
    server.stop();
}

TEST(MetricsHttp, UnknownPathIs404)
{
    MetricsRegistry reg;
    MetricsHttpServer server(reg);
    ASSERT_TRUE(server.start()) << server.lastError();
    const std::string response = roundTrip(
        server.port(), "GET /favicon.ico HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("404"), std::string::npos);
    server.stop();
}

TEST(MetricsHttp, NonGetIs400)
{
    MetricsRegistry reg;
    MetricsHttpServer server(reg);
    ASSERT_TRUE(server.start()) << server.lastError();
    const std::string response = roundTrip(
        server.port(),
        "POST /metrics HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
    EXPECT_NE(response.find("400"), std::string::npos);
    server.stop();
}

TEST(MetricsHttp, ScrapeSeesLiveCollectorValues)
{
    MetricsRegistry reg;
    std::uint64_t sampled = 100;
    reg.addCollector([&sampled](MetricsSink &sink) {
        sink.counter("live_total", {}, double(sampled));
    });
    MetricsHttpServer server(reg);
    ASSERT_TRUE(server.start()) << server.lastError();

    std::string response = roundTrip(
        server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("live_total 100\n"),
              std::string::npos);
    sampled = 250;
    response = roundTrip(server.port(),
                         "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("live_total 250\n"),
              std::string::npos);
    server.stop();
}
