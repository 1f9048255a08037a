#include "net/server.hh"

#include "obs/trace.hh"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace adcache::net
{

namespace
{

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

} // namespace

KvServer::KvServer(KvService &service, const KvServerConfig &config)
    : service_(service), config_(config),
      counters_(std::make_shared<Counters>())
{
    if (config_.workers == 0)
        config_.workers = 1;
}

std::uint64_t
KvServer::bytesReceived() const
{
    return counters_->bytesIn.load(std::memory_order_relaxed);
}

std::uint64_t
KvServer::bytesSent() const
{
    return counters_->bytesOut.load(std::memory_order_relaxed);
}

std::uint64_t
KvServer::outBufHighWater() const
{
    return counters_->outHighWater.load(std::memory_order_relaxed);
}

void
KvServer::installStatsProvider()
{
    service_.addStatsProvider(
        [c = counters_](std::vector<StatSample> &samples) {
            obs::forEachCounter(transportCounterTable(), *c, {}, 0,
                                [&](const obs::CounterSample &s) {
                                    appendSample(samples, s);
                                });
        });
}

void
KvServer::registerMetrics(obs::MetricsRegistry &reg)
{
    reg.addCollector([c = counters_](obs::MetricsSink &sink) {
        obs::forEachCounter(transportCounterTable(), *c, {}, 0,
                            [&](const obs::CounterSample &s) {
                                obs::collectSample(sink, s);
                            });
    });
}

obs::CounterTable<KvServer::Counters>
KvServer::transportCounterTable()
{
    using Value = obs::CounterValue<Counters>;
#define ADCACHE_VALUE_FIELD(f)                                            \
    Value{[](const Counters &c, unsigned) {                               \
        return c.f.load(std::memory_order_relaxed);                       \
    }}
    static constexpr Value values[] = {
        ADCACHE_TRANSPORT_COUNTERS(ADCACHE_COUNTER_VALUE)};
    return {obs::kTransportCounterRows, values};
}

KvServer::~KvServer()
{
    stop();
}

void
KvServer::closeFd(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

bool
KvServer::start()
{
    if (running_.load(std::memory_order_seq_cst))
        return true;
    stopping_.store(false, std::memory_order_seq_cst);

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        lastError_ = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(),
                    &addr.sin_addr) != 1) {
        lastError_ = "bad host address: " + config_.host;
        closeFd(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0) {
        lastError_ = std::string("bind: ") + std::strerror(errno);
        closeFd(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (::listen(listenFd_, config_.backlog) != 0) {
        lastError_ = std::string("listen: ") + std::strerror(errno);
        closeFd(listenFd_);
        listenFd_ = -1;
        return false;
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof bound;
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&bound),
                      &blen) == 0)
        port_ = ntohs(bound.sin_port);
    setNonBlocking(listenFd_);

    workers_.clear();
    for (unsigned i = 0; i < config_.workers; ++i) {
        auto w = std::make_unique<Worker>();
        int pipefd[2];
        if (::pipe(pipefd) != 0) {
            lastError_ =
                std::string("pipe: ") + std::strerror(errno);
            closeFd(listenFd_);
            listenFd_ = -1;
            for (auto &prev : workers_) {
                closeFd(prev->wakeRead);
                closeFd(prev->wakeWrite);
            }
            workers_.clear();
            return false;
        }
        w->wakeRead = pipefd[0];
        w->wakeWrite = pipefd[1];
        setNonBlocking(w->wakeRead);
        workers_.push_back(std::move(w));
    }

    running_.store(true, std::memory_order_seq_cst);
    for (auto &w : workers_) {
        Worker *wp = w.get();
        wp->thread = std::thread([this, wp] { workerLoop(*wp); });
    }
    acceptor_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
KvServer::stop()
{
    if (!running_.exchange(false, std::memory_order_seq_cst))
        return;
    stopping_.store(true, std::memory_order_seq_cst);
    // Wake everyone: shutting the listen socket down makes the
    // acceptor's poll return, and the workers block in poll on their
    // wake pipes.
    ::shutdown(listenFd_, SHUT_RDWR);
    for (auto &w : workers_) {
        const char byte = 1;
        for (;;) {
            const ssize_t n = ::write(w->wakeWrite, &byte, 1);
            if (n >= 0 || errno != EINTR)
                break;
        }
    }
    if (acceptor_.joinable())
        acceptor_.join();
    for (auto &w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
        closeFd(w->wakeRead);
        closeFd(w->wakeWrite);
        // Undispatched handoffs the worker never saw.
        for (int fd : w->inbox)
            closeFd(fd);
        w->inbox.clear();
    }
    workers_.clear();
    closeFd(listenFd_);
    listenFd_ = -1;
}

void
KvServer::acceptLoop()
{
    while (!stopping_.load(std::memory_order_seq_cst)) {
        pollfd pfd{};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        const int n = ::poll(&pfd, 1, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (!(pfd.revents & POLLIN))
            continue;
        for (;;) {
            const int fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd < 0) {
                if (errno == EINTR)
                    continue;
                break; // EAGAIN (or a transient error): re-poll
            }
            setNonBlocking(fd);
            if (config_.noDelay) {
                int one = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof one);
            }
            counters_->accepted.fetch_add(
                1, std::memory_order_relaxed);
            Worker &w = *workers_[nextWorker_];
            nextWorker_ = (nextWorker_ + 1) % workers_.size();
            {
                std::lock_guard<std::mutex> lock(w.mtx);
                w.inbox.push_back(fd);
            }
            const char byte = 1;
            for (;;) {
                const ssize_t written =
                    ::write(w.wakeWrite, &byte, 1);
                if (written >= 0 || errno != EINTR)
                    break;
            }
        }
    }
}

bool
KvServer::readConn(Conn &c)
{
    // Drain the socket per readable event while the output has room:
    // a pipelining client's burst of frames is decoded and serviced
    // here, and the responses land in c.out before the flush runs.
    obs::ScopedSpan span("srv.read");
    char buf[64 * 1024];
    while (!c.out.full()) {
        const ssize_t n = ::read(c.fd, buf, sizeof buf);
        if (n > 0) {
            counters_->bytesIn.fetch_add(std::uint64_t(n),
                                         std::memory_order_relaxed);
            if (!c.channel->ingest(std::string_view(buf, std::size_t(n)),
                                   &c.out.data, c.out.limit())) {
                // Corrupt framing: flush what we owe, then close
                // (error isolation — only this peer).
                c.closing = true;
                return true;
            }
            continue;
        }
        if (n == 0) {
            // Peer EOF. A partial trailing frame is a protocol
            // violation but, either way, flush-and-close.
            c.closing = true;
            return true;
        }
        if (errno == EINTR)
            continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    return true;
}

bool
KvServer::flushConn(Conn &c)
{
    // Partial writes advance the consumed head; the tail waits for
    // the next POLLOUT round. MSG_NOSIGNAL turns a peer that hung up
    // mid-flush into an EPIPE on this connection instead of a
    // process-wide SIGPIPE.
    obs::ScopedSpan span("srv.flush");
    counters_->noteHighWater(c.out.pending());
    while (!c.out.empty()) {
        const ssize_t n = ::send(c.fd, c.out.front(), c.out.pending(),
                                 MSG_NOSIGNAL);
        if (n > 0) {
            counters_->bytesOut.fetch_add(std::uint64_t(n),
                                          std::memory_order_relaxed);
            c.out.consume(std::size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            counters_->parks.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        return false; // EPIPE/ECONNRESET: only this peer dies
    }
    return true;
}

bool
KvServer::serviceConn(Conn &c, short revents)
{
    if (revents & (POLLERR | POLLNVAL))
        return false;
    const std::uint64_t framesBefore = c.channel->requestsHandled();
    bool readable = revents & (POLLIN | POLLHUP);
    for (;;) {
        // Requests held back by a full OutBuf go first, in order.
        if (!c.channel->ingest({}, &c.out.data, c.out.limit()))
            c.closing = true;
        if (readable && !c.closing && !c.out.full()) {
            if (!readConn(c))
                return false;
            readable = false;
        }
        if (!c.out.empty() && !flushConn(c))
            return false;
        // A drained flush with requests still held must serve them
        // now: no socket event would wake this connection for them.
        if (!c.out.empty() || !c.channel->holding())
            break;
    }
    counters_->framesIn.fetch_add(
        c.channel->requestsHandled() - framesBefore,
        std::memory_order_relaxed);
    return !(c.closing && c.out.empty());
}

void
KvServer::workerLoop(Worker &w)
{
    std::vector<Conn> conns;
    std::vector<pollfd> pfds;
    const auto close_all = [&] {
        for (Conn &c : conns)
            closeFd(c.fd);
        conns.clear();
    };

    std::chrono::steady_clock::time_point drain_until{};
    for (;;) {
        const bool stopping =
            stopping_.load(std::memory_order_seq_cst);
        if (stopping && conns.empty())
            break;
        int poll_ms = 100;
        if (stopping) {
            // Past the drain deadline, output a peer has not read is
            // dropped with its connection.
            const auto now = std::chrono::steady_clock::now();
            if (drain_until == decltype(drain_until){})
                drain_until = now + kDrainDeadline;
            if (now >= drain_until)
                break;
            const auto left =
                std::chrono::ceil<std::chrono::milliseconds>(
                    drain_until - now);
            poll_ms = int(std::min<std::int64_t>(poll_ms, left.count()));
        }

        pfds.clear();
        pollfd wake{};
        wake.fd = w.wakeRead;
        wake.events = POLLIN;
        pfds.push_back(wake);
        for (const Conn &c : conns) {
            pollfd p{};
            p.fd = c.fd;
            // A full OutBuf is backpressure: wait for the peer to
            // read before taking more of its requests.
            p.events = c.out.full() ? 0 : POLLIN;
            if (!c.out.empty())
                p.events |= POLLOUT;
            pfds.push_back(p);
        }

        const int n =
            ::poll(pfds.data(), nfds_t(pfds.size()), poll_ms);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            close_all();
            break;
        }

        if (pfds[0].revents & POLLIN) {
            char drain[64];
            for (;;) {
                const ssize_t r =
                    ::read(w.wakeRead, drain, sizeof drain);
                if (r > 0)
                    continue;
                if (r < 0 && errno == EINTR)
                    continue;
                break;
            }
        }
        {
            std::lock_guard<std::mutex> lock(w.mtx);
            for (int fd : w.inbox) {
                Conn c;
                c.fd = fd;
                c.channel = std::make_unique<KvChannel>(service_);
                conns.push_back(std::move(c));
            }
            w.inbox.clear();
        }

        if (stopping_.load(std::memory_order_seq_cst)) {
            // Graceful: stop reading, flush what is owed, close.
            for (Conn &c : conns)
                c.closing = true;
        }

        // pfds[i + 1] pairs conns[i]; iterate backwards so erase()
        // keeps earlier pairings intact.
        for (std::size_t i = conns.size(); i-- > 0;) {
            const short revents =
                i + 1 < pfds.size() ? pfds[i + 1].revents : 0;
            Conn &c = conns[i];
            const bool keep =
                serviceConn(c, stopping ? (revents | POLLOUT)
                                        : revents);
            if (!keep || (stopping && c.out.empty())) {
                closeFd(c.fd);
                conns.erase(conns.begin() + long(i));
            }
        }
    }
    close_all();
}

} // namespace adcache::net
