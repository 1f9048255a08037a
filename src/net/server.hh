/**
 * @file
 * The socket transport of the serving subsystem: a poll(2)-driven
 * TCP server hosting one KvService.
 *
 * Threading model: one acceptor thread owns the listening socket and
 * hands each accepted connection to a worker round-robin; each of N
 * worker threads runs its own poll loop over { its wake pipe, its
 * connections }. Workers share nothing but the KvService (whose data
 * path is the cache's own shard locking), so the transport adds no
 * locks on the request path.
 *
 * Robustness contract (exercised by tests/net/server_test.cc):
 *   - partial reads/writes: per-connection KvChannel reassembly and
 *     a pending-output buffer drained under POLLOUT;
 *   - backpressure: once a connection's pending output passes
 *     kOutputCap, the worker stops dispatching its buffered
 *     requests and stops polling it for input, so a client that
 *     pipelines without reading stalls in its own send buffer
 *     instead of growing server memory; the flush that brings the
 *     output back under the cap resumes the held requests in order;
 *   - EINTR: every syscall loop retries;
 *   - per-connection error isolation: a peer that sends garbage
 *     framing, dies mid-frame, or breaks its socket costs only its
 *     own connection;
 *   - graceful shutdown: stop() stops accepting, wakes every
 *     worker, flushes what the peers read within kDrainDeadline,
 *     closes all sockets and joins all threads, so a peer that never
 *     reads cannot hold it up.
 *
 * Bind with port 0 to get an ephemeral port (port() reports the
 * real one) — the test-suite and same-process bench default.
 */

#ifndef ADCACHE_NET_SERVER_HH
#define ADCACHE_NET_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/loopback.hh"
#include "net/service.hh"

namespace adcache::net
{

/** Configuration of a KvServer. */
struct KvServerConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; //!< 0 = ephemeral (see port())
    unsigned workers = 2;   //!< poll-loop worker threads
    int backlog = 64;
    /** TCP_NODELAY on accepted sockets. The server writes whole
     *  response batches in one flush, so Nagle can only delay them;
     *  off exists for experiments. */
    bool noDelay = true;
};

/** Poll-driven TCP server (see file comment). */
class KvServer
{
  public:
    /** Pending output past which a connection is backpressured
     *  (see file comment): its backlog stays below this plus one
     *  response frame. */
    static constexpr std::size_t kOutputCap = 256 * 1024;

    /** How long stop() keeps flushing pending output before it
     *  closes the connections that still hold some. */
    static constexpr std::chrono::milliseconds kDrainDeadline{500};

    KvServer(KvService &service, const KvServerConfig &config);
    ~KvServer();

    KvServer(const KvServer &) = delete;
    KvServer &operator=(const KvServer &) = delete;

    /**
     * Bind, listen and spawn the acceptor + workers.
     * @return false (with the reason in lastError()) on bind/listen
     *         failure.
     */
    bool start();

    /** Graceful shutdown; idempotent. */
    void stop();

    /** The bound port (after start(); resolves port 0 binds). */
    std::uint16_t port() const { return port_; }

    bool running() const
    {
        return running_.load(std::memory_order_seq_cst);
    }

    std::uint64_t
    connectionsAccepted() const
    {
        return counters_->accepted.load(std::memory_order_relaxed);
    }

    /** Transport counters, summed over all workers (monotonic for
     *  the server's lifetime; high-water is a running max). The rest
     *  are read through Stats v2 and registerMetrics(). */
    std::uint64_t bytesReceived() const;
    std::uint64_t bytesSent() const;
    std::uint64_t outBufHighWater() const;

    /**
     * Register the transport counters as a Stats-v2 provider on the
     * hosted service, so one Stats opcode answers for the whole
     * process (the ADCACHE_TRANSPORT_COUNTERS tags). Call once per
     * server; the provider shares ownership of the counters and
     * keeps answering (frozen) if the server is destroyed first.
     */
    void installStatsProvider();

    /** Scrape-time transport metrics (adcache_srv_*) in @p reg. The
     *  collector shares the counters like installStatsProvider(). */
    void registerMetrics(obs::MetricsRegistry &reg);

    const std::string &lastError() const { return lastError_; }

  private:
    /**
     * Reused per-connection output accumulator: KvChannel appends
     * response frames to @c data, the flush loop consumes from
     * @c head. A fully drained buffer resets to offset 0 keeping its
     * capacity, so the steady state allocates nothing per flush; a
     * consumed prefix a backpressured peer leaves behind is
     * compacted once it outgrows kCompactAt instead of being
     * memmoved on every partial write.
     */
    struct OutBuf
    {
        static constexpr std::size_t kCompactAt = 256 * 1024;

        std::string data;
        std::size_t head = 0; //!< consumed prefix of data

        bool empty() const { return head == data.size(); }
        std::size_t pending() const { return data.size() - head; }
        /** The out_limit KvChannel::ingest dispatches up to. */
        std::size_t limit() const { return head + kOutputCap; }
        bool full() const { return pending() >= kOutputCap; }
        const char *front() const { return data.data() + head; }

        void
        consume(std::size_t n)
        {
            head += n;
            if (head == data.size()) {
                data.clear();
                head = 0;
            } else if (head > kCompactAt) {
                data.erase(0, head);
                head = 0;
            }
        }
    };

    struct Conn
    {
        int fd = -1;
        std::unique_ptr<KvChannel> channel;
        OutBuf out; //!< bytes not yet written to the peer
        bool closing = false; //!< flush out, then close
    };

    /**
     * Transport counters (the sources of ADCACHE_TRANSPORT_COUNTERS),
     * heap-shared so the Stats-v2 provider and metrics collector
     * installed on the (longer-lived) service never dangle. Workers
     * update with relaxed RMWs off the per-event paths — never per
     * byte.
     */
    struct Counters
    {
        std::atomic<std::uint64_t> accepted{0};
        std::atomic<std::uint64_t> bytesIn{0};
        std::atomic<std::uint64_t> bytesOut{0};
        std::atomic<std::uint64_t> framesIn{0};
        /** send() hit EAGAIN: the peer backpressured us and the
         *  response tail parked in OutBuf until the next POLLOUT. */
        std::atomic<std::uint64_t> parks{0};
        std::atomic<std::uint64_t> outHighWater{0};

        void
        noteHighWater(std::uint64_t pending)
        {
            std::uint64_t cur =
                outHighWater.load(std::memory_order_relaxed);
            while (pending > cur &&
                   !outHighWater.compare_exchange_weak(
                       cur, pending, std::memory_order_relaxed)) {
            }
        }
    };

    struct Worker
    {
        std::thread thread;
        int wakeRead = -1; //!< pipe the acceptor pokes
        int wakeWrite = -1;
        std::mutex mtx;
        std::vector<int> inbox; //!< fds handed over by the acceptor
    };

    /** The transport rows, read from the counters. */
    static obs::CounterTable<Counters> transportCounterTable();

    void acceptLoop();
    void workerLoop(Worker &w);
    /** Pump one connection's socket; @return false to close it. */
    bool serviceConn(Conn &c, short revents);
    /** Read and dispatch until EAGAIN or a full OutBuf;
     *  @return false on a socket error. */
    bool readConn(Conn &c);
    /** Write pending output until it drains or the socket parks
     *  it; @return false on a socket error. */
    bool flushConn(Conn &c);
    static void closeFd(int fd);

    KvService &service_;
    KvServerConfig config_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::string lastError_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::shared_ptr<Counters> counters_;
    std::thread acceptor_;
    std::vector<std::unique_ptr<Worker>> workers_;
    unsigned nextWorker_ = 0; //!< acceptor-only round-robin cursor
};

} // namespace adcache::net

#endif // ADCACHE_NET_SERVER_HH
