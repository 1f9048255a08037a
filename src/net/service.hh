/**
 * @file
 * KvService: the transport-independent request handler of the
 * serving subsystem. Both transports — the loopback channel and the
 * socket server's connections — decode frames into MessageViews and
 * pass them to serve(), which maps each request onto the hosted
 * AdaptiveKvCache and encodes the response frame in place at the end
 * of the connection's output buffer: a GET hit's value is copied
 * once, from the cache into the frame.
 *
 * The service is thread-safe by construction: the cache's own
 * shard locking carries the data path, the scenario knobs are plain
 * atomics and the request counters are per-thread cells, so any
 * number of transport threads may call serve() concurrently.
 *
 * Scenario injection (the failure catalog of docs/SERVING.md):
 *
 *  - backend slowdown: setFetchDelayUs() makes the read-through
 *    loader stall, modelling a slow backing store behind the cache
 *    (this is what drives the SLO gate's fail-closed demonstration);
 *  - shard loss: setDeadShardMask() fails every request routed to a
 *    dead shard with an Error response, without touching the cache —
 *    clients observe partial unavailability while other shards keep
 *    serving.
 */

#ifndef ADCACHE_NET_SERVICE_HH
#define ADCACHE_NET_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "kv/adaptive_kv_cache.hh"
#include "net/protocol.hh"
#include "net/stats_v2.hh"
#include "obs/latency.hh"
#include "obs/metrics.hh"
#include "workloads/key_stream.hh"

namespace adcache::net
{

/** Configuration of a KvService. */
struct KvServiceConfig
{
    /** Shape of the hosted cache. */
    kv::KvConfig cache;

    /**
     * Serve GET misses through the read-through loader (a miss
     * fetches the backend value derived from the key and admits it
     * per Algorithm 1). Off, a GET miss answers NotFound.
     */
    bool readThrough = true;

    /** Payload shape of read-through loads. */
    ValueSpec loaderValues{};

    /** TTL stamped on read-through loads (clock ticks; 0 = never). */
    std::uint32_t loaderTtl = 0;

    /**
     * Slow-request log: a request whose handle() time exceeds this
     * budget emits one structured line to logSink (0 = disabled).
     * The log is the "which op blew the SLO" companion to the
     * latency histogram's "how often".
     */
    std::uint64_t slowRequestBudgetNs = 0;

    /** Receives slow-request lines; defaults to stderr. */
    std::function<void(const std::string &)> logSink;
};

/** Transport-independent request handler (see file comment). */
class KvService
{
  public:
    explicit KvService(const KvServiceConfig &config);

    KvService(const KvService &) = delete;
    KvService &operator=(const KvService &) = delete;

    /**
     * Serve one decoded request: its response frame is appended to
     * @p out (always exactly one frame). The one dispatch both
     * transports and handle() run.
     */
    void serve(const MessageView &request, std::string *out);

    /** serve() for an owned request, answering an owned response. */
    Message handle(const Message &request);

    kv::AdaptiveKvCache &cache() { return cache_; }
    const kv::AdaptiveKvCache &cache() const { return cache_; }

    const KvServiceConfig &config() const { return config_; }

    /** Backend-slowdown scenario: read-through loads stall this
     *  long (0 = healthy backend). */
    void
    setFetchDelayUs(std::uint32_t us)
    {
        fetchDelayUs_.store(us, std::memory_order_seq_cst);
    }

    std::uint32_t
    fetchDelayUs() const
    {
        return fetchDelayUs_.load(std::memory_order_seq_cst);
    }

    /** Shard-loss scenario: requests routed to a shard whose bit is
     *  set answer Error (0 = all shards healthy). */
    void
    setDeadShardMask(std::uint64_t mask)
    {
        deadShardMask_.store(mask, std::memory_order_seq_cst);
    }

    std::uint64_t
    deadShardMask() const
    {
        return deadShardMask_.load(std::memory_order_seq_cst);
    }

    /** Requests served, by terminal status. */
    std::uint64_t requestsServed() const;
    std::uint64_t errorsAnswered() const;

    /** Requests served carrying @p kind (request kinds only). */
    std::uint64_t opCount(MsgKind kind) const;

    /**
     * STATS v1 payload: "name value" lines — run metadata first
     * ("run.git_sha" etc., so a captured dump identifies its build),
     * then the cache's aggregate AND per-shard counters, then the
     * service's own.
     */
    std::string statsText() const;

    /** STATS v2 payload (see net/stats_v2.hh). */
    std::string statsV2() const;

    /**
     * Extra Stats-v2 samples from outside the service — the socket
     * server registers its transport counters here so one opcode
     * answers for the whole process. Providers run on every
     * statsV2() call; they must be thread-safe.
     */
    using StatsProvider =
        std::function<void(std::vector<StatSample> &)>;
    void addStatsProvider(StatsProvider fn);

    /**
     * Register the service (and its cache) as scrape-time
     * collectors in @p reg: request/error/per-opcode counters,
     * request latency p50/p99 gauges, cache counters per
     * AdaptiveKvCache::registerMetrics. Hot-path cost is zero — the
     * collector sums the per-thread cells serve() counts into.
     */
    void registerMetrics(obs::MetricsRegistry &reg);

    /** Latency of every request served so far; safe while requests
     *  run. */
    obs::LatencySnapshot
    requestLatency() const
    {
        return requestLatency_.snapshot();
    }

  private:
    bool shardDead(kv::KvKey key) const;
    void serveInner(const MessageView &request, std::string *out);
    /** MGet: one in-order batch probe + read-through backfill. */
    void serveMGet(const MessageView &request, std::string *out);
    /** Count an Error answer and append its frame. */
    void answerError(std::string_view text, std::string *out);
    /** The read-through loader for @p key (the "backend"). */
    std::string load(kv::KvKey key, std::uint32_t delay_us) const;

    KvServiceConfig config_;
    kv::AdaptiveKvCache cache_;
    std::atomic<std::uint32_t> fetchDelayUs_{0};
    std::atomic<std::uint64_t> deadShardMask_{0};

    /** Counter cells: requests, errors, then one per raw request
     *  opcode (Get=1 .. MGet=6). */
    static constexpr unsigned kRequests = 0;
    static constexpr unsigned kErrors = 1;
    static constexpr unsigned kOpBase = 2;
    static constexpr unsigned kOpSlots = 8;
    obs::ThreadCounters<kOpBase + kOpSlots> counts_;

    /** handle() time of every request, recorded per thread. */
    obs::LatencyHistogram requestLatency_;

    mutable std::mutex providersMtx_;
    std::vector<StatsProvider> providers_;
};

} // namespace adcache::net

#endif // ADCACHE_NET_SERVICE_HH
