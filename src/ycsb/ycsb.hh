/**
 * @file
 * YCSB-style multi-client benchmark driver for the serving
 * subsystem. Implements the core workload mixes A–F of Cooper et
 * al.'s Yahoo! Cloud Serving Benchmark over either transport — the
 * deterministic in-process loopback or real sockets — against a
 * KvService hosting an AdaptiveKvCache:
 *
 *   A  update-heavy   50% read / 50% update        Zipf
 *   B  read-heavy     95% read /  5% update        Zipf
 *   C  read-only     100% read                     Zipf
 *   D  read-latest    95% read /  5% insert        latest-window
 *   E  short-ranges   95% scan /  5% insert        Zipf start rank
 *   F  read-mod-write 50% read / 50% RMW           Zipf
 *
 * The run has the classic two phases. The LOAD phase warms the store:
 * each client owns a disjoint slice of the record space
 * (KeyStreamSpec::forClient with disjoint = true) and PUTs every
 * record it owns. The RUN phase issues each client's op mix from a
 * seeded per-client KeyStream (same key population across clients —
 * the rank-to-key mapping is seed-independent), timing every op once
 * into per-op-class obs::LatencyHistogram instances that all clients
 * share, so the reported p50/p95/p99/p999 are fleet-wide.
 *
 * Scenario injection (docs/SERVING.md): at a configurable fraction of
 * the run each client flips into the scenario regime — a hot-key
 * storm (a fraction of reads collapse onto the top-ranked key),
 * a backend slowdown (the service's read-through loader stalls; this
 * is what the SLO gate's fail-closed demonstration drives), or shard
 * loss (requests routed to dead shards answer Error).
 *
 * SLO mode: YcsbResult::readP99Ns() against a budget is the
 * fail-closed gate perf_regress --slo enforces.
 */

#ifndef ADCACHE_YCSB_YCSB_HH
#define ADCACHE_YCSB_YCSB_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/latency.hh"
#include "workloads/key_stream.hh"

namespace adcache
{
class StatRegistry;
}

namespace adcache::net
{
class KvService;
}

namespace adcache::ycsb
{

/** Operation classes latencies are reported per. */
enum class OpClass : unsigned
{
    Read = 0,
    Update = 1,
    Insert = 2,
    Scan = 3,
    ReadModifyWrite = 4,
    Delete = 5,
    /** Pipelined read batch (YcsbConfig::pipelineDepth > 1): one
     *  latency sample per batch, ops counted per key. */
    MGet = 6,
};

inline constexpr unsigned kNumOpClasses = 7;

/** Canonical lower-case name ("read", "rmw", ...). */
const char *opClassName(OpClass c);

/** Mid-run scenario injections. */
enum class Scenario
{
    None,
    HotKeyStorm,     //!< reads collapse onto the top-ranked key
    BackendSlowdown, //!< read-through loader stalls (needs service)
    ShardLoss,       //!< dead shards answer Error (needs service)
};

const char *scenarioName(Scenario s);

/**
 * Transport abstraction the driver issues ops through. Both bundled
 * transports implement it: see makeLoopbackConnection() and
 * makeSocketConnection(). One connection per client thread.
 */
class Connection
{
  public:
    virtual ~Connection() = default;

    virtual std::optional<std::string> get(std::uint64_t key) = 0;
    virtual bool put(std::uint64_t key, std::string_view value,
                     std::uint32_t ttl) = 0;
    virtual bool del(std::uint64_t key) = 0;

    /**
     * Batched read: out[i] answers keys[i]. The default loops get()
     * so every transport supports pipelined mode; both bundled
     * transports override it with one MGet round trip.
     */
    virtual std::vector<std::optional<std::string>>
    mget(const std::vector<std::uint64_t> &keys)
    {
        std::vector<std::optional<std::string>> out;
        out.reserve(keys.size());
        for (const std::uint64_t key : keys)
            out.push_back(get(key));
        return out;
    }
};

/** In-process connection straight into @p service. */
std::unique_ptr<Connection>
makeLoopbackConnection(net::KvService &service);

/** Socket connection to @p host:@p port (null on connect failure). */
std::unique_ptr<Connection>
makeSocketConnection(const std::string &host, std::uint16_t port);

/** Parameters of one YCSB run. */
struct YcsbConfig
{
    char workload = 'a'; //!< 'a'..'f'

    /** Records in the dataset: request ranks draw from [0, records).
     *  The canonical paper setting is ~10M with Zipf 0.99. */
    std::uint64_t records = 1 << 20;

    /**
     * Records PUT during the load phase (0 = min(records, 64K)).
     * A cache is not a store: loading more than the cache holds only
     * burns time, so the load phase warms the top of the popularity
     * ranking and the read-through loader backs the rest.
     */
    std::uint64_t loadRecords = 0;

    std::uint64_t opsPerClient = 100'000;
    unsigned clients = 4;

    double zipfSkew = 0.99;

    /** Value payload sizes (variable when min < max). */
    ValueSpec values{100, 100};

    /** TTL stamped on every put, in cache clock ticks (0 = never).
     *  When nonzero the driver advances the service cache's logical
     *  clock every clockEvery ops so entries actually lapse. */
    std::uint32_t ttl = 0;
    std::uint64_t clockEvery = 64;

    /** Fraction of ops carved out of the mix as DELETEs. */
    double deleteRatio = 0.0;

    /** Workload E: GETs per scan run. */
    std::uint64_t scanLen = 16;

    /** Workload D: recency window reads draw over. */
    std::uint64_t latestWindow = 1 << 16;

    /**
     * Read-class pipelining: when > 1, each Read draw issues a batch
     * of this many keys through Connection::mget (one round trip on
     * both bundled transports) and is timed into OpClass::MGet —
     * one latency sample per batch, ops counted per key. 1 = the
     * classic one-get-per-op driver.
     */
    unsigned pipelineDepth = 1;

    /** Validate the identity header of every read value. */
    bool validate = true;

    std::uint64_t seed = 1;

    Scenario scenario = Scenario::None;
    /** Fraction of each client's ops after which the scenario arms. */
    double scenarioAt = 0.5;
    /** HotKeyStorm: fraction of post-trigger reads on the hot key. */
    double hotFraction = 0.5;
    /** BackendSlowdown: loader stall armed at the trigger. */
    std::uint32_t slowdownUs = 1000;
    /** ShardLoss: dead-shard mask armed at the trigger. */
    std::uint64_t deadShardMask = 1;

    /** "A" .. "F" with the headline mix, for reports. */
    std::string describe() const;
};

/** Per-op-class outcome. */
struct OpClassResult
{
    std::uint64_t ops = 0;
    /** NotFound / refused ops (expected under scenarios). */
    std::uint64_t failures = 0;
    obs::LatencySnapshot latency;
};

/** Outcome of one YCSB run. */
struct YcsbResult
{
    double loadSeconds = 0;
    double runSeconds = 0;
    std::uint64_t loadOps = 0;
    std::uint64_t runOps = 0;
    /** Error responses observed (shard loss / transport trouble). */
    std::uint64_t errors = 0;
    /** Reads whose value failed identity validation. */
    std::uint64_t validationFailures = 0;

    std::array<OpClassResult, kNumOpClasses> classes{};

    const OpClassResult &
    of(OpClass c) const
    {
        return classes[unsigned(c)];
    }

    double opsPerSec() const;

    /**
     * The SLO metric: p99 over the read-dominated op class (Read,
     * falling back to MGet under pipelining, then Scan for workload
     * E). 0 when nothing ran.
     */
    double readP99Ns() const;

    /**
     * Register ops/s plus per-op-class count / failures /
     * p50/p95/p99/p999 under @p reg — the standard report path.
     */
    void registerInto(StatRegistry &reg) const;
};

/** Multi-client load + run driver (see file comment). */
class YcsbDriver
{
  public:
    /** Makes client @p index's connection (called on the client's
     *  own thread for socket transports' sake). */
    using ConnectionFactory =
        std::function<std::unique_ptr<Connection>(unsigned index)>;

    /**
     * @param service the served instance, for scenario injection and
     *        clock advancement; may be null for a remote-only client
     *        (then BackendSlowdown/ShardLoss/TTL-clock are inert).
     */
    YcsbDriver(const YcsbConfig &config, net::KvService *service,
               ConnectionFactory factory);

    /** Execute the load phase then the run phase. */
    YcsbResult run();

  private:
    YcsbConfig config_;
    net::KvService *service_;
    ConnectionFactory factory_;
};

} // namespace adcache::ycsb

#endif // ADCACHE_YCSB_YCSB_HH
