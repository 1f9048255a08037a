/**
 * @file
 * The counter schema of the served cache (docs/OBSERVABILITY.md,
 * "Counter schema"). Every KV-cache, service, transport, trace-health
 * and adaptation-drift counter is one row of the X-macro tables below,
 * and every export plane — the v1 STATS text and the StatRegistry
 * reports (one registry), Stats v2 and Prometheus — is a loop over the
 * rows (forEachCounter), so a counter has one name per plane and one
 * value in all of them.
 *
 * A row is X(value, v1, tag, scope[, prom[, shard_prom]]):
 *  - value: FIELD(member) of the owner's source `s` (KV rows declare
 *    the KvShardStats member), COMPONENTS(per-component member),
 *    FORMULA(expression) or RATIO(fraction; parts per million on v2);
 *  - v1: V1(name), V1_IF_ADMISSION(name) or NO_V1; "%s" is the
 *    component name, and the caller supplies the prefix;
 *  - tag: TAG(StatTag enumerator, number, statTagName) or NO_TAG;
 *    Stats v2 tags are append-only;
 *  - scope: Global, Sharded (global plus one per shard) or ShardOnly;
 *  - prom, shard_prom: the families of the global and the per-shard
 *    samples: COUNTER(name, help[, label, value]), GAUGE(name, help)
 *    or NO_PROM.
 */

#ifndef ADCACHE_OBS_COUNTER_TABLE_HH
#define ADCACHE_OBS_COUNTER_TABLE_HH

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>

#include "obs/metrics.hh"
#include "util/stat_registry.hh"

// clang-format off

/** KV-cache rows, in v1 order. */
#define ADCACHE_KV_COUNTERS(X)                                               \
    X(FIELD(shardCount), NO_V1, TAG(ShardCount, 1, "shard_count"), Global)   \
    X(FIELD(clockNow), NO_V1, TAG(ClockNow, 5, "clock_now"), Global)         \
    X(FIELD(references), V1("references"),                                   \
      TAG(References, 16, "references"), Sharded,                            \
      COUNTER("adcache_kv_references_total",                                 \
              "Filling references (fetch/put)"))                             \
    X(FIELD(hits), V1("hits"), NO_TAG, Sharded,                              \
      COUNTER("adcache_kv_hits_total", "Filling-reference hits"))            \
    X(FIELD(misses), V1("misses"), NO_TAG, Sharded,                          \
      COUNTER("adcache_kv_misses_total", "Filling-reference misses"))        \
    X(FIELD(gets), V1("gets"), TAG(Gets, 19, "gets"), Sharded,               \
      COUNTER("adcache_kv_gets_total", "Non-filling probes"))                \
    X(FIELD(getHits), V1("get_hits"), TAG(GetHits, 20, "get_hits"),          \
      Sharded,                                                               \
      COUNTER("adcache_kv_get_hits_total", "Non-filling probe hits"))        \
    X(FIELD(inserts), V1("inserts"), NO_TAG, Sharded)                        \
    X(FIELD(updates), V1("updates"), NO_TAG, Sharded)                        \
    X(FIELD(evictions), V1("evictions"), TAG(Evictions, 21, "evictions"),    \
      Sharded, COUNTER("adcache_kv_evictions_total", "Entries evicted"),     \
      COUNTER("adcache_kv_shard_evictions_total", ""))                       \
    X(FIELD(directedEvictions), V1("directed_evictions"), NO_TAG, Sharded)   \
    X(FIELD(fallbackEvictions), V1("fallback_evictions"), NO_TAG, Sharded)   \
    X(FIELD(rejected), V1("rejected_puts"), NO_TAG, Sharded)                 \
    X(FIELD(erases), V1("erases"), NO_TAG, Sharded)                          \
    X(FIELD(expirations), V1("expirations"),                                 \
      TAG(Expirations, 23, "expirations"), Sharded,                          \
      COUNTER("adcache_kv_expirations_total", "Lazy TTL removals"))          \
    X(FIELD(readRetries), V1("read_retries"),                                \
      TAG(ReadRetries, 24, "read_retries"), Sharded,                         \
      COUNTER("adcache_kv_read_retries_total",                               \
              "Optimistic reads that re-walked a bucket"))                   \
    X(FIELD(slowProbes), V1("slow_probes"),                                  \
      TAG(SlowProbes, 25, "slow_probes"), Sharded,                           \
      COUNTER("adcache_kv_slow_probes_total",                                \
              "Reads that fell back to the shard mutex"))                    \
    X(FIELD(diffMisses), V1("diff_misses"),                                  \
      TAG(DiffMisses, 27, "diff_misses"), Sharded,                           \
      COUNTER("adcache_kv_diff_misses_total",                                \
              "Leader references where the components disagreed"),           \
      COUNTER("adcache_kv_shard_diff_misses_total", ""))                     \
    X(COMPONENTS(decisions), V1("decisions.%s"), NO_TAG, Sharded)            \
    X(COMPONENTS(shadowMisses), V1("shadow.%s.misses"), NO_TAG, Sharded)     \
    X(FIELD(selectionFlips), V1("selection_flips"),                          \
      TAG(SelectionFlips, 26, "selection_flips"), Sharded,                   \
      COUNTER("adcache_kv_selection_flips_total",                            \
              "Winner changes, all shards"),                                 \
      COUNTER("adcache_kv_shard_selection_flips_total", ""))                 \
    X(FIELD(admitRejects), V1_IF_ADMISSION("admit_rejects"),                 \
      TAG(AdmitRejects, 22, "admit_rejects"), Sharded,                       \
      COUNTER("adcache_kv_admit_rejects_total",                              \
              "Candidates the admission filter refused"))                    \
    X(FIELD(size), V1("size"), TAG(Size, 3, "size"), Sharded,                \
      GAUGE("adcache_kv_size", "Resident entries"))                          \
    X(FIELD(pinned), V1("pinned"), TAG(Pinned, 4, "pinned"), Sharded,        \
      GAUGE("adcache_kv_pinned", "Pinned entries"))                          \
    X(FIELD(capacity), V1("capacity"), TAG(Capacity, 2, "capacity"),         \
      Global, GAUGE("adcache_kv_capacity", "Configured capacity in entries")) \
    X(FIELD(winner), NO_V1, TAG(Winner, 28, "winner"), ShardOnly, NO_PROM,   \
      GAUGE("adcache_kv_shard_winner",                                       \
            "Component ordinal of the shard's winner"))                      \
    X(FORMULA(s.hits + s.getHits), NO_V1, TAG(Hits, 17, "hits"), Sharded,    \
      NO_PROM, COUNTER("adcache_kv_shard_hits_total", ""))                   \
    X(FORMULA(s.misses + (s.gets - s.getHits)), NO_V1,                       \
      TAG(Misses, 18, "misses"), Sharded, NO_PROM,                           \
      COUNTER("adcache_kv_shard_misses_total", ""))                          \
    X(RATIO(s.hitRate()), V1("hit_rate"),                                    \
      TAG(HitRatePpm, 29, "hit_rate_ppm"), Sharded,                          \
      GAUGE("adcache_kv_hit_rate", "Combined hit rate since start"),         \
      GAUGE("adcache_kv_shard_hit_rate", ""))

/** Request-handler rows; the source is the KvService. */
#define ADCACHE_SERVICE_COUNTERS(X)                                          \
    X(FORMULA(s.requestsServed()), V1("net.requests"),                       \
      TAG(Requests, 48, "requests"), Global,                                 \
      COUNTER("adcache_net_requests_total", "Requests served (any status)")) \
    X(FORMULA(s.errorsAnswered()), V1("net.errors"),                         \
      TAG(Errors, 49, "errors"), Global,                                     \
      COUNTER("adcache_net_errors_total", "Requests answered with Error"))   \
    X(FORMULA(s.opCount(MsgKind::Get)), V1("net.op.get"),                    \
      TAG(OpGet, 50, "op_get"), Global, ADCACHE_NET_OP("get"))               \
    X(FORMULA(s.opCount(MsgKind::Put)), V1("net.op.put"),                    \
      TAG(OpPut, 51, "op_put"), Global, ADCACHE_NET_OP("put"))               \
    X(FORMULA(s.opCount(MsgKind::Del)), V1("net.op.del"),                    \
      TAG(OpDel, 52, "op_del"), Global, ADCACHE_NET_OP("del"))               \
    X(FORMULA(s.opCount(MsgKind::Ping)), V1("net.op.ping"),                  \
      TAG(OpPing, 53, "op_ping"), Global, ADCACHE_NET_OP("ping"))            \
    X(FORMULA(s.opCount(MsgKind::Stats)), V1("net.op.stats"),                \
      TAG(OpStats, 54, "op_stats"), Global, ADCACHE_NET_OP("stats"))         \
    X(FORMULA(s.opCount(MsgKind::MGet)), V1("net.op.mget"),                  \
      TAG(OpMGet, 55, "op_mget"), Global, ADCACHE_NET_OP("mget"))            \
    X(FORMULA(s.requestLatency().percentileNs(0.50)), NO_V1,                 \
      TAG(RequestP50Ns, 56, "request_p50_ns"), Global,                       \
      GAUGE("adcache_net_request_p50_ns",                                    \
            "Request latency median (bucket upper edge)"))                   \
    X(FORMULA(s.requestLatency().percentileNs(0.99)), NO_V1,                 \
      TAG(RequestP99Ns, 57, "request_p99_ns"), Global,                       \
      GAUGE("adcache_net_request_p99_ns",                                    \
            "Request latency p99 (bucket upper edge)"))

/** The opcode rows share one Prometheus family, labelled by op. */
#define ADCACHE_NET_OP(op)                                                   \
    COUNTER("adcache_net_op_total", "Requests by opcode", "op", op)

/** Socket-transport rows; the source is KvServer's atomic counters
 *  (absent on loopback-only setups). */
#define ADCACHE_TRANSPORT_COUNTERS(X)                                        \
    X(FIELD(accepted), NO_V1, TAG(Connections, 64, "connections"), Global,   \
      COUNTER("adcache_srv_connections_total", "Connections accepted"))      \
    X(FIELD(framesIn), NO_V1, TAG(FramesIn, 65, "frames_in"), Global,        \
      COUNTER("adcache_srv_frames_in_total",                                 \
              "Request frames decoded off sockets"))                         \
    X(FIELD(bytesIn), NO_V1, TAG(BytesIn, 66, "bytes_in"), Global,           \
      COUNTER("adcache_srv_bytes_in_total", "Bytes read off sockets"))       \
    X(FIELD(bytesOut), NO_V1, TAG(BytesOut, 67, "bytes_out"), Global,        \
      COUNTER("adcache_srv_bytes_out_total", "Bytes written to sockets"))    \
    X(FIELD(parks), NO_V1,                                                   \
      TAG(BackpressureParks, 68, "backpressure_parks"), Global,              \
      COUNTER("adcache_srv_backpressure_parks_total",                        \
              "Response flushes parked on a full socket"))                   \
    X(FIELD(outHighWater), NO_V1,                                            \
      TAG(OutBufHighWater, 69, "outbuf_high_water"), Global,                 \
      GAUGE("adcache_srv_outbuf_high_water_bytes",                           \
            "Largest pending output buffer seen"))

/** Trace-plane health; the source is a drop count (one ring's, or all
 *  rings' for the global sample). */
#define ADCACHE_TRACE_COUNTERS(X)                                            \
    X(FORMULA(kTraceCompiled ? 1 : 0), NO_V1,                                \
      TAG(TraceCompiled, 80, "trace_compiled"), Global,                      \
      GAUGE("adcache_trace_compiled",                                        \
            "Whether ADCACHE_TRACE instrumentation is compiled in"))         \
    X(FORMULA(traceEnabled() ? 1 : 0), NO_V1,                                \
      TAG(TraceEnabled, 81, "trace_enabled"), Global,                        \
      GAUGE("adcache_trace_enabled",                                         \
            "Whether decision-event tracing is live"))                       \
    X(FORMULA(s), NO_V1, TAG(TraceDrops, 82, "trace_drops"), Sharded,        \
      NO_PROM, COUNTER("adcache_trace_dropped_total",                        \
                       "Trace events dropped per ring since the last reset"))

/** Adaptation-drift rows; the source is the TelemetryPump's state (a
 *  shard's EWMAs, or the crossing count for the global sample). */
#define ADCACHE_DRIFT_COUNTERS(X)                                            \
    X(RATIO(s.flipEwma), NO_V1, NO_TAG, ShardOnly, NO_PROM,                  \
      GAUGE("adcache_kv_drift_flip_ewma",                                    \
            "EWMA of per-op winner-flip rate"))                              \
    X(RATIO(s.diffMissEwma), NO_V1, NO_TAG, ShardOnly, NO_PROM,              \
      GAUGE("adcache_kv_drift_diffmiss_ewma",                                \
            "EWMA of per-op differentiating-miss rate"))                     \
    X(FIELD(events), NO_V1, NO_TAG, Global,                                  \
      COUNTER("adcache_kv_drift_events_total",                               \
              "Adaptation-drift threshold crossings (both signals)"))

// clang-format on

/* Column dispatch: a use of the tables pastes a prefix onto a column's
 * head token (FIELD, V1, TAG, ...) and defines only the
 * ADCACHE_<use>_<head> macros it needs. */
#define ADCACHE_ROW_FIELD(f) false, false
#define ADCACHE_ROW_COMPONENTS(f) true, false
#define ADCACHE_ROW_FORMULA(e) false, false
#define ADCACHE_ROW_RATIO(e) false, true
#define ADCACHE_ROW_V1(name) name, false
#define ADCACHE_ROW_V1_IF_ADMISSION(name) name, true
#define ADCACHE_ROW_NO_V1 nullptr, false
#define ADCACHE_ROW_TAG(enumerator, number, name) number, name
#define ADCACHE_ROW_NO_TAG 0, nullptr
#define ADCACHE_COUNTER_ROW(value, v1, tag, scope, ...)                     \
    counterRow(ADCACHE_ROW_##v1, ADCACHE_ROW_##value, ADCACHE_ROW_##tag,   \
               CounterScope::scope __VA_OPT__(, ) __VA_ARGS__),

/** A use's value column: "ADCACHE_VALUE_<head>(...),". */
#define ADCACHE_COUNTER_VALUE(value, ...) ADCACHE_VALUE_##value,

namespace adcache::obs
{

/** Which samples a row has (see the file comment). */
enum class CounterScope : std::uint8_t
{
    Global,
    Sharded,
    ShardOnly,
};

/** A Prometheus family a row feeds; name == nullptr = none. */
struct CounterFamily
{
    MetricKind kind = MetricKind::Counter;
    const char *name = nullptr;
    const char *help = "";
    const char *labelKey = nullptr; //!< optional fixed label
    const char *labelValue = nullptr;
};

/** One row's names and shape. */
struct CounterRow
{
    const char *v1 = nullptr;
    bool v1IfAdmission = false;
    bool perComponent = false;
    bool ratio = false;
    std::uint16_t tag = 0; //!< 0 = not on Stats v2
    const char *tagName = nullptr;
    CounterScope scope = CounterScope::Global;
    CounterFamily prom, shardProm;
};

/** A row of the tables, which may leave out their prom columns. */
constexpr CounterRow
counterRow(const char *v1, bool v1_if_admission, bool per_component,
           bool ratio, std::uint16_t tag, const char *tag_name,
           CounterScope scope, CounterFamily prom = {},
           CounterFamily shard_prom = {})
{
    return {v1,       v1_if_admission, per_component, ratio, tag,
            tag_name, scope,           prom,          shard_prom};
}

#define COUNTER(name, help, ...)                                            \
    CounterFamily{MetricKind::Counter, name, help __VA_OPT__(, ) __VA_ARGS__}
#define GAUGE(name, help) CounterFamily{MetricKind::Gauge, name, help}
#define NO_PROM CounterFamily{}
inline constexpr CounterRow kKvCounterRows[] = {
    ADCACHE_KV_COUNTERS(ADCACHE_COUNTER_ROW)};
inline constexpr CounterRow kServiceCounterRows[] = {
    ADCACHE_SERVICE_COUNTERS(ADCACHE_COUNTER_ROW)};
inline constexpr CounterRow kTransportCounterRows[] = {
    ADCACHE_TRANSPORT_COUNTERS(ADCACHE_COUNTER_ROW)};
inline constexpr CounterRow kTraceCounterRows[] = {
    ADCACHE_TRACE_COUNTERS(ADCACHE_COUNTER_ROW)};
inline constexpr CounterRow kDriftCounterRows[] = {
    ADCACHE_DRIFT_COUNTERS(ADCACHE_COUNTER_ROW)};
#undef NO_PROM
#undef GAUGE
#undef COUNTER

/** Not a counter: the winner-ordinal to policy-name decoder ring, one
 *  gauge (value 1) per component, labelled ordinal and policy. */
inline constexpr CounterFamily kKvComponentInfo{
    MetricKind::Gauge, "adcache_kv_component_info",
    "Winner-ordinal to policy-name mapping"};

/** How the owning layer reads one row from its source @p Src. */
template <class Src>
struct CounterValue
{
    std::uint64_t (*count)(const Src &, unsigned component) = nullptr;
    double (*ratio)(const Src &) = nullptr; //!< RATIO rows
};

/** A group's rows, and how its owner reads them. */
template <class Src>
struct CounterTable
{
    std::span<const CounterRow> rows;
    std::span<const CounterValue<Src>> values;
};

/** One sample of one row, as every plane exports it. */
struct CounterSample
{
    const CounterRow &row;
    int shard;           //!< -1 = the global sample
    unsigned component;  //!< COMPONENTS rows
    std::uint64_t count; //!< RATIO rows: parts per million
    double value;
};

/**
 * Visit every sample of @p table: each of @p shards' per-shard rows,
 * then @p total's global rows, in table order; a run of COMPONENTS
 * rows is visited component by component.
 */
template <class Src, class Fn>
void
forEachCounter(const CounterTable<Src> &table, const Src &total,
               std::span<const Src> shards, unsigned components, Fn &&fn)
{
    const std::span<const CounterRow> rows = table.rows;
    auto visit = [&](const Src &src, int shard) {
        const CounterScope skip = shard < 0 ? CounterScope::ShardOnly
                                            : CounterScope::Global;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (rows[i].scope == skip)
                continue;
            std::size_t end = i + 1;
            while (rows[i].perComponent && end < rows.size() &&
                   rows[end].perComponent)
                ++end;
            const unsigned reps = rows[i].perComponent ? components : 1;
            for (unsigned k = 0; k < reps; ++k) {
                for (std::size_t j = i; j < end; ++j) {
                    const CounterValue<Src> &v = table.values[j];
                    const double r = v.ratio ? v.ratio(src) : 0.0;
                    const std::uint64_t n = v.ratio
                                                ? std::uint64_t(r * 1e6)
                                                : v.count(src, k);
                    fn(CounterSample{rows[j], shard, k, n,
                                     v.ratio ? r : double(n)});
                }
            }
            i = end - 1;
        }
    };
    for (std::size_t s = 0; s < shards.size(); ++s)
        visit(shards[s], int(s));
    visit(total, -1);
}

/** The v1 plane: register @p c under @p prefix (plus "shardNN." for
 *  a per-shard sample), "%s" naming @p components[c.component]. */
inline void
registerSample(StatRegistry &reg, std::string prefix,
               const CounterSample &c,
               std::span<const std::string> components = {})
{
    if (c.row.v1 == nullptr)
        return;
    if (c.shard >= 0) {
        char sub[24];
        std::snprintf(sub, sizeof sub, "shard%02d.", c.shard);
        prefix += sub;
    }
    std::string name = prefix + c.row.v1;
    if (c.row.perComponent)
        name.replace(name.find("%s"), 2, components[c.component]);
    if (c.row.ratio)
        reg.value(name, c.value);
    else
        reg.counter(name, c.count);
}

/** The Prometheus plane: @p c's sample, per-shard ones labelled
 *  @p shard_label="N". */
inline void
collectSample(MetricsSink &sink, const CounterSample &c,
              const char *shard_label = "shard")
{
    const CounterFamily &f = c.shard < 0 ? c.row.prom : c.row.shardProm;
    if (f.name == nullptr)
        return;
    MetricLabels labels;
    if (f.labelKey != nullptr)
        labels.emplace_back(f.labelKey, f.labelValue);
    if (c.shard >= 0)
        labels.emplace_back(shard_label, std::to_string(c.shard));
    if (f.kind == MetricKind::Gauge)
        sink.gauge(f.name, std::move(labels), c.value, f.help);
    else
        sink.counter(f.name, std::move(labels), c.value, f.help);
}

/** The trace rows; their source is a drop count (one ring's, or all
 *  rings' for the global sample). */
CounterTable<std::uint64_t> traceCounterTable();

} // namespace adcache::obs

#endif // ADCACHE_OBS_COUNTER_TABLE_HH
