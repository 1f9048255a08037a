#include "net/service.hh"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/run_meta.hh"
#include "obs/trace.hh"
#include "util/stat_registry.hh"

namespace adcache::net
{

namespace
{

/** The service rows, read from a KvService. */
obs::CounterTable<KvService>
serviceCounterTable()
{
    using Value = obs::CounterValue<KvService>;
#define ADCACHE_VALUE_FORMULA(e)                                          \
    Value{[](const KvService &s, unsigned) -> std::uint64_t { return e; }}
    static constexpr Value values[] = {
        ADCACHE_SERVICE_COUNTERS(ADCACHE_COUNTER_VALUE)};
    return {obs::kServiceCounterRows, values};
}

} // namespace

KvService::KvService(const KvServiceConfig &config)
    : config_(config), cache_(config.cache)
{
    if (!config_.logSink)
        config_.logSink = [](const std::string &line) {
            std::fprintf(stderr, "%s\n", line.c_str());
        };
}

bool
KvService::shardDead(kv::KvKey key) const
{
    const std::uint64_t mask =
        deadShardMask_.load(std::memory_order_seq_cst);
    if (mask == 0)
        return false;
    return (mask >> cache_.shardOf(key)) & 1;
}

std::uint64_t
KvService::requestsServed() const
{
    return counts_.sum(kRequests);
}

std::uint64_t
KvService::errorsAnswered() const
{
    return counts_.sum(kErrors);
}

std::uint64_t
KvService::opCount(MsgKind kind) const
{
    const unsigned op = unsigned(kind);
    if (op >= kOpSlots)
        return 0;
    return counts_.sum(kOpBase + op);
}

Message
KvService::handle(const Message &request)
{
    MessageView view;
    view.kind = request.kind;
    view.key = request.key;
    view.ttl = request.ttl;
    view.payload = request.payload;
    view.statsVersion = request.statsVersion;
    std::string mget;
    if (request.kind == MsgKind::MGet) {
        // The view reads MGet keys in their wire form.
        encodeMGet(request.keys, &mget);
        decodeView(std::string_view(mget).substr(4), &view);
    }
    std::string frame;
    serve(view, &frame);
    Message response;
    decodeBody(std::string_view(frame).substr(4), &response);
    return response;
}

void
KvService::serve(const MessageView &request, std::string *out)
{
    const std::uint64_t t0 = obs::nowNs();
    const unsigned op = unsigned(request.kind);
    if (op < kOpSlots)
        counts_.add(kOpBase + op);

    serveInner(request, out);

    const std::uint64_t dur = obs::nowNs() - t0;
    requestLatency_.record(dur);
    if (config_.slowRequestBudgetNs != 0 &&
        dur > config_.slowRequestBudgetNs) {
        char line[160];
        std::snprintf(
            line, sizeof line,
            "slow_request op=%s key=%llu dur_us=%llu "
            "budget_us=%llu",
            msgKindName(request.kind),
            (unsigned long long)request.key,
            (unsigned long long)(dur / 1000),
            (unsigned long long)(config_.slowRequestBudgetNs /
                                 1000));
        config_.logSink(line);
    }
}

void
KvService::answerError(std::string_view text, std::string *out)
{
    counts_.add(kErrors);
    appendFrame(MsgKind::Error, text, out);
}

std::string
KvService::load(kv::KvKey key, std::uint32_t delay_us) const
{
    // The loader body is the "backend": derive the canonical value,
    // stalled by the slowdown scenario when it is armed.
    if (delay_us)
        std::this_thread::sleep_for(
            std::chrono::microseconds(delay_us));
    return valueFor(key, config_.loaderValues);
}

void
KvService::serveInner(const MessageView &request, std::string *out)
{
    counts_.add(kRequests);
    switch (request.kind) {
      case MsgKind::Get: {
        if (shardDead(request.key))
            return answerError("shard down", out);
        const std::size_t f = beginFrame(MsgKind::Value, out);
        if (config_.readThrough) {
            const std::uint32_t delay_us =
                fetchDelayUs_.load(std::memory_order_seq_cst);
            cache_.fetchInto(
                request.key,
                [this, key = request.key, delay_us] {
                    return load(key, delay_us);
                },
                out, config_.loaderTtl);
        } else if (!cache_.getInto(request.key, out)) {
            // A miss appended nothing: the frame becomes NotFound.
            (*out)[f + 4] = char(MsgKind::NotFound);
        }
        return endFrame(f, out);
      }
      case MsgKind::Put:
        if (shardDead(request.key))
            return answerError("shard down", out);
        cache_.put(request.key, request.payload, /*pinned=*/false,
                   request.ttl);
        return appendFrame(MsgKind::Ok, {}, out);
      case MsgKind::Del:
        if (shardDead(request.key))
            return answerError("shard down", out);
        return appendFrame(cache_.erase(request.key)
                               ? MsgKind::Ok
                               : MsgKind::NotFound,
                           {}, out);
      case MsgKind::MGet:
        return serveMGet(request, out);
      case MsgKind::Ping:
        return appendFrame(MsgKind::Ok, {}, out);
      case MsgKind::Stats:
        if (request.statsVersion == 1)
            return appendFrame(MsgKind::Value, statsText(), out);
        if (request.statsVersion == kStatsV2Version)
            return appendFrame(MsgKind::StatsV2, statsV2(), out);
        return answerError("unsupported stats version", out);
      default:
        return answerError("bad request kind", out);
    }
}

void
KvService::serveMGet(const MessageView &request, std::string *out)
{
    const std::size_t n = request.count;
    const std::uint64_t dead =
        deadShardMask_.load(std::memory_order_seq_cst);
    const auto is_dead = [&](std::size_t i) {
        return dead != 0 &&
               ((dead >> cache_.shardOf(request.mgetKey(i))) & 1);
    };

    // The live keys in host form: on the stack for the common
    // pipeline depths, one heap block beyond.
    constexpr std::size_t kStackKeys = 64;
    kv::KvKey stack_keys[kStackKeys];
    std::vector<kv::KvKey> heap_keys;
    kv::KvKey *live = stack_keys;
    if (n > kStackKeys) {
        heap_keys.resize(n);
        live = heap_keys.data();
    }
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (!is_dead(i))
            live[m++] = request.mgetKey(i);

    // Entries go out in request order as the probe resolves the live
    // keys, each hit's value copied straight from the cache into the
    // frame. Keys on dead shards answer per-key Error entries, so one
    // lost shard degrades the batch instead of failing it wholesale;
    // the live keys are probed as one batch — the point of the
    // opcode: cache hits stay on the lock-free path even with
    // read-through on (a plain Get under readThrough always takes the
    // shard mutex via fetch()).
    const std::size_t f = beginFrame(MsgKind::Values, out);
    appendU32(std::uint32_t(n), out);
    std::size_t next = 0; //!< request index of the next entry
    std::size_t first_miss = n, first_miss_at = 0;
    const auto skip_dead = [&] {
        for (; next < n && is_dead(next); ++next) {
            counts_.add(kErrors);
            out->push_back(char(MGetStatus::Error));
            appendU32(10, out);
            out->append("shard down");
        }
    };
    cache_.probeMany(
        std::span<const kv::KvKey>(live, m),
        [&](std::size_t, const std::string *v) {
            skip_dead();
            if (!v && first_miss == n) {
                first_miss = next;
                first_miss_at = out->size();
            }
            out->push_back(
                char(v ? MGetStatus::Found : MGetStatus::Miss));
            appendU32(v ? std::uint32_t(v->size()) : 0, out);
            if (v)
                out->append(*v);
            ++next;
        });
    skip_dead();

    if (config_.readThrough && first_miss < n) {
        // Backfill: re-lay the entries from the first miss on, each
        // Miss now filled by a read-through fetch, in request order.
        const std::string tail = out->substr(first_miss_at);
        out->resize(first_miss_at);
        const std::uint32_t delay_us =
            fetchDelayUs_.load(std::memory_order_seq_cst);
        std::size_t off = 0;
        for (std::size_t i = first_miss; i < n; ++i) {
            MGetStatus status;
            std::string_view value;
            const std::size_t end =
                nextValuesEntry(tail, off, &status, &value);
            if (status != MGetStatus::Miss) {
                out->append(tail, off, end - off);
            } else {
                const kv::KvKey key = request.mgetKey(i);
                out->push_back(char(MGetStatus::Found));
                const std::size_t len_at = out->size();
                appendU32(0, out);
                cache_.fetchInto(
                    key, [&] { return load(key, delay_us); }, out,
                    config_.loaderTtl);
                endFrame(len_at, out);
            }
            off = end;
        }
    }

    // The response must itself be one legal frame; a batch of fat
    // values that would overflow it is a request-level error (the
    // client should split the batch), not a dead connection.
    if (out->size() - f - 4 > kMaxFrameBytes) {
        out->resize(f);
        return answerError("mget response too large", out);
    }
    endFrame(f, out);
}

std::string
KvService::statsText() const
{
    StatRegistry reg;
    cache_.registerStats(reg, "kv.", /*per_shard=*/true);
    obs::forEachCounter(serviceCounterTable(), *this, {}, 0,
                        [&](const obs::CounterSample &c) {
                            obs::registerSample(reg, "", c);
                        });

    std::ostringstream out;
    // Run metadata first: a captured stats dump should identify the
    // build and configuration that produced it, like every report
    // artifact does.
    for (const auto &[key, value] : obs::collectRunMeta())
        out << key << " " << value << "\n";
    for (const StatEntry &e : reg.entries()) {
        out << e.name << " ";
        switch (e.kind) {
          case StatEntry::Kind::Counter:
            out << e.counter;
            break;
          case StatEntry::Kind::Value:
            out << e.value;
            break;
          case StatEntry::Kind::Text:
            out << e.text;
            break;
        }
        out << "\n";
    }
    return out.str();
}

std::string
KvService::statsV2() const
{
    const std::vector<kv::KvShardStats> shards = cache_.shardTelemetry();
    const std::vector<std::uint64_t> rings = obs::perRingDrops();
    std::vector<StatSample> samples;
    samples.reserve(64 + shards.size() * 16);
    const auto append = [&](const obs::CounterSample &c) {
        appendSample(samples, c);
    };
    obs::forEachCounter<kv::KvShardStats>(kv::kvCounterTable(),
                                          cache_.total(shards), shards,
                                          kv::kvNumComponents, append);
    obs::forEachCounter(serviceCounterTable(), *this, {}, 0, append);
    // Rings are many and mostly idle: only nonzero ring rows ship.
    obs::forEachCounter<std::uint64_t>(
        obs::traceCounterTable(), obs::droppedTotal(), rings, 0,
        [&](const obs::CounterSample &c) {
            if (c.shard < 0 || c.count != 0)
                append(c);
        });
    {
        std::lock_guard<std::mutex> lock(providersMtx_);
        for (const StatsProvider &p : providers_)
            p(samples);
    }
    return encodeStatsV2(std::uint16_t(shards.size()), samples);
}

void
KvService::addStatsProvider(StatsProvider fn)
{
    std::lock_guard<std::mutex> lock(providersMtx_);
    providers_.push_back(std::move(fn));
}

void
KvService::registerMetrics(obs::MetricsRegistry &reg)
{
    cache_.registerMetrics(reg);
    reg.addCollector([this](obs::MetricsSink &sink) {
        obs::forEachCounter(serviceCounterTable(), *this, {}, 0,
                            [&](const obs::CounterSample &c) {
                                obs::collectSample(sink, c);
                            });
    });
}

} // namespace adcache::net
