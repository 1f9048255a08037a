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
    return requests_.load(std::memory_order_seq_cst);
}

std::uint64_t
KvService::errorsAnswered() const
{
    return errors_.load(std::memory_order_seq_cst);
}

std::uint64_t
KvService::opCount(MsgKind kind) const
{
    const unsigned op = unsigned(kind);
    if (op >= kOpSlots)
        return 0;
    return opCounts_[op].load(std::memory_order_seq_cst);
}

Message
KvService::handle(const Message &request)
{
    const std::uint64_t t0 = obs::nowNs();
    const unsigned op = unsigned(request.kind);
    if (op < kOpSlots)
        opCounts_[op].fetch_add(1, std::memory_order_relaxed);

    Message response = handleInner(request);

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
    return response;
}

Message
KvService::handleInner(const Message &request)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    switch (request.kind) {
      case MsgKind::Get: {
        if (shardDead(request.key)) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            return Message::error("shard down");
        }
        if (config_.readThrough) {
            const std::uint32_t delay_us =
                fetchDelayUs_.load(std::memory_order_seq_cst);
            std::string v = cache_.fetch(
                request.key,
                [&] {
                    // The loader body is the "backend": derive the
                    // canonical value, stalled by the slowdown
                    // scenario when it is armed.
                    if (delay_us)
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(delay_us));
                    return valueFor(request.key,
                                    config_.loaderValues);
                },
                config_.loaderTtl);
            return Message::value(v);
        }
        if (auto v = cache_.get(request.key))
            return Message::value(*v);
        return Message::notFound();
      }
      case MsgKind::Put: {
        if (shardDead(request.key)) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            return Message::error("shard down");
        }
        cache_.put(request.key, request.payload, /*pinned=*/false,
                   request.ttl);
        return Message::ok();
      }
      case MsgKind::Del: {
        if (shardDead(request.key)) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            return Message::error("shard down");
        }
        return cache_.erase(request.key) ? Message::ok()
                                         : Message::notFound();
      }
      case MsgKind::MGet:
        return handleMGet(request);
      case MsgKind::Ping:
        return Message::ok();
      case MsgKind::Stats:
        if (request.statsVersion == 1)
            return Message::value(statsText());
        if (request.statsVersion == kStatsV2Version)
            return Message::statsV2Response(statsV2());
        errors_.fetch_add(1, std::memory_order_relaxed);
        return Message::error("unsupported stats version");
      default:
        errors_.fetch_add(1, std::memory_order_relaxed);
        return Message::error("bad request kind");
    }
}

Message
KvService::handleMGet(const Message &request)
{
    const std::size_t n = request.keys.size();
    std::vector<MGetEntry> entries(n);

    // Keys on dead shards answer per-key Error entries, so one lost
    // shard degrades the batch instead of failing it wholesale; the
    // live remainder goes through one shard-grouped getMany, which
    // is the point of the opcode — cache hits stay on the lock-free
    // path even with read-through on (a plain Get under readThrough
    // always takes the shard mutex via fetch()). With every shard
    // alive — the steady state — the keys span probes as-is, with
    // no live-subset copy.
    std::vector<kv::KvKey> live;
    std::vector<std::uint32_t> live_idx;
    const bool all_alive =
        deadShardMask_.load(std::memory_order_seq_cst) == 0;
    if (!all_alive) {
        live.reserve(n);
        live_idx.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (shardDead(request.keys[i])) {
                errors_.fetch_add(1, std::memory_order_relaxed);
                entries[i].status = MGetStatus::Error;
                entries[i].value = "shard down";
            } else {
                live.push_back(request.keys[i]);
                live_idx.push_back(std::uint32_t(i));
            }
        }
    }
    const std::span<const kv::KvKey> probe_keys =
        all_alive ? std::span<const kv::KvKey>(request.keys)
                  : std::span<const kv::KvKey>(live);

    std::vector<std::optional<std::string>> got(probe_keys.size());
    cache_.getMany(probe_keys, got.data());

    const std::uint32_t delay_us =
        fetchDelayUs_.load(std::memory_order_seq_cst);
    for (std::size_t j = 0; j < probe_keys.size(); ++j) {
        MGetEntry &e = entries[all_alive ? j : live_idx[j]];
        if (got[j]) {
            e.status = MGetStatus::Found;
            e.value = std::move(*got[j]);
        } else if (config_.readThrough) {
            const kv::KvKey key = probe_keys[j];
            e.status = MGetStatus::Found;
            e.value = cache_.fetch(
                key,
                [&] {
                    if (delay_us)
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(delay_us));
                    return valueFor(key, config_.loaderValues);
                },
                config_.loaderTtl);
        }
        // else: stays MGetStatus::Miss.
    }

    // The response must itself be one legal frame; a batch of fat
    // values that would overflow it is a request-level error (the
    // client should split the batch), not a dead connection.
    std::size_t body = 1 + 4;
    for (const MGetEntry &e : entries)
        body += 5 + e.value.size();
    if (body > kMaxFrameBytes) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return Message::error("mget response too large");
    }
    return Message::values(std::move(entries));
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
