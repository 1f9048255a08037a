#include "ycsb/ycsb.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "net/client.hh"
#include "net/loopback.hh"
#include "net/service.hh"
#include "util/logging.hh"
#include "util/stat_registry.hh"

namespace adcache::ycsb
{

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
elapsedNs(Clock::time_point since)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - since)
            .count());
}

double
toSeconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Probability of each op class in a workload's mix. */
struct Mix
{
    double read = 0;
    double update = 0;
    double insert = 0;
    double scan = 0;
    double rmw = 0;
};

Mix
mixFor(char workload)
{
    switch (workload) {
      case 'a':
        return {.read = 0.5, .update = 0.5};
      case 'b':
        return {.read = 0.95, .update = 0.05};
      case 'c':
        return {.read = 1.0};
      case 'd':
        return {.read = 0.95, .insert = 0.05};
      case 'e':
        return {.insert = 0.05, .scan = 0.95};
      case 'f':
        return {.read = 0.5, .rmw = 0.5};
      default:
        adcache_assert(!"unknown YCSB workload (want 'a'..'f')");
        return {};
    }
}

class LoopbackYcsbConnection final : public Connection
{
  public:
    explicit LoopbackYcsbConnection(net::KvService &service)
        : conn_(service)
    {
    }

    std::optional<std::string>
    get(std::uint64_t key) override
    {
        return conn_.get(key);
    }

    bool
    put(std::uint64_t key, std::string_view value,
        std::uint32_t ttl) override
    {
        return conn_.put(key, value, ttl);
    }

    bool del(std::uint64_t key) override { return conn_.del(key); }

    std::vector<std::optional<std::string>>
    mget(const std::vector<std::uint64_t> &keys) override
    {
        return conn_.mget(keys);
    }

  private:
    net::LoopbackConnection conn_;
};

class SocketYcsbConnection final : public Connection
{
  public:
    std::optional<std::string>
    get(std::uint64_t key) override
    {
        return client_.get(key);
    }

    bool
    put(std::uint64_t key, std::string_view value,
        std::uint32_t ttl) override
    {
        return client_.put(key, value, ttl);
    }

    bool del(std::uint64_t key) override { return client_.del(key); }

    std::vector<std::optional<std::string>>
    mget(const std::vector<std::uint64_t> &keys) override
    {
        return client_.mget(keys);
    }

    net::KvClient &client() { return client_; }

  private:
    net::KvClient client_;
};

/** Everything one client thread accumulates; merged after join. */
struct ClientState
{
    std::array<std::uint64_t, kNumOpClasses> ops{};
    std::array<std::uint64_t, kNumOpClasses> failures{};
    std::uint64_t errors = 0;
    std::uint64_t validationFailures = 0;
    std::uint64_t loadOps = 0;
    std::uint64_t runOps = 0;
};

} // namespace

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::Read:
        return "read";
      case OpClass::Update:
        return "update";
      case OpClass::Insert:
        return "insert";
      case OpClass::Scan:
        return "scan";
      case OpClass::ReadModifyWrite:
        return "rmw";
      case OpClass::Delete:
        return "delete";
      case OpClass::MGet:
        return "mget";
    }
    return "?";
}

const char *
scenarioName(Scenario s)
{
    switch (s) {
      case Scenario::None:
        return "none";
      case Scenario::HotKeyStorm:
        return "hot_key_storm";
      case Scenario::BackendSlowdown:
        return "backend_slowdown";
      case Scenario::ShardLoss:
        return "shard_loss";
    }
    return "?";
}

std::unique_ptr<Connection>
makeLoopbackConnection(net::KvService &service)
{
    return std::make_unique<LoopbackYcsbConnection>(service);
}

std::unique_ptr<Connection>
makeSocketConnection(const std::string &host, std::uint16_t port)
{
    auto conn = std::make_unique<SocketYcsbConnection>();
    if (!conn->client().connect(host, port))
        return nullptr;
    return conn;
}

std::string
YcsbConfig::describe() const
{
    const Mix mix = mixFor(workload);
    std::ostringstream out;
    out << char(workload - 'a' + 'A') << " zipf(" << zipfSkew << ")@"
        << records << " " << values.describe();
    if (mix.scan > 0)
        out << " scan" << scanLen;
    if (ttl)
        out << " ttl" << ttl;
    if (deleteRatio > 0)
        out << " del" << deleteRatio;
    if (pipelineDepth > 1)
        out << " p" << pipelineDepth;
    if (scenario != Scenario::None)
        out << " +" << scenarioName(scenario);
    return out.str();
}

double
YcsbResult::opsPerSec() const
{
    return runSeconds > 0 ? double(runOps) / runSeconds : 0;
}

double
YcsbResult::readP99Ns() const
{
    for (const OpClass c : {OpClass::Read, OpClass::MGet, OpClass::Scan})
        if (of(c).latency.count() > 0)
            return of(c).latency.percentileNs(0.99);
    return 0;
}

void
YcsbResult::registerInto(StatRegistry &reg) const
{
    reg.value("ops_per_sec", opsPerSec());
    reg.value("load_seconds", loadSeconds);
    reg.value("run_seconds", runSeconds);
    reg.counter("load_ops", loadOps);
    reg.counter("run_ops", runOps);
    reg.counter("errors", errors);
    reg.counter("validation_failures", validationFailures);
    for (unsigned c = 0; c < kNumOpClasses; ++c) {
        const OpClassResult &r = classes[c];
        if (r.ops == 0)
            continue;
        const std::string prefix =
            std::string(opClassName(OpClass(c))) + ".";
        reg.counter(prefix + "ops", r.ops);
        reg.counter(prefix + "failures", r.failures);
        r.latency.registerInto(reg, prefix);
    }
}

YcsbDriver::YcsbDriver(const YcsbConfig &config,
                       net::KvService *service,
                       ConnectionFactory factory)
    : config_(config), service_(service), factory_(std::move(factory))
{
    adcache_assert(config_.workload >= 'a' &&
                   config_.workload <= 'f');
    adcache_assert(config_.clients >= 1);
    adcache_assert(config_.records >= 1);
    adcache_assert(config_.deleteRatio >= 0 &&
                   config_.deleteRatio < 1);
    adcache_assert(factory_ != nullptr);
}

YcsbResult
YcsbDriver::run()
{
    const Mix mix = mixFor(config_.workload);
    const std::uint64_t load_records =
        config_.loadRecords
            ? std::min(config_.loadRecords, config_.records)
            : std::min<std::uint64_t>(config_.records, 64 * 1024);

    // The base spec every per-client stream derives from. The run
    // phase draws the full Zipf distribution per client (seed-salted
    // only); the load phase re-derives a disjoint Scan slice of the
    // first load_records ranks from the same base.
    KeyStreamSpec base;
    base.pattern = KeyPattern::Zipf;
    base.keySpace = config_.records;
    base.skew = config_.zipfSkew;
    base.seed = config_.seed;

    std::vector<ClientState> states(config_.clients);
    std::vector<std::thread> threads;
    std::atomic<unsigned> loadFailures{0};

    // One histogram per op class, shared by every client: each
    // records into its own per-thread cells.
    std::array<obs::LatencyHistogram, kNumOpClasses> latency;

    // --- LOAD phase: each client PUTs its disjoint record slice. ---
    const Clock::time_point load_start = Clock::now();
    for (unsigned ci = 0; ci < config_.clients; ++ci) {
        threads.emplace_back([&, ci] {
            std::unique_ptr<Connection> conn = factory_(ci);
            if (!conn) {
                loadFailures.fetch_add(1,
                                       std::memory_order_seq_cst);
                return;
            }
            KeyStreamSpec mine =
                base.forClient(ci, config_.clients,
                               /*disjoint_slice=*/true);
            mine.pattern = KeyPattern::Scan;
            mine.keySpace = std::max<std::uint64_t>(load_records, 1);
            mine.scanSpan = 0;
            KeyStream stream(mine);
            ClientState &st = states[ci];
            for (std::uint64_t i = 0; i < stream.rankSpace(); ++i) {
                const std::uint64_t key = stream.next();
                if (!conn->put(key,
                               valueFor(key, config_.values),
                               config_.ttl))
                    ++st.errors;
                ++st.loadOps;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    threads.clear();
    const Clock::time_point load_end = Clock::now();
    adcache_assert(loadFailures.load(std::memory_order_seq_cst) ==
                   0);

    // --- RUN phase. ---
    // Workload D/E inserts append fresh records after the dataset;
    // the cursor is global so "latest" is fleet-wide latest.
    std::atomic<std::uint64_t> insertCursor{config_.records};
    std::atomic<bool> scenarioArmed{false};
    const std::uint64_t trigger_op = std::uint64_t(
        config_.scenarioAt * double(config_.opsPerClient));

    const Clock::time_point run_start = Clock::now();
    for (unsigned ci = 0; ci < config_.clients; ++ci) {
        threads.emplace_back([&, ci] {
            std::unique_ptr<Connection> conn = factory_(ci);
            if (!conn)
                return;
            ClientState &st = states[ci];
            KeyStream stream(
                base.forClient(ci, config_.clients, false));
            Rng rng(stream.spec().seed ^ 0x5cb5'cb5cULL);
            // Workload D: recency sampler over a bounded window.
            std::unique_ptr<ZipfSampler> latest;
            if (config_.workload == 'd')
                latest = std::make_unique<ZipfSampler>(
                    std::max<std::uint64_t>(config_.latestWindow, 1),
                    config_.zipfSkew);

            const auto armScenario = [&] {
                if (config_.scenario == Scenario::None)
                    return;
                if (scenarioArmed.exchange(
                        true, std::memory_order_seq_cst))
                    return;
                if (!service_)
                    return;
                if (config_.scenario == Scenario::BackendSlowdown)
                    service_->setFetchDelayUs(config_.slowdownUs);
                else if (config_.scenario == Scenario::ShardLoss)
                    service_->setDeadShardMask(
                        config_.deadShardMask);
            };

            const auto readKey = [&](bool post_trigger)
                -> std::uint64_t {
                if (config_.scenario == Scenario::HotKeyStorm &&
                    post_trigger &&
                    rng.chance(config_.hotFraction))
                    return stream.keyAt(0); // the hot key
                if (config_.workload == 'd') {
                    const std::uint64_t cursor = insertCursor.load(
                        std::memory_order_seq_cst);
                    std::uint64_t back = (*latest)(rng);
                    if (back >= cursor)
                        back = cursor - 1;
                    return stream.keyAt(cursor - 1 - back);
                }
                return stream.keyAt(stream.nextRank());
            };

            // One latency sample per call; a batch's ops and failures
            // count per key.
            const auto timeBatch = [&](OpClass c, std::uint64_t ns,
                                       std::uint64_t ops,
                                       std::uint64_t failures) {
                st.ops[unsigned(c)] += ops;
                st.failures[unsigned(c)] += failures;
                latency[unsigned(c)].record(ns);
            };
            const auto timeInto = [&](OpClass c, std::uint64_t ns,
                                      bool ok) {
                timeBatch(c, ns, 1, ok ? 0 : 1);
            };

            const auto checkValue =
                [&](std::uint64_t key, const std::string &value) {
                    if (!config_.validate)
                        return;
                    const std::string header =
                        "v" + std::to_string(key) + ":";
                    if (value.compare(0, header.size(), header) != 0)
                        ++st.validationFailures;
                };

            std::vector<std::uint64_t> batchKeys; // reused
            // Batched ops can step over any given multiple of
            // clockEvery, so the TTL clock advances on a threshold
            // cursor instead of op % clockEvery.
            std::uint64_t next_clock_at = 0;
            for (std::uint64_t op = 0;
                 op < config_.opsPerClient;) {
                // Ops consumed this draw: 1, or the batch size when
                // a pipelined Read issues an MGet.
                std::uint64_t advanced = 1;
                const bool post_trigger = op >= trigger_op;
                if (op == trigger_op)
                    armScenario();
                if (config_.ttl && service_ &&
                    config_.clockEvery && op >= next_clock_at) {
                    service_->cache().clockAdvance();
                    next_clock_at = op + config_.clockEvery;
                }

                // Pick the op class: deletes carve the top of the
                // unit interval, the workload mix shares the rest.
                double u = rng.uniform();
                OpClass cls;
                if (u < config_.deleteRatio) {
                    cls = OpClass::Delete;
                } else {
                    u = (u - config_.deleteRatio) /
                        (1.0 - config_.deleteRatio);
                    if (u < mix.read)
                        cls = OpClass::Read;
                    else if (u < mix.read + mix.update)
                        cls = OpClass::Update;
                    else if (u <
                             mix.read + mix.update + mix.insert)
                        cls = OpClass::Insert;
                    else if (u < mix.read + mix.update +
                                     mix.insert + mix.scan)
                        cls = OpClass::Scan;
                    else
                        cls = OpClass::ReadModifyWrite;
                }

                switch (cls) {
                  case OpClass::Read: {
                    if (config_.pipelineDepth > 1) {
                        // One MGet batch consumes up to depth ops,
                        // never crossing the scenario trigger (it
                        // must arm at exactly trigger_op).
                        std::uint64_t batch = std::min<std::uint64_t>(
                            config_.pipelineDepth,
                            config_.opsPerClient - op);
                        if (op < trigger_op)
                            batch = std::min(batch, trigger_op - op);
                        batchKeys.clear();
                        for (std::uint64_t i = 0; i < batch; ++i)
                            batchKeys.push_back(
                                readKey(post_trigger));
                        const Clock::time_point t0 = Clock::now();
                        const auto vs = conn->mget(batchKeys);
                        const std::uint64_t ns = elapsedNs(t0);
                        std::uint64_t misses = 0;
                        for (std::size_t i = 0; i < batchKeys.size();
                             ++i) {
                            if (i < vs.size() && vs[i])
                                checkValue(batchKeys[i], *vs[i]);
                            else
                                ++misses;
                        }
                        st.errors += misses;
                        timeBatch(OpClass::MGet, ns, batch, misses);
                        advanced = batch;
                        break;
                    }
                    const std::uint64_t key = readKey(post_trigger);
                    const Clock::time_point t0 = Clock::now();
                    const auto v = conn->get(key);
                    const std::uint64_t ns = elapsedNs(t0);
                    if (v)
                        checkValue(key, *v);
                    else
                        ++st.errors;
                    timeInto(OpClass::Read, ns, v.has_value());
                    break;
                  }
                  case OpClass::Update: {
                    const std::uint64_t key = readKey(post_trigger);
                    const std::string value =
                        valueFor(key, config_.values);
                    const Clock::time_point t0 = Clock::now();
                    const bool ok =
                        conn->put(key, value, config_.ttl);
                    timeInto(OpClass::Update, elapsedNs(t0), ok);
                    if (!ok)
                        ++st.errors;
                    break;
                  }
                  case OpClass::Insert: {
                    const std::uint64_t rank =
                        insertCursor.fetch_add(
                            1, std::memory_order_seq_cst);
                    const std::uint64_t key = stream.keyAt(rank);
                    const std::string value =
                        valueFor(key, config_.values);
                    const Clock::time_point t0 = Clock::now();
                    const bool ok =
                        conn->put(key, value, config_.ttl);
                    timeInto(OpClass::Insert, elapsedNs(t0), ok);
                    if (!ok)
                        ++st.errors;
                    break;
                  }
                  case OpClass::Scan: {
                    const std::uint64_t r0 = stream.nextRank();
                    bool ok = true;
                    const Clock::time_point t0 = Clock::now();
                    for (std::uint64_t i = 0; i < config_.scanLen;
                         ++i) {
                        const std::uint64_t rank =
                            (r0 + i) % config_.records;
                        if (!conn->get(stream.keyAt(rank))) {
                            ok = false;
                            ++st.errors;
                        }
                    }
                    timeInto(OpClass::Scan, elapsedNs(t0), ok);
                    break;
                  }
                  case OpClass::ReadModifyWrite: {
                    const std::uint64_t key = readKey(post_trigger);
                    const Clock::time_point t0 = Clock::now();
                    const auto v = conn->get(key);
                    const bool ok =
                        v && conn->put(key,
                                       valueFor(key,
                                                config_.values),
                                       config_.ttl);
                    timeInto(OpClass::ReadModifyWrite,
                             elapsedNs(t0), ok);
                    if (!ok)
                        ++st.errors;
                    break;
                  }
                  case OpClass::Delete: {
                    const std::uint64_t key = readKey(post_trigger);
                    const Clock::time_point t0 = Clock::now();
                    // NotFound is a fine answer for a delete; only
                    // time it, don't count it as an error.
                    const bool ok = conn->del(key);
                    timeInto(OpClass::Delete, elapsedNs(t0), ok);
                    break;
                  }
                }
                op += advanced;
                st.runOps += advanced;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const Clock::time_point run_end = Clock::now();

    YcsbResult result;
    result.loadSeconds = toSeconds(load_start, load_end);
    result.runSeconds = toSeconds(run_start, run_end);
    for (const ClientState &st : states) {
        result.loadOps += st.loadOps;
        result.runOps += st.runOps;
        result.errors += st.errors;
        result.validationFailures += st.validationFailures;
        for (unsigned c = 0; c < kNumOpClasses; ++c) {
            result.classes[c].ops += st.ops[c];
            result.classes[c].failures += st.failures[c];
        }
    }
    for (unsigned c = 0; c < kNumOpClasses; ++c)
        result.classes[c].latency = latency[c].snapshot();
    return result;
}

} // namespace adcache::ycsb
