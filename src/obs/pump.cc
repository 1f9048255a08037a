#include "obs/pump.hh"

#include <cstdio>

#include "obs/trace.hh"

namespace adcache::obs
{

TelemetryPump::TelemetryPump(TelemetryPumpConfig config)
    : config_(std::move(config)), monitor_(config_.drift)
{
    if (config_.sampler) {
        const std::uint64_t every =
            config_.snapshotEvery > 0 ? config_.snapshotEvery : 1;
        series_ = std::make_unique<SnapshotSeries>(
            every, config_.sampler);
    }
    if (!config_.logSink)
        config_.logSink = [](const std::string &line) {
            std::fprintf(stderr, "%s\n", line.c_str());
        };
}

TelemetryPump::~TelemetryPump() { stop(); }

void
TelemetryPump::start()
{
    std::lock_guard<std::mutex> lock(mtx_);
    if (running_)
        return;
    stopRequested_ = false;
    running_ = true;
    thread_ = std::thread([this] { run(); });
}

void
TelemetryPump::stop()
{
    {
        std::lock_guard<std::mutex> lock(mtx_);
        if (!running_)
            return;
        stopRequested_ = true;
    }
    cv_.notify_all();
    thread_.join();
    std::lock_guard<std::mutex> lock(mtx_);
    running_ = false;
}

void
TelemetryPump::run()
{
    std::unique_lock<std::mutex> lock(mtx_);
    while (!stopRequested_) {
        if (cv_.wait_for(lock, config_.period,
                         [this] { return stopRequested_; }))
            break;
        lock.unlock();
        tickOnce();
        lock.lock();
    }
}

void
TelemetryPump::tickOnce()
{
    std::uint64_t period;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        period = ++periods_;
    }
    if (series_)
        series_->tick(period);
    if (!config_.driftSampler)
        return;

    const std::vector<DriftShardSample> cur = config_.driftSampler();
    if (prev_.size() < cur.size())
        prev_.resize(cur.size());

    auto delta = [](std::uint64_t now, std::uint64_t then) {
        return now >= then ? now - then : 0;
    };
    for (std::size_t s = 0; s < cur.size(); ++s) {
        const std::uint64_t flips = delta(cur[s].flips,
                                          prev_[s].flips);
        const std::uint64_t dm =
            delta(cur[s].diffMisses, prev_[s].diffMisses);
        const std::uint64_t ops = delta(cur[s].ops, prev_[s].ops);
        const DriftVerdict v = monitor_.sample(s, flips, dm, ops);
        {
            std::lock_guard<std::mutex> lock(mtx_);
            if (shardDrift_.size() <= s)
                shardDrift_.resize(s + 1);
            shardDrift_[s].flipEwma = v.flipEwma;
            shardDrift_[s].diffMissEwma = v.diffMissEwma;
        }

        auto fire = [&](DriftSignal sig, double ewma,
                        double threshold) {
            const auto ppm = std::uint64_t(ewma * 1e6);
            if (traceEnabled())
                emit(kvDriftEvent(cur[s].ops, unsigned(s), sig,
                                  ppm));
            char line[192];
            std::snprintf(
                line, sizeof line,
                "kv_drift shard=%zu signal=%s ewma_ppm=%llu "
                "threshold_ppm=%llu period=%llu ops=%llu",
                s, driftSignalName(sig),
                (unsigned long long)ppm,
                (unsigned long long)(threshold * 1e6),
                (unsigned long long)period,
                (unsigned long long)cur[s].ops);
            config_.logSink(line);
            std::lock_guard<std::mutex> lock(mtx_);
            ++driftEvents_;
        };
        if (v.flipDrift)
            fire(DriftSignal::WinnerFlips, v.flipEwma,
                 monitor_.config().flipRateThreshold);
        if (v.diffMissDrift)
            fire(DriftSignal::DiffMisses, v.diffMissEwma,
                 monitor_.config().diffMissRateThreshold);
    }
    prev_ = cur;
}

std::uint64_t
TelemetryPump::periods() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return periods_;
}

std::uint64_t
TelemetryPump::driftEvents() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return driftEvents_;
}

CounterTable<TelemetryPump::DriftState>
TelemetryPump::driftCounterTable()
{
    using Value = CounterValue<DriftState>;
#define ADCACHE_VALUE_FIELD(f)                                            \
    Value{[](const DriftState &s, unsigned) { return s.f; }}
#define ADCACHE_VALUE_RATIO(e)                                            \
    Value{nullptr, [](const DriftState &s) { return e; }}
    static constexpr Value values[] = {
        ADCACHE_DRIFT_COUNTERS(ADCACHE_COUNTER_VALUE)};
    return {kDriftCounterRows, values};
}

void
TelemetryPump::registerMetrics(MetricsRegistry &reg)
{
    reg.addCollector([this](MetricsSink &sink) {
        std::lock_guard<std::mutex> lock(mtx_);
        forEachCounter<DriftState>(
            driftCounterTable(), DriftState{0.0, 0.0, driftEvents_},
            shardDrift_, 0,
            [&](const CounterSample &c) { collectSample(sink, c); });
    });
}

} // namespace adcache::obs
