#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <thread>

namespace perfbench
{

namespace
{

/** Host-wide steal and total CPU time from /proc/stat (ticks). */
void
readHostTimes(std::uint64_t *steal, std::uint64_t *total)
{
    *steal = *total = 0;
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return;
    unsigned long long v[10] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu "
                       "%llu %llu",
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                    &v[7], &v[8], &v[9]) >= 8) {
        // user nice system idle iowait irq softirq steal [guest..]:
        // guest time is already inside user/nice.
        for (unsigned i = 0; i < 8; ++i)
            *total += v[i];
        *steal = v[7];
    }
    std::fclose(f);
}

/** Brackets a timed window: wall, process CPU and host steal. */
class PhaseMeter
{
  public:
    PhaseMeter() : wall0_(nowNs()), cpu0_(processCpuSeconds())
    {
        readHostTimes(&steal0_, &total0_);
    }

    PhaseStats
    stop() const
    {
        PhaseStats s;
        s.wallS = secondsSince(wall0_);
        s.cpuS = processCpuSeconds() - cpu0_;
        std::uint64_t steal1 = 0, total1 = 0;
        readHostTimes(&steal1, &total1);
        if (total1 > total0_)
            s.stealShare =
                double(steal1 - steal0_) / double(total1 - total0_);
        return s;
    }

  private:
    std::uint64_t wall0_;
    double cpu0_;
    std::uint64_t steal0_ = 0, total0_ = 0;
};

} // namespace

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::uint64_t
peakRssBytes()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof line, f)) {
        unsigned long long v = 0;
        if (std::sscanf(line, "VmHWM: %llu kB", &v) == 1) {
            kb = v;
            break;
        }
    }
    std::fclose(f);
    return kb * 1024;
}

double
clockCostNs()
{
    constexpr unsigned kReads = 1 << 16;
    const std::uint64_t t0 = nowNs();
    std::uint64_t sink = 0;
    for (unsigned i = 0; i < kReads; ++i)
        sink += nowNs();
    const std::uint64_t t1 = nowNs();
    return sink == 0 ? 0.0 : double(t1 - t0) / kReads;
}

double
median(std::vector<double> v)
{
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + long(mid), v.end());
    if (v.size() % 2)
        return v[mid];
    const double hi = v[mid];
    return (*std::max_element(v.begin(), v.begin() + long(mid)) + hi) /
           2.0;
}

unsigned
LatencyHistogram::bucketOf(std::uint64_t ns)
{
    if (ns < kSub)
        return unsigned(ns);
    const unsigned msb = unsigned(std::bit_width(ns)) - 1; // >= kSubBits
    const unsigned octave = std::min(msb - kSubBits, kOctaves - 1);
    const std::uint64_t sub =
        std::min<std::uint64_t>((ns >> octave) - kSub, kSub - 1);
    return kSub + octave * kSub + unsigned(sub);
}

double
LatencyHistogram::bucketLow(unsigned b)
{
    if (b < kSub)
        return double(b);
    const unsigned octave = (b - kSub) / kSub;
    const unsigned sub = (b - kSub) % kSub;
    return double((std::uint64_t(kSub) + sub) << octave);
}

double
LatencyHistogram::bucketWidth(unsigned b)
{
    return b < kSub ? 1.0
                    : double(std::uint64_t(1) << ((b - kSub) / kSub));
}

void
LatencyHistogram::add(std::uint64_t ns)
{
    ++counts_[bucketOf(ns)];
    ++count_;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (unsigned b = 0; b < kBuckets; ++b)
        counts_[b] += other.counts_[b];
    count_ += other.count_;
}

double
LatencyHistogram::quantileNs(double q) const
{
    if (count_ == 0)
        return 0.0;
    const double rank = q * double(count_);
    double cum = 0.0;
    for (unsigned b = 0; b < kBuckets; ++b) {
        const double c = double(counts_[b]);
        if (c > 0.0 && cum + c >= rank)
            return bucketLow(b) + bucketWidth(b) * (rank - cum) / c;
        cum += c;
    }
    return bucketLow(kBuckets - 1);
}

PhaseStats
runWorkers(unsigned workers, double seconds,
           const std::function<void(unsigned, const std::atomic<int> &,
                                    WorkerTally &)> &body,
           std::vector<WorkerTally> &tallies)
{
    tallies.assign(workers, WorkerTally{});
    std::atomic<int> gate{int(Gate::Wait)};
    std::atomic<unsigned> arrived{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back([&, t] {
            arrived.fetch_add(1);
            while (gate.load() == int(Gate::Wait)) {
            }
            body(t, gate, tallies[t]);
        });
    while (arrived.load() < workers) {
    }
    gate.store(int(Gate::Ramp));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    gate.store(int(Gate::Measure));
    const PhaseMeter meter;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    gate.store(int(Gate::Stop));
    PhaseStats s = meter.stop();
    for (auto &th : pool)
        th.join();
    for (const WorkerTally &t : tallies)
        s.ops += t.counted;
    return s;
}

} // namespace perfbench
