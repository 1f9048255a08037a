/**
 * @file
 * The kv-subsystem headline experiment: does the adaptive selector
 * shape the software cache's replacement to the workload the way the
 * paper's engine shapes a hardware cache's?
 *
 * Each schedule drives one single-shard cache per selector mode —
 * adaptive, fixed-LRU, fixed-LFU — with the same seeded key stream
 * and compares hit rates. The schedules are chosen so neither fixed
 * policy wins everywhere: static Zipf popularity rewards frequency,
 * a drifting hot set rewards recency, and the phase-flip schedules
 * alternate Zipf and scan regimes at different cadences. The
 * adaptive configuration must match (within a small tolerance) or
 * beat the better fixed policy on every schedule.
 */

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "kv/adaptive_kv_cache.hh"
#include "obs/session.hh"
#include "obs/snapshot.hh"
#include "sim/report.hh"
#include "workloads/key_stream.hh"

using namespace adcache;
using namespace adcache::kv;

namespace
{

constexpr std::uint64_t kOps = 300'000;
constexpr std::uint64_t kCapacity = 4'096;

struct Schedule
{
    std::string name;
    KeyStreamSpec spec;
};

std::vector<Schedule>
schedules()
{
    std::vector<Schedule> out;

    KeyStreamSpec zipf;
    zipf.pattern = KeyPattern::Zipf;
    zipf.keySpace = 1 << 16;
    zipf.skew = 1.0;
    zipf.seed = 11;
    out.push_back({"zipf_static", zipf});

    KeyStreamSpec drift = zipf;
    drift.driftEvery = 50'000;
    drift.seed = 12;
    out.push_back({"zipf_drift", drift});

    KeyStreamSpec flip_slow = zipf;
    flip_slow.pattern = KeyPattern::PhaseFlip;
    flip_slow.phasePeriod = 75'000;
    flip_slow.scanSpan = 4 * kCapacity;
    flip_slow.seed = 13;
    out.push_back({"flip_slow", flip_slow});

    KeyStreamSpec flip_fast = flip_slow;
    flip_fast.phasePeriod = 20'000;
    flip_fast.seed = 14;
    out.push_back({"flip_fast", flip_fast});

    KeyStreamSpec flip_drift = flip_slow;
    flip_drift.driftEvery = 60'000;
    flip_drift.seed = 15;
    out.push_back({"flip_drift", flip_drift});

    return out;
}

KvConfig
cacheConfig(SelectorMode mode)
{
    KvConfig c;
    c.capacity = kCapacity;
    c.numShards = 1; // policy comparison wants one selection domain
    c.numBuckets = 1'024;
    c.bucketWays = 4; // buckets x ways == capacity: shadows model
                      // exactly the capacity the cache has
    c.leaderEvery = 8;
    c.shadowTagBits = 16;
    c.selector = mode;
    c.keyHash = KeyHashKind::Mix;
    return c;
}

/**
 * The admission duel's contenders: the adapted dimension is the
 * TinyLFU filter itself. Both components evict by recency; one fills
 * through the filter, the other fills unconditionally, and the
 * selection engine imitates whichever wastes fewer fills. The fixed
 * baselines pin the filter always-on / always-off.
 */
KvConfig
admissionConfig(bool adaptive, bool filter_on)
{
    KvConfig c = cacheConfig(adaptive ? SelectorMode::Adaptive
                                      : SelectorMode::FixedLru);
    c.components[0] = {PolicyType::LRU, adaptive || filter_on};
    c.components[1] = {PolicyType::LRU, false};
    return c;
}

/**
 * One (schedule, selector) cell. When @p series_grid is non-null the
 * run also samples a per-interval snapshot series (hit rate, winner
 * share) on a reference-count cadence and appends the rows.
 */
double
runOne(const Schedule &schedule, const KvConfig &config,
       StatRegistry *stats, ReportGrid *series_grid = nullptr)
{
    AdaptiveKvCache cache(config);
    KeyStream stream(schedule.spec);

    std::optional<obs::SnapshotSeries> series;
    if (series_grid) {
        series.emplace(obs::Session::seriesInterval(kOps / 50),
                       [&](StatRegistry &reg) {
                           cache.registerStats(reg, "kv.");
                       });
        series->derive("interval_miss_rate",
                       obs::SnapshotSeries::share("kv.misses",
                                                  "kv.references"));
        series->derive("winner_lru_share",
                       obs::SnapshotSeries::share("kv.decisions.lru",
                                                  "kv.evictions"));
        series->derive(
            "fallback_rate",
            obs::SnapshotSeries::share("kv.fallback_evictions",
                                       "kv.evictions"));
    }

    constexpr std::uint64_t kChunk = 4'096;
    for (std::uint64_t i = 0; i < kOps;) {
        const std::uint64_t end = std::min(kOps, i + kChunk);
        for (; i < end; ++i)
            cache.fetch(stream.next(),
                        [] { return std::string("v"); });
        if (series)
            series->tick(i);
    }
    if (series) {
        series->finish(kOps);
        series->appendTo(*series_grid, schedule.name);
    }

    cache.registerStats(*stats, "kv.");
    // Admission-rate column: fills the filter refused, per reference
    // (0 when the configuration carries no filter).
    const StatEntry *rejects = stats->find("kv.admit_rejects");
    stats->value("kv.admission_reject_rate",
                 rejects ? rejects->numeric() /
                               stats->numeric("kv.references")
                         : 0.0);
    return stats->numeric("kv.hit_rate");
}

} // namespace

int
main()
{
    obs::Session session("kv_phase_flip");
    const SelectorMode modes[] = {SelectorMode::Adaptive,
                                  SelectorMode::FixedLru,
                                  SelectorMode::FixedLfu};

    ReportGrid grid;
    grid.experiment = "kv_phase_flip";
    grid.benchmarkHeader = "schedule";
    grid.variantHeader = "selector";
    grid.addMeta("ops", std::to_string(kOps));
    grid.addMeta("capacity", std::to_string(kCapacity));

    ReportGrid series_grid;
    series_grid.experiment = "kv_phase_flip adaptive series";
    series_grid.addMeta("ops", std::to_string(kOps));

    bool adaptive_holds = true;
    for (const Schedule &schedule : schedules()) {
        double rate[3] = {};
        for (int m = 0; m < 3; ++m) {
            ReportRow &row = grid.add(schedule.name,
                                      selectorModeName(modes[m]));
            row.stats.text("stream", schedule.spec.describe());
            // Snapshot series only for the adaptive runs: the fixed
            // policies are the flat baselines.
            ReportGrid *series =
                modes[m] == SelectorMode::Adaptive &&
                        session.seriesRequested()
                    ? &series_grid
                    : nullptr;
            rate[m] = runOne(schedule, cacheConfig(modes[m]),
                             &row.stats, series);
        }
        const double best_fixed = std::max(rate[1], rate[2]);
        // "Matching" tolerance: the adaptive cache pays for its
        // learning window; 1% of the better fixed policy's hit rate.
        const bool ok = rate[0] >= best_fixed - 0.01;
        adaptive_holds = adaptive_holds && ok;
        if (reportFormat() == ReportFormat::Table)
            std::printf("[%-11s] adaptive %.4f  lru %.4f  lfu %.4f"
                        "  -> %s best fixed\n",
                        schedule.name.c_str(), rate[0], rate[1],
                        rate[2], ok ? "matches/beats" : "TRAILS");
    }

    // ---- Admission duel ------------------------------------------
    // Adaptive admission (filter-on vs filter-off LRU twins) against
    // the always-on and always-off baselines. On the phase-flip
    // schedules neither baseline wins both regimes: the filter saves
    // the working set during scans but starves a shifting hot set.
    // Adaptivity must match or beat the better baseline on at least
    // one skewed-vs-scan schedule.
    struct Duelist
    {
        const char *name;
        bool adaptive;
        bool filterOn;
    };
    const Duelist duelists[] = {{"adm_adaptive", true, false},
                                {"adm_on", false, true},
                                {"adm_off", false, false}};
    unsigned duel_wins = 0;
    for (const Schedule &schedule : schedules()) {
        if (schedule.spec.pattern != KeyPattern::PhaseFlip)
            continue;
        double rate[3] = {};
        double adm[3] = {};
        for (int d = 0; d < 3; ++d) {
            ReportRow &row =
                grid.add(schedule.name, duelists[d].name);
            row.stats.text("stream", schedule.spec.describe());
            rate[d] = runOne(schedule,
                             admissionConfig(duelists[d].adaptive,
                                             duelists[d].filterOn),
                             &row.stats);
            adm[d] =
                row.stats.numeric("kv.admission_reject_rate");
        }
        const double best_fixed = std::max(rate[1], rate[2]);
        const bool ok = rate[0] >= best_fixed - 0.01;
        duel_wins += ok ? 1 : 0;
        if (reportFormat() == ReportFormat::Table)
            std::printf("[%-11s] adm-adaptive %.4f (rej %.3f)  "
                        "adm-on %.4f (rej %.3f)  adm-off %.4f"
                        "  -> %s best fixed\n",
                        schedule.name.c_str(), rate[0], adm[0],
                        rate[1], adm[1], rate[2],
                        ok ? "matches/beats" : "TRAILS");
    }
    const bool admission_holds = duel_wins >= 1;

    session.writeSeries(series_grid);
    grid.addMeta("adaptive_matches_best_fixed",
                 adaptive_holds ? "true" : "false");
    grid.addMeta("admission_adaptivity_holds",
                 admission_holds ? "true" : "false");
    if (reportFormat() == ReportFormat::Table)
        std::printf("verdict: adaptive %s the better fixed policy on "
                    "every schedule; admission adaptivity %s\n",
                    adaptive_holds ? "matches or beats" : "TRAILS",
                    admission_holds ? "holds" : "FAILS");
    else
        emitReport(grid, reportFormat());
    return adaptive_holds && admission_holds ? 0 : 1;
}
