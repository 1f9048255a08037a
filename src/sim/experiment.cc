#include "sim/experiment.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "sim/runner.hh"
#include "util/logging.hh"

namespace adcache
{

InstCount
parseInstrBudget(const char *text, InstCount fallback)
{
    if (!text)
        return fallback;
    // strtoull silently wraps negative input to a huge positive
    // value, so accept plain digit strings only.
    if (*text < '0' || *text > '9') {
        warn("ignoring malformed ADCACHE_INSTRS='%s'", text);
        return fallback;
    }
    // Out-of-range input clamps to ULLONG_MAX with ERANGE; a budget
    // that large never finishes, so reject it too.
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end && *end == '\0' && v > 0 && errno != ERANGE)
        return InstCount(v);
    warn("ignoring malformed ADCACHE_INSTRS='%s'", text);
    return fallback;
}

InstCount
instrBudget()
{
    static const InstCount budget =
        parseInstrBudget(std::getenv("ADCACHE_INSTRS"), 3'000'000);
    return budget;
}

SimResult
runTimed(const SystemConfig &config, const BenchmarkDef &def,
         InstCount instrs)
{
    RunJob job{&def, config, instrs, /*timed=*/true, def.spec.seed};
    return executeJob(job);
}

SimResult
runFunctional(const SystemConfig &config, const BenchmarkDef &def,
              InstCount instrs)
{
    RunJob job{&def, config, instrs, /*timed=*/false, def.spec.seed};
    return executeJob(job);
}

namespace
{

/** Reshape a flat index-ordered grid back into per-benchmark rows. */
std::vector<SuiteRow>
gridToRows(const std::vector<const BenchmarkDef *> &benchmarks,
           std::size_t num_variants, std::vector<SimResult> grid)
{
    std::vector<SuiteRow> rows;
    rows.reserve(benchmarks.size());
    std::size_t i = 0;
    for (const BenchmarkDef *def : benchmarks) {
        SuiteRow row;
        row.benchmark = def->name;
        row.results.reserve(num_variants);
        for (std::size_t v = 0; v < num_variants; ++v)
            row.results.push_back(std::move(grid[i++]));
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace

std::vector<SuiteRow>
runConfigSuite(const std::vector<const BenchmarkDef *> &benchmarks,
               const std::vector<ConfigVariant> &variants,
               InstCount instrs, bool timed)
{
    std::vector<RunJob> jobs;
    jobs.reserve(benchmarks.size() * variants.size());
    for (const BenchmarkDef *def : benchmarks) {
        for (const ConfigVariant &variant : variants) {
            // The seed is fixed here, while the grid is built: every
            // variant of a benchmark replays the same stream, and a
            // job's stream never depends on execution order.
            jobs.push_back(RunJob{def, variant.config, instrs, timed,
                                  def->spec.seed});
        }
    }
    return gridToRows(benchmarks, variants.size(), runGrid(jobs));
}

std::vector<SuiteRow>
runSuite(const std::vector<const BenchmarkDef *> &benchmarks,
         const std::vector<L2Spec> &variants, InstCount instrs,
         bool timed, const SystemConfig &base)
{
    std::vector<ConfigVariant> configs;
    configs.reserve(variants.size());
    for (const L2Spec &variant : variants) {
        ConfigVariant cv;
        cv.label = variant.label();
        cv.config = base;
        cv.config.l2 = variant;
        configs.push_back(std::move(cv));
    }
    return runConfigSuite(benchmarks, configs, instrs, timed);
}

std::vector<double>
averageOf(const std::vector<SuiteRow> &rows,
          double (*metric)(const SimResult &))
{
    std::vector<double> avg;
    if (rows.empty())
        return avg;
    avg.assign(rows.front().results.size(), 0.0);
    for (const auto &row : rows) {
        adcache_assert(row.results.size() == avg.size());
        for (std::size_t v = 0; v < avg.size(); ++v)
            avg[v] += metric(row.results[v]);
    }
    for (auto &a : avg)
        a /= double(rows.size());
    return avg;
}

double
metricCpi(const SimResult &r)
{
    return r.cpi;
}

double
metricL2Mpki(const SimResult &r)
{
    return r.l2Mpki;
}

double
metricL1iMpki(const SimResult &r)
{
    return r.l1iMpki;
}

double
metricL1dMpki(const SimResult &r)
{
    return r.l1dMpki;
}

double
metricL2DemandMpki(const SimResult &r)
{
    return r.l2DemandMpki;
}

void
printConfigBanner(const SystemConfig &config,
                  const std::string &experiment, InstCount budget)
{
    std::printf("=== %s ===\n", experiment.c_str());
    std::printf("%s", config.describe().c_str());
    std::printf("instruction budget per run: %llu (ADCACHE_INSTRS), "
                "%u worker(s) (ADCACHE_JOBS)\n\n",
                static_cast<unsigned long long>(budget),
                runnerJobs());
}

} // namespace adcache
