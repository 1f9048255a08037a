/**
 * @file
 * Duel any two replacement policies on any suite benchmark: runs the
 * two conventional caches and the adaptive combination side by side
 * and reports MPKI (plus CPI with --timed). Useful for exploring the
 * design space beyond the paper's LRU/LFU headline pair. Honours
 * ADCACHE_REPORT: json/csv emit the full stat registry per variant.
 *
 *   $ ./policy_duel mcf lru lfu
 *   $ ./policy_duel art-1 fifo mru --timed
 *   $ ADCACHE_REPORT=json ./policy_duel mcf lru lfu
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common.hh"

using namespace adcache;

int
main(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr,
                     "usage: %s <benchmark> <policyA> <policyB> "
                     "[--timed]\n"
                     "policies: lru lfu fifo mru random plru srrip cmslfu\n",
                     argv[0]);
        return 1;
    }
    const auto *bench = findBenchmark(argv[1]);
    if (!bench) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", argv[1]);
        return 1;
    }
    const PolicyType a = parsePolicyType(argv[2]);
    const PolicyType b = parsePolicyType(argv[3]);
    const bool timed = argc > 4 && !std::strcmp(argv[4], "--timed");

    const std::vector<L2Spec> variants = {
        L2Spec::policy(a),
        L2Spec::policy(b),
        L2Spec::adaptiveDual(a, b),
    };
    const auto rows =
        runSuite({bench}, variants, instrBudget(), timed);

    if (!bench::textMode()) {
        ReportGrid grid = gridFromSuite("policy duel", rows, {});
        grid.addMeta("instr_budget", std::to_string(instrBudget()));
        grid.addMeta("timed", timed ? "true" : "false");
        bench::report(grid);
        return 0;
    }

    std::printf("%s, %llu instructions%s\n\n", bench->name.c_str(),
                static_cast<unsigned long long>(instrBudget()),
                timed ? " (timed)" : "");
    for (const auto &res : rows[0].results) {
        std::printf("%-52s MPKI %7.2f", res.l2Label.c_str(),
                    res.l2Mpki);
        if (timed)
            std::printf("  CPI %7.3f", res.cpi);
        std::printf("\n");
    }

    const double best = std::min(rows[0].results[0].l2Mpki,
                                 rows[0].results[1].l2Mpki);
    const double adaptive = rows[0].results[2].l2Mpki;
    if (best > 0)
        std::printf("\nadaptive vs better component: %+.1f%% misses\n",
                    100.0 * (adaptive - best) / best);
    return 0;
}
