/**
 * @file
 * On-disk regression corpus for the differential harness.
 *
 * A trace file is plain text: comment lines (#...), one `config`
 * line naming the production/oracle pair, then one access per line
 * (`R 0xADDR` / `W 0xADDR`). Shrunk repro streams are checked in
 * under tests/data/regressions/ and replayed by ctest; see
 * docs/TESTING.md for how to add one.
 *
 * Config-line grammar (keys may appear in any order):
 *   config cache policy=lru size=4096 assoc=4 line=64
 *   config adaptive policies=lru+lfu size=4096 assoc=4 line=64 \
 *          partial=8 xor=0 history=16 exact=0 admit=0+1
 *   (adaptive: history=0 or absent is the associativity, exact=1
 *   selects exact counters; absent keys take the defaults)
 *   config sbar pola=lru polb=lfu size=65536 assoc=8 line=64 \
 *          leaders=8 partial=0 xor=0 psel=10 history=0
 */

#ifndef ADCACHE_ORACLE_CORPUS_HH
#define ADCACHE_ORACLE_CORPUS_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "oracle/differential.hh"

namespace adcache
{

/** One parsed regression trace. */
struct RegressionTrace
{
    std::string configLine;  //!< without the leading "config "
    PairFactory factory;
    std::vector<Access> stream;
};

/** Parse a trace from @p in; fatal() on malformed input. */
RegressionTrace parseTrace(std::istream &in);

/** Render a trace file (config line + accesses). */
std::string formatTrace(const std::string &config_line,
                        const std::vector<Access> &stream);

/** Build a PairFactory from a config line (no "config " prefix). */
PairFactory pairFactoryFor(const std::string &config_line);

/** Config-line builders matching pairFactoryFor's grammar. */
std::string cacheConfigLine(const CacheConfig &config);
std::string adaptiveConfigLine(const AdaptiveConfig &config);
std::string sbarConfigLine(const SbarConfig &config);

} // namespace adcache

#endif // ADCACHE_ORACLE_CORPUS_HH
