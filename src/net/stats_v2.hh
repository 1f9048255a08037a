/**
 * @file
 * Stats v2: the versioned, structured form of the STATS opcode.
 *
 * The v1 response is a human-oriented text blob ("name value"
 * lines) with no version marker — fine for a person with netcat,
 * useless for a poller that wants per-shard deltas without parsing
 * free text that changes shape across builds. v2 is a flat list of
 * (tag, shard, u64) samples:
 *
 *   u8  version        == kStatsV2Version
 *   u16 shard_count    shards in the serving cache
 *   u32 count          samples that follow
 *   count x { u16 tag, u16 shard, u64 value }
 *
 * shard == kStatsGlobalShard marks a process/cache-global sample.
 * Tags are append-only: decoders MUST skip unknown tags (that is
 * the whole point of tagging), so old kv_top binaries keep working
 * against newer servers. Integers little-endian like the rest of
 * the protocol; non-integer quantities ride as scaled integers
 * (rates in parts-per-million, latencies in nanoseconds).
 *
 * Requests select the version with an optional body byte on the
 * Stats request: absent = v1 text (byte-compatible with every
 * pre-v2 client), 0x02 = this format.
 */

#ifndef ADCACHE_NET_STATS_V2_HH
#define ADCACHE_NET_STATS_V2_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counter_table.hh"

namespace adcache::net
{

inline constexpr std::uint8_t kStatsV2Version = 2;
inline constexpr std::uint16_t kStatsGlobalShard = 0xFFFF;

/**
 * Sample tags: one enumerator per TAG(...) column of the counter
 * tables (obs/counter_table.hh), which give each tag's number, name
 * and meaning. APPEND ONLY — never renumber.
 */
enum class StatTag : std::uint16_t
{
#define ADCACHE_ENUM_TAG(enumerator, number, name) enumerator = number,
#define ADCACHE_ENUM_NO_TAG
#define ADCACHE_STAT_TAG(value, v1, tag, ...) ADCACHE_ENUM_##tag
    ADCACHE_KV_COUNTERS(ADCACHE_STAT_TAG)
    ADCACHE_SERVICE_COUNTERS(ADCACHE_STAT_TAG)
    ADCACHE_TRANSPORT_COUNTERS(ADCACHE_STAT_TAG)
    ADCACHE_TRACE_COUNTERS(ADCACHE_STAT_TAG)
};

/** Canonical lower-case snake_case name, "?" for unknown tags. */
const char *statTagName(StatTag tag);

/** One sample. */
struct StatSample
{
    StatTag tag{};
    std::uint16_t shard = kStatsGlobalShard;
    std::uint64_t value = 0;

    friend bool operator==(const StatSample &,
                           const StatSample &) = default;
};

/** The Stats v2 plane: append @p c's sample, if its row is tagged. */
inline void
appendSample(std::vector<StatSample> &out, const obs::CounterSample &c)
{
    if (c.row.tag != 0 && c.shard < kStatsGlobalShard)
        out.push_back({StatTag(c.row.tag),
                       c.shard < 0 ? kStatsGlobalShard
                                   : std::uint16_t(c.shard),
                       c.count});
}

/** Encode @p samples into a v2 blob (rides in a StatsV2 payload). */
std::string encodeStatsV2(std::uint16_t shardCount,
                          const std::vector<StatSample> &samples);

/**
 * Decode a v2 blob. @return false on wrong version or truncation;
 * unknown tags are preserved (callers skip what they don't know).
 */
bool decodeStatsV2(std::string_view blob,
                   std::uint16_t *shardCount,
                   std::vector<StatSample> *samples);

} // namespace adcache::net

#endif // ADCACHE_NET_STATS_V2_HH
