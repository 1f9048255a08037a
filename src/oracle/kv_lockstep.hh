/**
 * @file
 * Lockstep verification of the adaptive key-value cache (src/kv)
 * against its naive model, RefKvShard (oracle/ref_kv_shard.hh).
 *
 * A single-shard AdaptiveKvCache and a RefKvShard built from the same
 * KvConfig run one op schedule side by side — the KvFuzzSchedule of
 * the concurrency fuzzer, replayed on one thread. After every op it
 * compares the full KvOutcome of a filling reference, the
 * values and bools a call returned, contains() of the op's key, and
 * the shard's size, pinned count, winner, per-component history
 * weight and shadow misses, and selection flips. Every 64 ops, and
 * after the last one, it also compares the resident key set and every
 * per-shard KV row of the counter table.
 *
 * Each op stores or loads a value unique to its position, so a read
 * that returns a stale value diverges. A fetch alternates between
 * the facade's two filling surfaces: fetch() (its returned value is
 * compared) and reference() (its KvOutcome is compared).
 */

#ifndef ADCACHE_ORACLE_KV_LOCKSTEP_HH
#define ADCACHE_ORACLE_KV_LOCKSTEP_HH

#include <string>

#include "kv/kv_shard.hh"
#include "oracle/kv_fuzzer.hh"
#include "oracle/ref_kv_shard.hh"

namespace adcache
{

/**
 * Replay @p sched (thread fields ignored) against a single-shard
 * AdaptiveKvCache and a RefKvShard, both built from @p config. On a
 * divergence, drop the ops after it and ddmin-shrink the rest with
 * KvConcurrencyFuzzer::shrink.
 * @param stats_out if non-null, receives the cache's counters after
 *                  a run with no divergence.
 * @param model_out if non-null, receives the model's counters after
 *                  a run with no divergence.
 * @return "" when the two sides agree, else a report naming the
 *         config, the divergence (op, field, expected and actual),
 *         the shrunk schedule's divergence and its toLiteral().
 */
std::string kvLockstepReport(const kv::KvConfig &config,
                             const KvFuzzSchedule &sched,
                             kv::KvShardStats *stats_out = nullptr,
                             RefKvCounters *model_out = nullptr);

} // namespace adcache

#endif // ADCACHE_ORACLE_KV_LOCKSTEP_HH
