/**
 * @file
 * Seeded concurrency fuzzing for the kv cache's lock-free read path
 * (the kv twin of oracle/trace_fuzzer).
 *
 * A schedule is a flat list of (thread, op, key) records; each
 * worker thread executes its own records in schedule order, so the
 * schedule fixes the program of every thread while the hardware
 * supplies the interleaving. Values are derived from keys
 * (expectedValue), which turns every observed hit into an identity
 * check: a probe that returns another key's value — the seqlock/ABA
 * failure mode — is caught at the moment it happens.
 *
 * After the threads join, runOnce audits the quiescent cache: the
 * per-shard accounting identities (references = hits + misses,
 * misses = inserts + rejected, size = inserts - evictions - erases
 * - expirations) and residency consistency (per-shard key lists are
 * duplicate-free, shard-local, and sum to size()). TTL ops (PutTtl /
 * Advance) race lazy expiry against the lock-free probes; the audit
 * tolerates TTL-lapsed entries that are physically resident but
 * logically absent.
 *
 * A failing schedule shrinks by the same ddmin chunk-removal loop
 * the trace fuzzer uses; because thread interleaving is
 * nondeterministic, the predicate re-runs each candidate several
 * times and keeps it only if some run still fails. toLiteral()
 * renders the shrunken schedule as a replayable C++ initializer
 * (runSerial replays it single-threaded as the canonical witness).
 */

#ifndef ADCACHE_ORACLE_KV_FUZZER_HH
#define ADCACHE_ORACLE_KV_FUZZER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kv/adaptive_kv_cache.hh"
#include "util/rng.hh"

namespace adcache
{

/** One fuzzed kv operation. */
enum class KvFuzzOpKind : std::uint8_t
{
    Get,
    Put,
    Fetch,
    Erase,
    Pin,
    Unpin,
    /** put with a short key-derived TTL (1 + key % 4 ticks). */
    PutTtl,
    /** Advance the cache's logical clock one tick (key unused) —
     *  racing expiry against readers is the point. */
    Advance,
    /** getMany over the window [key, key + 8): the batched probe
     *  path racing writers, with the identity check applied to every
     *  returned member. */
    MGet,
    /** put(key, value, pinned=true): insert or overwrite and pin. */
    PutPinned,
};

/** Printable op-kind name ("get", "put", ...). */
const char *kvFuzzOpName(KvFuzzOpKind kind);

struct KvFuzzOp
{
    std::uint8_t thread = 0;
    KvFuzzOpKind kind = KvFuzzOpKind::Get;
    kv::KvKey key = 0;
};

using KvFuzzSchedule = std::vector<KvFuzzOp>;

/** The value every writer stores for @p key (identity oracle). */
std::string kvExpectedValue(kv::KvKey key);

/** Seeded schedule generator + executor (see file comment). */
class KvConcurrencyFuzzer
{
  public:
    /**
     * @param threads  worker threads per run (2-4 is the motif).
     * @param keyspace keys are drawn from [0, keyspace); sized a
     *                 small multiple of capacity so runs actually
     *                 evict.
     */
    KvConcurrencyFuzzer(std::uint64_t seed, unsigned threads,
                        std::uint64_t keyspace);

    /** Generate a schedule of @p length records. */
    KvFuzzSchedule generate(std::size_t length);

    unsigned threads() const { return threads_; }

    /**
     * Execute @p sched concurrently against a fresh cache built
     * from @p config and audit it (see file comment).
     * @return "" on success, else a violation description.
     */
    static std::string runOnce(const KvFuzzSchedule &sched,
                               const kv::KvConfig &config,
                               unsigned threads);

    /**
     * Replay @p sched single-threaded in schedule order — the
     * canonical serial witness for a shrunken failure.
     * @return "" on success, else a violation description.
     */
    static std::string runSerial(const KvFuzzSchedule &sched,
                                 const kv::KvConfig &config);

    /**
     * ddmin-shrink @p failing while @p still_fails holds (the
     * caller's predicate should re-run the schedule a few times to
     * ride out nondeterministic interleavings).
     */
    static KvFuzzSchedule
    shrink(const std::function<bool(const KvFuzzSchedule &)>
               &still_fails,
           KvFuzzSchedule failing);

    /** Render @p sched as a replayable C++ initializer literal. */
    static std::string toLiteral(const KvFuzzSchedule &sched);

  private:
    void emitSegment(KvFuzzSchedule &out, std::size_t budget);

    unsigned threads_;
    std::uint64_t keyspace_;
    Rng rng_;
};

} // namespace adcache

#endif // ADCACHE_ORACLE_KV_FUZZER_HH
