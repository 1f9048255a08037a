/**
 * @file
 * KvCalls: the typed requests (get, put, del, ping, stats, stats2,
 * mget) of both client ends — LoopbackConnection and KvClient — over
 * one request/response exchange each transport provides. A call
 * encodes its request into a buffer reused across calls and reads
 * its answer off a MessageView of the response, so the only
 * allocations are the values it returns.
 */

#ifndef ADCACHE_NET_CALLS_HH
#define ADCACHE_NET_CALLS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.hh"
#include "net/stats_v2.hh"

namespace adcache::net
{

/** Typed calls over a transport's exchange() (see file comment). */
class KvCalls
{
  public:
    /** The value of @p key; nullopt on a miss, an Error response or
     *  a transport failure. */
    std::optional<std::string> get(std::uint64_t key);
    bool put(std::uint64_t key, std::string_view value,
             std::uint32_t ttl = 0);
    bool del(std::uint64_t key);
    bool ping();
    /** The v1 stats text; empty on failure. */
    std::string stats();

    /** One Stats-v2 round trip, decoded. @return false on transport
     *  failure, an Error response (pre-v2 server), or a malformed
     *  blob — callers fall back to stats() text. */
    bool stats2(std::uint16_t *shardCount,
                std::vector<StatSample> *samples);

    /** One MGet round trip: out[i] answers keys[i] (Found maps to a
     *  value; Miss, per-key Error, and transport failure all map to
     *  nullopt). */
    std::vector<std::optional<std::string>>
    mget(const std::vector<std::uint64_t> &keys);

  protected:
    KvCalls() = default;
    ~KvCalls() = default;

    /**
     * Send the one request frame in request_ and decode its response
     * into @p response, whose views stay valid until the next
     * exchange. @return false on a transport failure.
     */
    virtual bool exchange(MessageView *response) = 0;

    /** The current call's request frame(s). */
    std::string request_;

  private:
    /** request_ holds @p m's frame alone. */
    void setRequest(const Message &m);
};

} // namespace adcache::net

#endif // ADCACHE_NET_CALLS_HH
