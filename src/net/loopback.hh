/**
 * @file
 * The deterministic in-process transport of the serving subsystem.
 *
 * KvChannel is the per-connection protocol engine BOTH transports
 * share: it reassembles frames from arbitrarily chunked bytes,
 * decodes and dispatches each request to the KvService, and appends
 * the encoded responses to an output buffer. The socket server owns
 * one per connection; LoopbackConnection wraps one directly so every
 * protocol/service path is unit-testable — and TSan-checkable —
 * without a single real socket or syscall.
 *
 * Error isolation matches the wire contract (net/protocol.hh): a
 * well-framed but undecodable body answers Error and the channel
 * keeps going; a corrupt length prefix (or a truncated frame at
 * close) kills the channel, mirroring a connection teardown.
 */

#ifndef ADCACHE_NET_LOOPBACK_HH
#define ADCACHE_NET_LOOPBACK_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/calls.hh"
#include "net/protocol.hh"
#include "net/service.hh"

namespace adcache::net
{

/** Per-connection protocol engine (see file comment). */
class KvChannel
{
  public:
    explicit KvChannel(KvService &service) : service_(service) {}

    /**
     * Buffer @p bytes from the peer, then dispatch buffered requests
     * in order — each response frame encoded in place at the end of
     * @p out — while out->size() < @p out_limit. Requests past the
     * limit stay buffered (holding()); a later call, with or without
     * new bytes, resumes them first.
     * @return false when the stream is corrupt and the connection
     *         must be closed (any buffered output should still be
     *         flushed by the transport).
     */
    bool ingest(std::string_view bytes, std::string *out,
                std::size_t out_limit = std::string::npos);

    /** True while complete requests wait for dispatch. */
    bool holding() const { return !dead_ && reader_.ready(); }

    /** True once a framing error killed the channel. */
    bool dead() const { return dead_; }

    /** Bytes of an incomplete trailing frame (nonzero at peer EOF
     *  means the peer died mid-frame). */
    std::size_t pendingBytes() const { return reader_.buffered(); }

    /** Requests dispatched on this channel. */
    std::uint64_t requestsHandled() const { return requests_; }

  private:
    KvService &service_;
    FrameReader reader_;
    bool dead_ = false;
    std::uint64_t requests_ = 0;
};

/**
 * One in-process client "connection": requests go straight through
 * a KvChannel, responses are read back out of its output buffer.
 * Strictly sequential; both buffers are reused across calls, so a
 * typed call allocates only what it returns — the unit-test and
 * YCSB-loopback transport.
 */
class LoopbackConnection final : public KvCalls
{
  public:
    explicit LoopbackConnection(KvService &service)
        : channel_(service)
    {
    }

    /**
     * Issue one request and return its response.
     * @param chunk when nonzero, the encoded request is fed to the
     *        channel @p chunk bytes at a time (partial-read path
     *        coverage).
     */
    Message call(const Message &request, std::size_t chunk = 0);

    /**
     * Pipeline: encode every request back-to-back, feed the channel
     * the whole batch (optionally @p chunk bytes at a time), and
     * return the matching responses in request order — the loopback
     * twin of KvClient::sendMany.
     */
    std::vector<Message> callMany(const std::vector<Message> &requests,
                                  std::size_t chunk = 0);

    bool dead() const { return channel_.dead(); }

  private:
    bool exchange(MessageView *response) override;
    /** Feed request_ to the channel; the responses land in
     *  responses_. */
    void feed(std::size_t chunk);
    /** The body of the next response in responses_. */
    std::string_view nextBody();

    KvChannel channel_;
    std::string responses_;
    std::size_t responsePos_ = 0; //!< consumed prefix of responses_
};

} // namespace adcache::net

#endif // ADCACHE_NET_LOOPBACK_HH
