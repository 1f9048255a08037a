/**
 * @file
 * Blocking TCP client for the serving subsystem's wire protocol —
 * the transport the YCSB driver and examples/kv_server.cpp peers
 * speak. One connection per client; call() writes one request frame
 * and blocks until the matching response frame arrives. sendMany()
 * pipelines: it writes a whole batch of request frames in one
 * gather, then reads the batch's responses back in order (the
 * protocol answers strictly in request order per connection, so no
 * correlation bookkeeping is needed).
 *
 * All syscalls retry on EINTR; short reads/writes loop until the
 * frame completes. A torn connection (peer EOF mid-frame, ECONNRESET)
 * marks the client dead; every later call answers Error locally.
 * Requests are encoded into a buffer reused across calls and
 * responses decoded as views over the reader's buffer, so a typed
 * call allocates only what it returns.
 */

#ifndef ADCACHE_NET_CLIENT_HH
#define ADCACHE_NET_CLIENT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/calls.hh"
#include "net/protocol.hh"

namespace adcache::net
{

/** Blocking request/response socket client (see file comment). */
class KvClient final : public KvCalls
{
  public:
    KvClient() = default;
    ~KvClient();

    KvClient(const KvClient &) = delete;
    KvClient &operator=(const KvClient &) = delete;

    /**
     * Connect to @p host:@p port. @p no_delay disables Nagle on the
     * socket (the default: the client writes whole frames / whole
     * pipelines, so delaying them only adds latency).
     * @return false (with the reason in lastError()) on failure.
     */
    bool connect(const std::string &host, std::uint16_t port,
                 bool no_delay = true);

    void close();

    bool connected() const { return fd_ >= 0; }

    /**
     * Issue one request and block for its response. On transport
     * failure the connection is closed and a local Error message is
     * returned (kind == MsgKind::Error, payload = lastError()).
     */
    Message call(const Message &request);

    /**
     * Pipeline @p requests: one gathered write of every frame, then
     * the responses read back in request order into @p responses.
     * On transport failure the connection closes and the unanswered
     * tail is filled with local Error messages, mirroring call().
     * @return the number of real responses received.
     */
    std::size_t sendMany(const std::vector<Message> &requests,
                         std::vector<Message> *responses);

    const std::string &lastError() const { return lastError_; }

  private:
    bool exchange(MessageView *response) override;
    bool writeAll(const char *data, std::size_t size);
    /** Read until the response FrameReader yields one frame; the
     *  body views the reader's buffer until the next read. */
    bool readFrame(std::string_view *body);

    int fd_ = -1;
    FrameReader responses_;
    std::string lastError_;
};

} // namespace adcache::net

#endif // ADCACHE_NET_CLIENT_HH
