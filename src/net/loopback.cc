#include "net/loopback.hh"

#include "obs/trace.hh"
#include "util/logging.hh"

namespace adcache::net
{

bool
KvChannel::ingest(std::string_view bytes, std::string *out,
                  std::size_t out_limit)
{
    if (dead_)
        return false;
    if (!bytes.empty())
        reader_.feed(bytes);
    std::string_view body;
    while (out->size() < out_limit) {
        switch (reader_.next(&body)) {
          case FrameReader::Status::NeedMore:
            return true;
          case FrameReader::Status::Corrupt:
            dead_ = true;
            return false;
          case FrameReader::Status::Frame: {
            ++requests_;
            MessageView req;
            bool ok;
            {
                obs::ScopedSpan span("srv.decode");
                ok = decodeView(body, &req) && isRequestKind(req.kind);
            }
            if (!ok) {
                // Request-fatal only: answer Error, keep framing.
                appendFrame(MsgKind::Error, "malformed request", out);
                break;
            }
            obs::ScopedSpan span("srv.execute");
            service_.serve(req, out);
            break;
          }
        }
    }
    return true;
}

void
LoopbackConnection::feed(std::size_t chunk)
{
    adcache_assert(!channel_.dead());
    responses_.clear();
    responsePos_ = 0;
    if (chunk == 0) {
        channel_.ingest(request_, &responses_);
    } else {
        for (std::size_t i = 0; i < request_.size(); i += chunk)
            channel_.ingest(
                std::string_view(request_).substr(i, chunk),
                &responses_);
    }
}

std::string_view
LoopbackConnection::nextBody()
{
    std::string_view body;
    const auto status = FrameReader::split(responses_, kMaxFrameBytes,
                                           &responsePos_, &body);
    adcache_assert(status == FrameReader::Status::Frame);
    return body;
}

bool
LoopbackConnection::exchange(MessageView *response)
{
    feed(0);
    const bool ok = decodeView(nextBody(), response);
    adcache_assert(ok);
    return true;
}

Message
LoopbackConnection::call(const Message &request, std::size_t chunk)
{
    request_.clear();
    encodeFrame(request, &request_);
    feed(chunk);
    Message resp;
    const bool ok = decodeBody(nextBody(), &resp);
    adcache_assert(ok);
    return resp;
}

std::vector<Message>
LoopbackConnection::callMany(const std::vector<Message> &requests,
                             std::size_t chunk)
{
    request_.clear();
    for (const Message &request : requests)
        encodeFrame(request, &request_);
    feed(chunk);
    std::vector<Message> resps(requests.size());
    for (Message &resp : resps) {
        const bool ok = decodeBody(nextBody(), &resp);
        adcache_assert(ok);
    }
    return resps;
}

} // namespace adcache::net
