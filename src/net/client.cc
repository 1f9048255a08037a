#include "net/client.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace adcache::net
{

KvClient::~KvClient()
{
    close();
}

void
KvClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    responses_ = FrameReader();
}

bool
KvClient::connect(const std::string &host, std::uint16_t port,
                  bool no_delay)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        lastError_ = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        lastError_ = "bad host address: " + host;
        close();
        return false;
    }
    for (;;) {
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) == 0)
            break;
        if (errno == EINTR)
            continue;
        lastError_ = std::string("connect: ") + std::strerror(errno);
        close();
        return false;
    }
    if (no_delay) {
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof one);
    }
    return true;
}

bool
KvClient::writeAll(const char *data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::write(fd_, data + off, size - off);
        if (n > 0) {
            off += std::size_t(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        lastError_ = std::string("write: ") + std::strerror(errno);
        return false;
    }
    return true;
}

bool
KvClient::readFrame(std::string_view *body)
{
    for (;;) {
        switch (responses_.next(body)) {
          case FrameReader::Status::Frame:
            return true;
          case FrameReader::Status::Corrupt:
            lastError_ = "corrupt response framing";
            return false;
          case FrameReader::Status::NeedMore:
            break;
        }
        char buf[16 * 1024];
        const ssize_t n = ::read(fd_, buf, sizeof buf);
        if (n > 0) {
            responses_.feed(std::string_view(buf, std::size_t(n)));
            continue;
        }
        if (n == 0) {
            lastError_ = "server closed connection mid-response";
            return false;
        }
        if (errno == EINTR)
            continue;
        lastError_ = std::string("read: ") + std::strerror(errno);
        return false;
    }
}

bool
KvClient::exchange(MessageView *response)
{
    if (fd_ < 0) {
        if (lastError_.empty())
            lastError_ = "not connected";
        return false;
    }
    std::string_view body;
    if (!writeAll(request_.data(), request_.size()) ||
        !readFrame(&body)) {
        close();
        return false;
    }
    if (!decodeView(body, response)) {
        close();
        lastError_ = "undecodable response body";
        return false;
    }
    return true;
}

Message
KvClient::call(const Message &request)
{
    request_.clear();
    encodeFrame(request, &request_);
    MessageView resp;
    if (!exchange(&resp))
        return Message::error(lastError_);
    return Message::from(resp);
}

std::size_t
KvClient::sendMany(const std::vector<Message> &requests,
                   std::vector<Message> *responses)
{
    responses->clear();
    responses->reserve(requests.size());
    const auto fail_rest = [&](const std::string &why) {
        close();
        lastError_ = why;
        while (responses->size() < requests.size())
            responses->push_back(Message::error(why));
    };
    if (fd_ < 0) {
        fail_rest(lastError_.empty() ? "not connected" : lastError_);
        return 0;
    }
    request_.clear();
    for (const Message &request : requests)
        encodeFrame(request, &request_);
    if (!writeAll(request_.data(), request_.size())) {
        fail_rest(lastError_);
        return 0;
    }
    std::string_view body;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (!readFrame(&body)) {
            fail_rest(lastError_);
            return i;
        }
        Message resp;
        if (!decodeBody(body, &resp)) {
            fail_rest("undecodable response body");
            return i;
        }
        responses->push_back(std::move(resp));
    }
    return requests.size();
}

} // namespace adcache::net
