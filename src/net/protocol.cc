#include "net/protocol.hh"

namespace adcache::net
{

namespace
{

void
putU32(std::uint32_t v, std::string *out)
{
    out->push_back(char(v & 0xff));
    out->push_back(char((v >> 8) & 0xff));
    out->push_back(char((v >> 16) & 0xff));
    out->push_back(char((v >> 24) & 0xff));
}

void
putU64(std::uint64_t v, std::string *out)
{
    putU32(std::uint32_t(v & 0xffffffffu), out);
    putU32(std::uint32_t(v >> 32), out);
}

std::uint32_t
getU32(const unsigned char *p)
{
    return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
           (std::uint32_t(p[2]) << 16) | (std::uint32_t(p[3]) << 24);
}

std::uint64_t
getU64(const unsigned char *p)
{
    return std::uint64_t(getU32(p)) |
           (std::uint64_t(getU32(p + 4)) << 32);
}

} // namespace

const char *
msgKindName(MsgKind kind)
{
    switch (kind) {
      case MsgKind::Get:
        return "get";
      case MsgKind::Put:
        return "put";
      case MsgKind::Del:
        return "del";
      case MsgKind::Ping:
        return "ping";
      case MsgKind::Stats:
        return "stats";
      case MsgKind::MGet:
        return "mget";
      case MsgKind::Ok:
        return "ok";
      case MsgKind::Value:
        return "value";
      case MsgKind::NotFound:
        return "not_found";
      case MsgKind::Error:
        return "error";
      case MsgKind::Values:
        return "values";
      case MsgKind::StatsV2:
        return "stats_v2";
    }
    return "?";
}

bool
isRequestKind(MsgKind kind)
{
    return std::uint8_t(kind) < 0x80;
}

Message
Message::get(std::uint64_t key)
{
    Message m;
    m.kind = MsgKind::Get;
    m.key = key;
    return m;
}

Message
Message::put(std::uint64_t key, std::string_view value,
             std::uint32_t ttl)
{
    Message m;
    m.kind = MsgKind::Put;
    m.key = key;
    m.ttl = ttl;
    m.payload = value;
    return m;
}

Message
Message::del(std::uint64_t key)
{
    Message m;
    m.kind = MsgKind::Del;
    m.key = key;
    return m;
}

Message
Message::ping()
{
    Message m;
    m.kind = MsgKind::Ping;
    return m;
}

Message
Message::stats()
{
    Message m;
    m.kind = MsgKind::Stats;
    return m;
}

Message
Message::stats2()
{
    Message m;
    m.kind = MsgKind::Stats;
    m.statsVersion = 2;
    return m;
}

Message
Message::mget(std::vector<std::uint64_t> keys)
{
    Message m;
    m.kind = MsgKind::MGet;
    m.keys = std::move(keys);
    return m;
}

Message
Message::ok()
{
    Message m;
    m.kind = MsgKind::Ok;
    return m;
}

Message
Message::value(std::string_view v)
{
    Message m;
    m.kind = MsgKind::Value;
    m.payload = v;
    return m;
}

Message
Message::notFound()
{
    Message m;
    m.kind = MsgKind::NotFound;
    return m;
}

Message
Message::error(std::string_view text)
{
    Message m;
    m.kind = MsgKind::Error;
    m.payload = text;
    return m;
}

Message
Message::values(std::vector<MGetEntry> entries)
{
    Message m;
    m.kind = MsgKind::Values;
    m.entries = std::move(entries);
    return m;
}

Message
Message::statsV2Response(std::string blob)
{
    Message m;
    m.kind = MsgKind::StatsV2;
    m.payload = std::move(blob);
    return m;
}

void
encodeFrame(const Message &m, std::string *out)
{
    std::string body;
    body.push_back(char(m.kind));
    switch (m.kind) {
      case MsgKind::Get:
      case MsgKind::Del:
        putU64(m.key, &body);
        break;
      case MsgKind::Put:
        putU64(m.key, &body);
        putU32(m.ttl, &body);
        body.append(m.payload);
        break;
      case MsgKind::Ping:
      case MsgKind::Ok:
      case MsgKind::NotFound:
        break;
      case MsgKind::Stats:
        // v1 keeps the historical empty body; later versions carry
        // one version byte.
        if (m.statsVersion > 1)
            body.push_back(char(m.statsVersion));
        break;
      case MsgKind::Value:
      case MsgKind::Error:
      case MsgKind::StatsV2:
        body.append(m.payload);
        break;
      case MsgKind::MGet:
        putU32(std::uint32_t(m.keys.size()), &body);
        for (const std::uint64_t k : m.keys)
            putU64(k, &body);
        break;
      case MsgKind::Values: {
        std::size_t bytes = 4;
        for (const MGetEntry &e : m.entries)
            bytes += 5 + e.value.size();
        body.reserve(1 + bytes);
        putU32(std::uint32_t(m.entries.size()), &body);
        for (const MGetEntry &e : m.entries) {
            body.push_back(char(e.status));
            putU32(std::uint32_t(e.value.size()), &body);
            body.append(e.value);
        }
        break;
      }
    }
    putU32(std::uint32_t(body.size()), out);
    out->append(body);
}

std::string
encodedFrame(const Message &m)
{
    std::string out;
    encodeFrame(m, &out);
    return out;
}

bool
decodeBody(std::string_view body, Message *out)
{
    if (body.empty())
        return false;
    const auto *p =
        reinterpret_cast<const unsigned char *>(body.data());
    const auto kind = MsgKind(p[0]);
    Message m;
    m.kind = kind;
    switch (kind) {
      case MsgKind::Get:
      case MsgKind::Del:
        if (body.size() != 1 + 8)
            return false;
        m.key = getU64(p + 1);
        break;
      case MsgKind::Put:
        if (body.size() < 1 + 8 + 4)
            return false;
        m.key = getU64(p + 1);
        m.ttl = getU32(p + 9);
        m.payload.assign(body.substr(13));
        break;
      case MsgKind::Ping:
      case MsgKind::Ok:
      case MsgKind::NotFound:
        if (body.size() != 1)
            return false;
        break;
      case MsgKind::Stats:
        if (body.size() > 2)
            return false;
        // An out-of-range version still decodes (the service
        // answers Error); only the frame shape is validated here.
        m.statsVersion = body.size() == 2 ? p[1] : 1;
        break;
      case MsgKind::Value:
      case MsgKind::Error:
      case MsgKind::StatsV2:
        m.payload.assign(body.substr(1));
        break;
      case MsgKind::MGet: {
        if (body.size() < 1 + 4)
            return false;
        const std::size_t count = getU32(p + 1);
        if (count > kMaxMGetKeys ||
            body.size() != 1 + 4 + 8 * count)
            return false;
        m.keys.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            m.keys.push_back(getU64(p + 5 + 8 * i));
        break;
      }
      case MsgKind::Values: {
        if (body.size() < 1 + 4)
            return false;
        const std::size_t count = getU32(p + 1);
        if (count > kMaxMGetKeys)
            return false;
        m.entries.reserve(count);
        std::size_t off = 5;
        for (std::size_t i = 0; i < count; ++i) {
            if (body.size() - off < 5)
                return false;
            const std::uint8_t status = p[off];
            if (status > std::uint8_t(MGetStatus::Error))
                return false;
            const std::size_t len = getU32(p + off + 1);
            off += 5;
            if (body.size() - off < len)
                return false;
            MGetEntry e;
            e.status = MGetStatus(status);
            e.value.assign(body.substr(off, len));
            m.entries.push_back(std::move(e));
            off += len;
        }
        if (off != body.size())
            return false;
        break;
      }
      default:
        return false;
    }
    *out = std::move(m);
    return true;
}

void
FrameReader::feed(std::string_view bytes)
{
    if (corrupt_)
        return;
    if (pos_ == buf_.size()) {
        // Everything buffered was consumed: restart at the front, so
        // a reader of whole frames never grows past its largest one.
        buf_.clear();
        pos_ = 0;
    } else if (pos_ > maxFrame_) {
        // A partial frame is pending: compact the consumed prefix
        // before it outgrows one max frame.
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    buf_.append(bytes);
}

FrameReader::Status
FrameReader::next(std::string *body)
{
    if (corrupt_)
        return Status::Corrupt;
    if (buffered() < 4)
        return Status::NeedMore;
    const auto *p = reinterpret_cast<const unsigned char *>(
        buf_.data() + pos_);
    const std::uint32_t len = getU32(p);
    if (len > maxFrame_) {
        corrupt_ = true;
        return Status::Corrupt;
    }
    if (buffered() < 4 + std::size_t(len))
        return Status::NeedMore;
    body->assign(buf_, pos_ + 4, len);
    pos_ += 4 + len;
    return Status::Frame;
}

} // namespace adcache::net
