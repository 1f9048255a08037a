#include "net/protocol.hh"

namespace adcache::net
{

namespace
{

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

void
storeU32(std::uint32_t v, char *p)
{
    for (unsigned i = 0; i < 4; ++i)
        p[i] = char((v >> (8 * i)) & 0xff);
}

const unsigned char *
bytesOf(std::string_view s)
{
    return reinterpret_cast<const unsigned char *>(s.data());
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
appendU32(std::uint32_t v, std::string *out)
{
    char b[4];
    storeU32(v, b);
    out->append(b, 4);
}

void
appendU64(std::uint64_t v, std::string *out)
{
    appendU32(std::uint32_t(v & 0xffffffffu), out);
    appendU32(std::uint32_t(v >> 32), out);
}

std::size_t
beginFrame(MsgKind kind, std::string *out)
{
    const std::size_t start = out->size();
    const char head[5] = {0, 0, 0, 0, char(kind)};
    out->append(head, 5);
    return start;
}

void
endFrame(std::size_t start, std::string *out)
{
    storeU32(std::uint32_t(out->size() - start - 4), out->data() + start);
}

void
appendFrame(MsgKind kind, std::string_view payload, std::string *out)
{
    const std::size_t f = beginFrame(kind, out);
    out->append(payload);
    endFrame(f, out);
}

void
encodePut(std::uint64_t key, std::string_view value, std::uint32_t ttl,
          std::string *out)
{
    const std::size_t f = beginFrame(MsgKind::Put, out);
    appendU64(key, out);
    appendU32(ttl, out);
    out->append(value);
    endFrame(f, out);
}

void
encodeMGet(std::span<const std::uint64_t> keys, std::string *out)
{
    const std::size_t f = beginFrame(MsgKind::MGet, out);
    appendU32(std::uint32_t(keys.size()), out);
    for (const std::uint64_t k : keys)
        appendU64(k, out);
    endFrame(f, out);
}

void
encodeFrame(const Message &m, std::string *out)
{
    switch (m.kind) {
      case MsgKind::Get:
      case MsgKind::Del: {
        const std::size_t f = beginFrame(m.kind, out);
        appendU64(m.key, out);
        endFrame(f, out);
        return;
      }
      case MsgKind::Put:
        encodePut(m.key, m.payload, m.ttl, out);
        return;
      case MsgKind::Ping:
      case MsgKind::Ok:
      case MsgKind::NotFound:
        appendFrame(m.kind, {}, out);
        return;
      case MsgKind::Stats: {
        // v1 keeps the historical empty body; later versions carry
        // one version byte.
        const char version = char(m.statsVersion);
        appendFrame(m.kind,
                    std::string_view(&version, m.statsVersion > 1),
                    out);
        return;
      }
      case MsgKind::Value:
      case MsgKind::Error:
      case MsgKind::StatsV2:
        appendFrame(m.kind, m.payload, out);
        return;
      case MsgKind::MGet:
        encodeMGet(m.keys, out);
        return;
      case MsgKind::Values: {
        std::size_t bytes = 1 + 4 + 4;
        for (const MGetEntry &e : m.entries)
            bytes += 5 + e.value.size();
        out->reserve(out->size() + bytes);
        const std::size_t f = beginFrame(m.kind, out);
        appendU32(std::uint32_t(m.entries.size()), out);
        for (const MGetEntry &e : m.entries) {
            out->push_back(char(e.status));
            appendU32(std::uint32_t(e.value.size()), out);
            out->append(e.value);
        }
        endFrame(f, out);
        return;
      }
    }
    // An unknown kind still frames: the kind byte alone.
    appendFrame(m.kind, {}, out);
}

std::string
encodedFrame(const Message &m)
{
    std::string out;
    encodeFrame(m, &out);
    return out;
}

std::uint64_t
MessageView::mgetKey(std::size_t i) const
{
    return getU64(bytesOf(items) + 8 * i);
}

std::size_t
nextValuesEntry(std::string_view items, std::size_t off,
                MGetStatus *status, std::string_view *value)
{
    const unsigned char *p = bytesOf(items) + off;
    const std::size_t len = getU32(p + 1);
    *status = MGetStatus(p[0]);
    *value = items.substr(off + 5, len);
    return off + 5 + len;
}

bool
decodeView(std::string_view body, MessageView *out)
{
    if (body.empty())
        return false;
    const unsigned char *p = bytesOf(body);
    MessageView m;
    m.kind = MsgKind(p[0]);
    switch (m.kind) {
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
        m.payload = body.substr(13);
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
        m.payload = body.substr(1);
        break;
      case MsgKind::MGet: {
        if (body.size() < 1 + 4)
            return false;
        const std::size_t count = getU32(p + 1);
        if (count > kMaxMGetKeys ||
            body.size() != 1 + 4 + 8 * count)
            return false;
        m.count = std::uint32_t(count);
        m.items = body.substr(5);
        break;
      }
      case MsgKind::Values: {
        if (body.size() < 1 + 4)
            return false;
        const std::size_t count = getU32(p + 1);
        if (count > kMaxMGetKeys)
            return false;
        std::size_t off = 5;
        for (std::size_t i = 0; i < count; ++i) {
            if (body.size() - off < 5)
                return false;
            if (p[off] > std::uint8_t(MGetStatus::Error))
                return false;
            const std::size_t len = getU32(p + off + 1);
            off += 5;
            if (body.size() - off < len)
                return false;
            off += len;
        }
        if (off != body.size())
            return false;
        m.count = std::uint32_t(count);
        m.items = body.substr(5);
        break;
      }
      default:
        return false;
    }
    *out = m;
    return true;
}

Message
Message::from(const MessageView &v)
{
    Message m;
    m.kind = v.kind;
    m.key = v.key;
    m.ttl = v.ttl;
    m.payload.assign(v.payload);
    m.statsVersion = v.statsVersion;
    if (v.kind == MsgKind::MGet) {
        m.keys.reserve(v.count);
        for (std::size_t i = 0; i < v.count; ++i)
            m.keys.push_back(v.mgetKey(i));
    } else if (v.kind == MsgKind::Values) {
        m.entries.resize(v.count);
        std::size_t off = 0;
        for (MGetEntry &e : m.entries) {
            std::string_view value;
            off = nextValuesEntry(v.items, off, &e.status, &value);
            e.value.assign(value);
        }
    }
    return m;
}

bool
decodeBody(std::string_view body, Message *out)
{
    MessageView v;
    if (!decodeView(body, &v))
        return false;
    *out = Message::from(v);
    return true;
}

FrameReader::Status
FrameReader::split(std::string_view bytes, std::size_t max_frame,
                   std::size_t *pos, std::string_view *body)
{
    const std::size_t avail = bytes.size() - *pos;
    if (avail < 4)
        return Status::NeedMore;
    const std::uint32_t len = getU32(bytesOf(bytes) + *pos);
    if (len > max_frame)
        return Status::Corrupt;
    if (avail < 4 + std::size_t(len))
        return Status::NeedMore;
    *body = bytes.substr(*pos + 4, len);
    *pos += 4 + len;
    return Status::Frame;
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
FrameReader::next(std::string_view *body)
{
    if (corrupt_)
        return Status::Corrupt;
    const Status status = split(buf_, maxFrame_, &pos_, body);
    corrupt_ = status == Status::Corrupt;
    return status;
}

bool
FrameReader::ready() const
{
    std::size_t pos = pos_;
    std::string_view body;
    return corrupt_ ||
           split(buf_, maxFrame_, &pos, &body) != Status::NeedMore;
}

} // namespace adcache::net
