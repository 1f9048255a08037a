#include "net/calls.hh"

namespace adcache::net
{

void
KvCalls::setRequest(const Message &m)
{
    request_.clear();
    encodeFrame(m, &request_);
}

std::optional<std::string>
KvCalls::get(std::uint64_t key)
{
    setRequest(Message::get(key));
    MessageView r;
    if (!exchange(&r) || r.kind != MsgKind::Value)
        return std::nullopt;
    return std::string(r.payload);
}

bool
KvCalls::put(std::uint64_t key, std::string_view value,
             std::uint32_t ttl)
{
    request_.clear();
    encodePut(key, value, ttl, &request_);
    MessageView r;
    return exchange(&r) && r.kind == MsgKind::Ok;
}

bool
KvCalls::del(std::uint64_t key)
{
    setRequest(Message::del(key));
    MessageView r;
    return exchange(&r) && r.kind == MsgKind::Ok;
}

bool
KvCalls::ping()
{
    setRequest(Message::ping());
    MessageView r;
    return exchange(&r) && r.kind == MsgKind::Ok;
}

std::string
KvCalls::stats()
{
    setRequest(Message::stats());
    MessageView r;
    if (!exchange(&r) || r.kind != MsgKind::Value)
        return std::string();
    return std::string(r.payload);
}

bool
KvCalls::stats2(std::uint16_t *shardCount,
                std::vector<StatSample> *samples)
{
    setRequest(Message::stats2());
    MessageView r;
    return exchange(&r) && r.kind == MsgKind::StatsV2 &&
           decodeStatsV2(r.payload, shardCount, samples);
}

std::vector<std::optional<std::string>>
KvCalls::mget(const std::vector<std::uint64_t> &keys)
{
    std::vector<std::optional<std::string>> out(keys.size());
    request_.clear();
    encodeMGet(keys, &request_);
    MessageView r;
    if (!exchange(&r) || r.kind != MsgKind::Values ||
        r.count != keys.size())
        return out;
    std::size_t off = 0;
    for (std::optional<std::string> &o : out) {
        MGetStatus status;
        std::string_view value;
        off = nextValuesEntry(r.items, off, &status, &value);
        if (status == MGetStatus::Found)
            o.emplace(value);
    }
    return out;
}

} // namespace adcache::net
