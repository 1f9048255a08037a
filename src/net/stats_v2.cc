#include "net/stats_v2.hh"

namespace adcache::net
{

const char *
statTagName(StatTag tag)
{
    // One case per tagged row: a reused tag number fails to compile.
#define ADCACHE_NAME_TAG(enumerator, number, name)                        \
    case StatTag::enumerator:                                             \
        return name;
#define ADCACHE_NAME_NO_TAG
#define ADCACHE_TAG_NAME(value, v1, tag, ...) ADCACHE_NAME_##tag
    switch (tag) {
        ADCACHE_KV_COUNTERS(ADCACHE_TAG_NAME)
        ADCACHE_SERVICE_COUNTERS(ADCACHE_TAG_NAME)
        ADCACHE_TRANSPORT_COUNTERS(ADCACHE_TAG_NAME)
        ADCACHE_TRACE_COUNTERS(ADCACHE_TAG_NAME)
    }
    return "?";
}

namespace
{

void
putU16(std::uint16_t v, std::string *out)
{
    out->push_back(char(v & 0xff));
    out->push_back(char((v >> 8) & 0xff));
}

void
putU32(std::uint32_t v, std::string *out)
{
    putU16(std::uint16_t(v & 0xffff), out);
    putU16(std::uint16_t(v >> 16), out);
}

void
putU64(std::uint64_t v, std::string *out)
{
    putU32(std::uint32_t(v & 0xffffffffu), out);
    putU32(std::uint32_t(v >> 32), out);
}

std::uint16_t
getU16(const unsigned char *p)
{
    return std::uint16_t(p[0] | (p[1] << 8));
}

std::uint32_t
getU32(const unsigned char *p)
{
    return std::uint32_t(getU16(p)) |
           (std::uint32_t(getU16(p + 2)) << 16);
}

std::uint64_t
getU64(const unsigned char *p)
{
    return std::uint64_t(getU32(p)) |
           (std::uint64_t(getU32(p + 4)) << 32);
}

} // namespace

std::string
encodeStatsV2(std::uint16_t shardCount,
              const std::vector<StatSample> &samples)
{
    std::string out;
    out.reserve(1 + 2 + 4 + samples.size() * 12);
    out.push_back(char(kStatsV2Version));
    putU16(shardCount, &out);
    putU32(std::uint32_t(samples.size()), &out);
    for (const StatSample &s : samples) {
        putU16(std::uint16_t(s.tag), &out);
        putU16(s.shard, &out);
        putU64(s.value, &out);
    }
    return out;
}

bool
decodeStatsV2(std::string_view blob, std::uint16_t *shardCount,
              std::vector<StatSample> *samples)
{
    if (blob.size() < 1 + 2 + 4)
        return false;
    const auto *p =
        reinterpret_cast<const unsigned char *>(blob.data());
    if (p[0] != kStatsV2Version)
        return false;
    const std::uint16_t shards = getU16(p + 1);
    const std::size_t count = getU32(p + 3);
    if (blob.size() != 7 + count * 12)
        return false;
    std::vector<StatSample> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const unsigned char *e = p + 7 + i * 12;
        StatSample s;
        s.tag = StatTag(getU16(e));
        s.shard = getU16(e + 2);
        s.value = getU64(e + 4);
        out.push_back(s);
    }
    if (shardCount != nullptr)
        *shardCount = shards;
    *samples = std::move(out);
    return true;
}

} // namespace adcache::net
