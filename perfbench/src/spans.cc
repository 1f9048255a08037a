#include "spans.hh"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

namespace perfbench
{

SpanRing::SpanRing(unsigned tid, std::size_t capacity)
    : tid_(tid), spans_(std::bit_ceil(std::max<std::size_t>(capacity, 1)))
{
}

std::vector<Span>
SpanRing::retained() const
{
    const std::size_t cap = spans_.size();
    const std::size_t n = std::min<std::uint64_t>(written_, cap);
    std::vector<Span> out;
    out.reserve(n);
    for (std::uint64_t i = written_ - n; i < written_; ++i)
        out.push_back(spans_[i & (cap - 1)]);
    return out;
}

Tracer::Tracer(unsigned rings, std::size_t capacity)
{
    for (unsigned t = 0; t < rings; ++t)
        rings_.push_back(std::make_unique<SpanRing>(t, capacity));
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::vector<std::vector<Span>> all;
    std::uint64_t origin = UINT64_MAX;
    for (const auto &r : rings_) {
        all.push_back(r->retained());
        for (const Span &s : all.back())
            origin = std::min(origin, s.t0Ns);
    }
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (std::size_t t = 0; t < all.size(); ++t) {
        for (const Span &s : all[t]) {
            const std::uint64_t ts = s.t0Ns - origin;
            const std::uint64_t dur = s.t1Ns - s.t0Ns;
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\","
                         "\"ph\":\"X\",\"ts\":%" PRIu64 ".%03u,"
                         "\"dur\":%" PRIu64 ".%03u,\"pid\":1,"
                         "\"tid\":%zu,\"args\":{\"id\":%" PRIu64
                         ",\"parent\":%" PRIu64 ",\"request\":%" PRIu64
                         "}}",
                         first ? "" : ",", s.name, ts / 1000,
                         unsigned(ts % 1000), dur / 1000,
                         unsigned(dur % 1000), t, s.id, s.parent,
                         s.request);
            first = false;
        }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
