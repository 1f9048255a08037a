/**
 * @file
 * Span recording for the traced run. The benchmark wraps its own
 * calls into each layer in spans (name, start, end, parent span,
 * request id); each thread writes into its own preallocated ring,
 * so recording takes no lock and allocates nothing, and the rings are
 * written once at exit as a Chrome trace_event document (loadable in
 * Perfetto / chrome://tracing).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

/** One recorded span. @c name points at a string literal. */
struct Span
{
    const char *name = nullptr;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::uint64_t request = 0;
    std::uint64_t t0Ns = 0;
    std::uint64_t t1Ns = 0;
};

/** One thread's span ring; keeps the most recent spans (the
 *  requested capacity rounded up to a power of two). */
class SpanRing
{
  public:
    SpanRing(unsigned tid, std::size_t capacity);

    /** Reserve a span id (for a parent whose children end first). */
    std::uint64_t
    newId()
    {
        return (std::uint64_t(tid_ + 1) << 40) | ++nextId_;
    }

    void
    record(const char *name, std::uint64_t id, std::uint64_t parent,
           std::uint64_t request, std::uint64_t t0, std::uint64_t t1)
    {
        spans_[written_ & (spans_.size() - 1)] =
            Span{name, id, parent, request, t0, t1};
        ++written_;
    }

    /** The retained spans, oldest first. */
    std::vector<Span> retained() const;

  private:
    unsigned tid_;
    std::vector<Span> spans_;
    std::uint64_t written_ = 0;
    std::uint64_t nextId_ = 0;
};

/** The rings of one traced run, one per recording thread. */
class Tracer
{
  public:
    /** @p rings rings of @p capacity spans each. */
    Tracer(unsigned rings, std::size_t capacity);

    SpanRing &ring(unsigned t) { return *rings_[t]; }

    /** Write every ring as Chrome trace JSON. @return false on I/O
     *  failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<std::unique_ptr<SpanRing>> rings_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
