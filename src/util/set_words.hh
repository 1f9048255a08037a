/**
 * @file
 * Per-set state addressed by a base pointer and a row stride.
 *
 * The replacement policies (cache/policy_sets.hh) and the miss
 * histories (adapt/history.hh) keep each set's (or selection
 * domain's) state in a few 64-bit words: set s's words are
 * base[s * stride + 0 .. n). A structure that stands alone owns a
 * SetRows of stride n. A host that co-locates several structures in
 * one row per set — AdaptiveCache puts its real ways, every
 * component's tag lanes and policy words, and the set's history in
 * one 64-byte-aligned row — hands each structure its row offset and
 * the row stride, and the structure's code is the same either way.
 */

#ifndef ADCACHE_UTIL_SET_WORDS_HH
#define ADCACHE_UTIL_SET_WORDS_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

namespace adcache
{

/** A structure's per-set words inside some SetRows. */
struct SetWords
{
    std::uint64_t *base = nullptr;
    /** Words per row. Not a std::uint64_t, so stores to the rows
     *  cannot alias it and hot loops keep it in a register. */
    unsigned stride = 0;

    /** The first word of @p set. */
    std::uint64_t *
    at(unsigned set) const
    {
        return base + std::size_t(set) * stride;
    }
};

/** Owning, zeroed, 64-byte-aligned storage of num_sets rows. */
class SetRows
{
  public:
    static constexpr std::size_t kAlign = 64;

    SetRows() = default;

    SetRows(unsigned num_sets, std::size_t stride)
        : stride_(stride),
          words_(std::size_t(num_sets) * stride),
          data_(static_cast<std::uint64_t *>(::operator new(
              bytes(), std::align_val_t{kAlign})))
    {
        for (std::size_t i = 0; i < words_; ++i)
            data_.get()[i] = 0;
    }

    /** The words of every row, from word @p offset of each row. */
    SetWords
    words(std::size_t offset = 0) const
    {
        return {data_.get() + offset, unsigned(stride_)};
    }

  private:
    std::size_t bytes() const { return words_ * sizeof(std::uint64_t); }

    struct Free
    {
        void
        operator()(std::uint64_t *p) const
        {
            ::operator delete(p, std::align_val_t{kAlign});
        }
    };

    std::size_t stride_ = 0;
    std::size_t words_ = 0;
    std::unique_ptr<std::uint64_t[], Free> data_;
};

} // namespace adcache

#endif // ADCACHE_UTIL_SET_WORDS_HH
