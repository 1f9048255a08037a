#include "cpu/store_buffer.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/stat_registry.hh"

namespace adcache
{

StoreBuffer::StoreBuffer(unsigned entries) : drainDone_(entries, 0)
{
    adcache_assert(entries >= 1);
}

void
StoreBuffer::push(Cycle retire, Cycle drain_done)
{
    ++stats_.stores;
    if (drainDone_[first_] > retire)
        panic("store buffer entry claimed before it is free");
    drainDone_[first_] = drain_done;
    first_ = std::size_t(
        std::min_element(drainDone_.begin(), drainDone_.end()) -
        drainDone_.begin());
}

void
StoreBufferStats::registerInto(StatRegistry &reg,
                               const std::string &prefix) const
{
    reg.counter(prefix + "stores", stores);
    reg.counter(prefix + "full_stalls", fullStalls);
    reg.counter(prefix + "stall_cycles", stallCycles);
}

} // namespace adcache
