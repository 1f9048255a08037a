#include "kv/read_path.hh"

#include <mutex>
#include <vector>

namespace adcache::kv
{

EpochDomain &
EpochDomain::instance()
{
    static EpochDomain domain;
    return domain;
}

namespace
{

/** Slot id free list: allocation happens once per thread lifetime,
 *  so a mutex is fine here — the probe path never touches it. */
std::mutex slot_mutex;
std::vector<int> free_slots;
int next_fresh_slot = 0;

int
acquireSlot()
{
    std::scoped_lock lock(slot_mutex);
    if (!free_slots.empty()) {
        const int id = free_slots.back();
        free_slots.pop_back();
        return id;
    }
    if (next_fresh_slot < int(EpochDomain::kMaxSlots))
        return next_fresh_slot++;
    return -1;
}

void
releaseSlot(int id)
{
    std::scoped_lock lock(slot_mutex);
    free_slots.push_back(id);
}

/** Returns the slot at thread exit so test binaries that spawn many
 *  short-lived reader threads never exhaust the supply. */
struct SlotLease
{
    int id = -1;

    ~SlotLease()
    {
        if (id >= 0) {
            EpochDomain::instance().unpin(id);
            releaseSlot(id);
        }
    }
};

} // namespace

int
EpochDomain::threadSlot()
{
    thread_local SlotLease lease{acquireSlot()};
    return lease.id;
}

bool
EpochDomain::tryAdvance()
{
    std::uint64_t cur = epoch_.load(std::memory_order_seq_cst);
    for (const Slot &s : slots_) {
        const std::uint64_t pinned =
            s.epoch.load(std::memory_order_seq_cst);
        if (pinned != 0 && pinned != cur)
            return false;
    }
    // A lost race means someone else advanced; either way the epoch
    // moved past `cur`, which is all retirees care about.
    return epoch_.compare_exchange_strong(
        cur, cur + 1, std::memory_order_seq_cst,
        std::memory_order_seq_cst);
}

} // namespace adcache::kv
