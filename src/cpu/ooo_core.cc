#include "cpu/ooo_core.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/stat_registry.hh"

namespace adcache
{

namespace
{

/**
 * Tracks "at most W events per cycle": given a candidate time,
 * returns the first cycle >= candidate with a free slot.
 */
class WidthLimiter
{
  public:
    explicit WidthLimiter(unsigned width) : width_(width)
    {
        adcache_assert(width >= 1);
    }

    Cycle
    schedule(Cycle candidate)
    {
        if (candidate > cycle_) {
            cycle_ = candidate;
            used_ = 1;
            return cycle_;
        }
        // candidate <= cycle_: the stream is contiguous; pack into
        // the current cycle if a slot remains, else start the next.
        if (used_ < width_) {
            ++used_;
            return cycle_;
        }
        ++cycle_;
        used_ = 1;
        return cycle_;
    }

  private:
    unsigned width_;
    Cycle cycle_ = 0;
    unsigned used_ = 0;
};

} // namespace

OooCore::OooCore(const CoreConfig &config) : config_(config) {}

CoreStats
OooCore::run(TraceSource &source, MemoryInterface &mem,
             InstCount max_instrs)
{
    CoreStats stats;
    BranchPredictor predictor(config_.branchPredictor);
    Btb btb(config_.btb);
    FuncUnits fus(config_.funcUnits);
    StoreBuffer store_buffer(config_.storeBufferEntries);

    // Cycle at which each architectural register's value is ready.
    std::vector<Cycle> reg_ready(numArchRegs, 0);

    // Ring buffers over the last robSize retire times and rsSize
    // issue times: entry (i - robSize) bounds instruction i's
    // dispatch (a ROB slot frees when that instruction retires).
    // Slots start at cycle 0, which bounds nothing, so the first
    // robSize (rsSize) instructions pass freely.
    std::vector<Cycle> retire_ring(config_.robSize, 0);
    std::vector<Cycle> issue_ring(config_.rsSize, 0);
    std::size_t rob_slot = 0;  // instruction index mod robSize
    std::size_t rs_slot = 0;   // instruction index mod rsSize

    WidthLimiter fetch_limit(config_.fetchWidth);
    WidthLimiter dispatch_limit(config_.dispatchWidth);
    WidthLimiter retire_limit(config_.retireWidth);

    Cycle fetch_ready = 0;       // earliest fetch time of next instr
    Cycle prev_retire = 0;       // in-order retirement frontier
    Addr last_fetch_line = ~Addr(0);
    constexpr unsigned fetch_line_shift = 6;  // 64B fetch granularity

    TraceInstr instr;
    InstCount n = 0;
    while (n < max_instrs && source.next(instr)) {
        ++n;

        // ---------------- Fetch ----------------
        const Addr line = instr.pc >> fetch_line_shift;
        if (line != last_fetch_line) {
            fetch_ready = mem.fetch(instr.pc, fetch_ready);
            last_fetch_line = line;
        }
        const Cycle fetched =
            std::max(fetch_ready, fetch_limit.schedule(fetch_ready));

        // ---------------- Dispatch ----------------
        const Cycle dispatch_lb = std::max(
            {fetched, retire_ring[rob_slot], issue_ring[rs_slot]});
        const Cycle dispatched = dispatch_limit.schedule(dispatch_lb);

        // ---------------- Issue ----------------
        Cycle ready = dispatched + 1;
        if (instr.src1 != noReg)
            ready = std::max(ready, reg_ready[instr.src1]);
        if (instr.src2 != noReg)
            ready = std::max(ready, reg_ready[instr.src2]);
        const Cycle issued = fus.issue(instr.cls, ready);
        issue_ring[rs_slot] = issued;
        if (++rs_slot == issue_ring.size())
            rs_slot = 0;

        // ---------------- Execute / complete ----------------
        Cycle complete;
        switch (instr.cls) {
          case InstrClass::Load:
            ++stats.loads;
            complete = mem.load(instr.memAddr, issued);
            break;
          case InstrClass::Store:
            ++stats.stores;
            complete = issued + 1;  // address generation only
            break;
          default:
            complete = issued + fus.latency(instr.cls);
            break;
        }
        if (instr.dst != noReg)
            reg_ready[instr.dst] = complete;

        // ---------------- Control flow ----------------
        if (instr.isBranch()) {
            ++stats.branches;
            const bool mispredict = predictor.update(instr.pc,
                                                     instr.taken);
            const bool btb_miss =
                instr.taken && !btb.resolve(instr.pc, instr.target);
            if (btb_miss)
                ++stats.btbMisses;
            if (mispredict) {
                ++stats.mispredicts;
                // The fetch stream restarts after resolution.
                fetch_ready = std::max(
                    fetch_ready,
                    complete + config_.mispredictPenalty);
                last_fetch_line = ~Addr(0);
            } else if (btb_miss) {
                fetch_ready =
                    std::max(fetch_ready,
                             fetched + config_.btbMissPenalty);
                last_fetch_line = ~Addr(0);
            }
        }

        // ---------------- Retire ----------------
        Cycle retire_lb = std::max(complete, prev_retire);
        if (instr.isStore()) {
            // Claim a store-buffer entry; stall retirement if full.
            const Cycle slot = store_buffer.earliestSlot(retire_lb);
            if (slot > retire_lb) {
                ++store_buffer.stats().fullStalls;
                store_buffer.stats().stallCycles += slot - retire_lb;
            }
            retire_lb = slot;
        }
        const Cycle retired = retire_limit.schedule(retire_lb);
        if (instr.isStore()) {
            const Cycle drain_done = mem.store(instr.memAddr, retired);
            store_buffer.push(retired, drain_done);
        }
        prev_retire = std::max(prev_retire, retired);
        retire_ring[rob_slot] = retired;
        if (++rob_slot == retire_ring.size())
            rob_slot = 0;
    }

    stats.instructions = n;
    stats.cycles = prev_retire + 1;
    stats.storeBuffer = store_buffer.stats();
    stats.predictor = predictor.stats();
    return stats;
}

void
CoreStats::registerInto(StatRegistry &reg,
                        const std::string &prefix) const
{
    reg.counter(prefix + "instructions", instructions);
    reg.counter(prefix + "cycles", cycles);
    reg.counter(prefix + "loads", loads);
    reg.counter(prefix + "stores", stores);
    reg.counter(prefix + "branches", branches);
    reg.counter(prefix + "mispredicts", mispredicts);
    reg.counter(prefix + "btb_misses", btbMisses);
    reg.value(prefix + "cpi", cpi());
    reg.value(prefix + "ipc", ipc());
    storeBuffer.registerInto(reg, prefix + "store_buffer.");
    predictor.registerInto(reg, prefix + "predictor.");
}

} // namespace adcache
