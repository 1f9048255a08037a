#include "cpu/func_units.hh"

#include "util/logging.hh"

namespace adcache
{

FuncUnits::FuncUnits(const FuncUnitConfig &config)
{
    adcache_assert(config.intAluCount >= 1);
    adcache_assert(config.memPortCount >= 1);
    const auto add_pool = [&](unsigned units, Cycle latency) {
        const Pool pool{unsigned(freeAt_.size()), units, latency};
        freeAt_.resize(freeAt_.size() + units, 0);
        return pool;
    };
    // IntAlu and Branch share the ALUs; loads and stores share the
    // memory ports, occupying a port slot for one cycle (the
    // hierarchy latency is added by the caller).
    const Pool alu = add_pool(config.intAluCount, config.intAluLatency);
    const Pool mem = add_pool(config.memPortCount, 1);
    pools_[std::size_t(InstrClass::IntAlu)] = alu;
    pools_[std::size_t(InstrClass::Branch)] = alu;
    pools_[std::size_t(InstrClass::Load)] = mem;
    pools_[std::size_t(InstrClass::Store)] = mem;
    pools_[std::size_t(InstrClass::IntMult)] =
        add_pool(config.intMultCount, config.intMultLatency);
    pools_[std::size_t(InstrClass::FpAdd)] =
        add_pool(config.fpAddCount, config.fpAddLatency);
    pools_[std::size_t(InstrClass::FpDiv)] =
        add_pool(config.fpDivCount, config.fpDivLatency);
}

} // namespace adcache
