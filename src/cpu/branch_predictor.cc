#include "cpu/branch_predictor.hh"

#include "util/bits.hh"
#include "util/logging.hh"
#include "util/stat_registry.hh"

namespace adcache
{

BranchPredictor::BranchPredictor(const BranchPredictorConfig &config)
    : config_(config), historyMask_(lowMask(config.historyBits)),
      bimodal_(config.tableEntries, 1), gshare_(config.tableEntries, 1),
      meta_(config.tableEntries, 2)
{
    adcache_assert(isPowerOfTwo(config.tableEntries));
    adcache_assert(config.historyBits <= 32);
}

unsigned
BranchPredictor::bimodalIndex(Addr pc) const
{
    return unsigned((pc >> 2) & (config_.tableEntries - 1));
}

unsigned
BranchPredictor::gshareIndex(Addr pc) const
{
    const Addr h = history_ & historyMask_;
    return unsigned(((pc >> 2) ^ h) & (config_.tableEntries - 1));
}

bool
BranchPredictor::predict(Addr pc) const
{
    const bool bimodal_pred = high(bimodal_[bimodalIndex(pc)]);
    const bool gshare_pred = high(gshare_[gshareIndex(pc)]);
    const bool use_gshare = high(meta_[bimodalIndex(pc)]);
    return use_gshare ? gshare_pred : bimodal_pred;
}

bool
BranchPredictor::update(Addr pc, bool taken)
{
    ++stats_.lookups;
    const unsigned bi = bimodalIndex(pc);
    const unsigned gi = gshareIndex(pc);

    const bool bimodal_pred = high(bimodal_[bi]);
    const bool gshare_pred = high(gshare_[gi]);
    const bool use_gshare = high(meta_[bi]);
    const bool pred = use_gshare ? gshare_pred : bimodal_pred;
    const bool mispredict = pred != taken;
    stats_.mispredicts += mispredict;

    // Train the chooser only when the components disagree.
    if (bimodal_pred != gshare_pred)
        train(meta_[bi], gshare_pred == taken);

    train(bimodal_[bi], taken);
    train(gshare_[gi], taken);

    history_ = (history_ << 1) | (taken ? 1 : 0);
    return mispredict;
}

void
BranchPredictorStats::registerInto(StatRegistry &reg,
                                   const std::string &prefix) const
{
    reg.counter(prefix + "lookups", lookups);
    reg.counter(prefix + "mispredicts", mispredicts);
    reg.value(prefix + "accuracy", accuracy());
}

} // namespace adcache
