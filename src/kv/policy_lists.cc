#include "kv/policy_lists.hh"

namespace adcache::kv
{

void
RecencyList::pushFront(KvEntry *e)
{
    e->lruPrev = nullptr;
    e->lruNext = head_;
    if (head_)
        head_->lruPrev = e;
    head_ = e;
    if (!tail_)
        tail_ = e;
}

void
RecencyList::moveToFront(KvEntry *e)
{
    if (head_ == e)
        return;
    remove(e);
    pushFront(e);
}

void
RecencyList::remove(KvEntry *e)
{
    if (e->lruPrev)
        e->lruPrev->lruNext = e->lruNext;
    else
        head_ = e->lruNext;
    if (e->lruNext)
        e->lruNext->lruPrev = e->lruPrev;
    else
        tail_ = e->lruPrev;
    e->lruPrev = e->lruNext = nullptr;
}

LfuLists::~LfuLists()
{
    for (FreqNode *list : {nodes_, spare_}) {
        while (list) {
            FreqNode *next = list->next;
            delete list;
            list = next;
        }
    }
}

FreqNode *
LfuLists::newNode(std::uint32_t freq)
{
    FreqNode *node = spare_;
    if (node)
        spare_ = node->next;
    else
        node = new FreqNode;
    *node = FreqNode{};
    node->freq = freq;
    return node;
}

void
LfuLists::append(FreqNode *node, KvEntry *e)
{
    e->freqNode = node;
    e->lfuNext = nullptr;
    e->lfuPrev = node->tail;
    if (node->tail)
        node->tail->lfuNext = e;
    else
        node->head = e;
    node->tail = e;
}

void
LfuLists::detach(KvEntry *e)
{
    FreqNode *node = e->freqNode;
    adcache_assert(node != nullptr);
    if (e->lfuPrev)
        e->lfuPrev->lfuNext = e->lfuNext;
    else
        node->head = e->lfuNext;
    if (e->lfuNext)
        e->lfuNext->lfuPrev = e->lfuPrev;
    else
        node->tail = e->lfuPrev;
    e->lfuPrev = e->lfuNext = nullptr;
    e->freqNode = nullptr;

    if (!node->head) {
        if (node->prev)
            node->prev->next = node->next;
        else
            nodes_ = node->next;
        if (node->next)
            node->next->prev = node->prev;
        // Kept for reuse: a hit that opens a frequency class takes
        // a spare node instead of a heap block under the shard lock.
        node->next = spare_;
        spare_ = node;
    }
}

void
LfuLists::onInsert(KvEntry *e)
{
    if (!nodes_ || nodes_->freq != 1) {
        FreqNode *node = newNode(1);
        node->next = nodes_;
        if (nodes_)
            nodes_->prev = node;
        nodes_ = node;
    }
    append(nodes_, e);
}

void
LfuLists::onHit(KvEntry *e)
{
    FreqNode *node = e->freqNode;
    adcache_assert(node != nullptr);

    if (node->freq >= kMaxFreq) {
        // Saturated: refresh recency within the class only.
        if (node->tail != e) {
            FreqNode *keep = node;
            detach(e); // node survives: e was not its only entry
            append(keep, e);
        }
        return;
    }

    const std::uint32_t target_freq = node->freq + 1;
    FreqNode *target =
        (node->next && node->next->freq == target_freq) ? node->next
                                                        : nullptr;
    if (!target) {
        target = newNode(target_freq);
        target->prev = node;
        target->next = node->next;
        if (node->next)
            node->next->prev = target;
        node->next = target;
    }
    detach(e); // may delete node; target stays linked either way
    append(target, e);
}

void
LfuLists::remove(KvEntry *e)
{
    detach(e);
}

KvEntry *
LfuLists::firstCandidate() const
{
    return nodes_ ? nodes_->head : nullptr;
}

KvEntry *
LfuLists::nextCandidate(const KvEntry *e) const
{
    if (e->lfuNext)
        return e->lfuNext;
    const FreqNode *node = e->freqNode;
    return node->next ? node->next->head : nullptr;
}

} // namespace adcache::kv
