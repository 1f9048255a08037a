#include "util/stat_registry.hh"

#include "util/logging.hh"

namespace adcache
{

double
StatEntry::numeric() const
{
    adcache_assert(kind != Kind::Text);
    return kind == Kind::Counter ? double(counter) : value;
}

StatEntry &
StatRegistry::slot(const std::string &name)
{
    auto it = index_.find(name);
    if (it != index_.end())
        return entries_[it->second];
    index_.emplace(name, entries_.size());
    entries_.emplace_back();
    entries_.back().name = name;
    return entries_.back();
}

void
StatRegistry::counter(const std::string &name, std::uint64_t v)
{
    StatEntry &e = slot(name);
    e.kind = StatEntry::Kind::Counter;
    e.counter = v;
}

void
StatRegistry::value(const std::string &name, double v)
{
    StatEntry &e = slot(name);
    e.kind = StatEntry::Kind::Value;
    e.value = v;
}

void
StatRegistry::text(const std::string &name, std::string v)
{
    StatEntry &e = slot(name);
    e.kind = StatEntry::Kind::Text;
    e.text = std::move(v);
}

void
StatRegistry::merge(const StatRegistry &other,
                    const std::string &prefix)
{
    for (const StatEntry &e : other.entries_) {
        StatEntry &mine = slot(prefix + e.name);
        const std::string name = mine.name;
        mine = e;
        mine.name = name;
    }
}

const StatEntry *
StatRegistry::find(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : &entries_[it->second];
}

double
StatRegistry::numeric(const std::string &name) const
{
    const StatEntry *e = find(name);
    adcache_assert(e != nullptr);
    return e->numeric();
}

} // namespace adcache
