/**
 * @file
 * Named statistics registry: an insertion-ordered collection of
 * (name -> value) entries every simulated component registers its
 * counters into. The registry decouples stat *production* (each
 * component knows its own counters) from stat *consumption* (report
 * emitters enumerate entries by name), so adding a counter to a
 * component no longer requires touching the result-plumbing layer.
 *
 * Entry kinds:
 *   - counter: monotonically counted events (u64, emitted as integer)
 *   - value:   derived measurements (double)
 *   - text:    non-numeric annotations (labels, phase maps)
 *
 * Registering an existing name overwrites its value in place, so a
 * registry can be rebuilt from live components at sampling points.
 */

#ifndef ADCACHE_UTIL_STAT_REGISTRY_HH
#define ADCACHE_UTIL_STAT_REGISTRY_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace adcache
{

/** One named statistic. */
struct StatEntry
{
    enum class Kind
    {
        Counter,
        Value,
        Text,
    };

    std::string name;
    Kind kind = Kind::Counter;
    std::uint64_t counter = 0;  //!< valid when kind == Counter
    double value = 0.0;         //!< valid when kind == Value
    std::string text;           //!< valid when kind == Text

    /** Numeric view: the counter or the value. @pre kind != Text. */
    double numeric() const;
};

/** Insertion-ordered named statistics. */
class StatRegistry
{
  public:
    /** Register (or overwrite) an event counter. */
    void counter(const std::string &name, std::uint64_t v);

    /** Register (or overwrite) a derived double-valued metric. */
    void value(const std::string &name, double v);

    /** Register (or overwrite) a textual annotation. */
    void text(const std::string &name, std::string v);

    /** Append every entry of @p other under "<prefix><name>". */
    void merge(const StatRegistry &other,
               const std::string &prefix = "");

    /** Entries in registration order. */
    const std::vector<StatEntry> &entries() const { return entries_; }

    /** Lookup by exact name; nullptr if absent. */
    const StatEntry *find(const std::string &name) const;

    /** Numeric value of @p name; asserts the entry exists. */
    double numeric(const std::string &name) const;

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

  private:
    StatEntry &slot(const std::string &name);

    std::vector<StatEntry> entries_;
    std::unordered_map<std::string, std::size_t> index_;
};

} // namespace adcache

#endif // ADCACHE_UTIL_STAT_REGISTRY_HH
