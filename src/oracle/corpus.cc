#include "oracle/corpus.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <istream>
#include <map>
#include <sstream>

#include "util/logging.hh"

namespace adcache
{

namespace
{

std::string
lowercase(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return char(std::tolower(c));
    });
    return s;
}

/** key=value tokens after the kind word. */
std::map<std::string, std::string>
parseKeyValues(std::istringstream &in, const std::string &line)
{
    std::map<std::string, std::string> kv;
    std::string token;
    while (in >> token) {
        const auto eq = token.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal("malformed config token '%s' in '%s'",
                  token.c_str(), line.c_str());
        kv[lowercase(token.substr(0, eq))] = token.substr(eq + 1);
    }
    return kv;
}

std::uint64_t
numberOr(const std::map<std::string, std::string> &kv,
         const std::string &key, std::uint64_t fallback)
{
    const auto it = kv.find(key);
    if (it == kv.end())
        return fallback;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(it->second.c_str(), &end, 0);
    if (!end || *end != '\0')
        fatal("malformed number '%s' for key '%s'",
              it->second.c_str(), key.c_str());
    return v;
}

std::string
stringOr(const std::map<std::string, std::string> &kv,
         const std::string &key, const std::string &fallback)
{
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
}

} // namespace

PairFactory
pairFactoryFor(const std::string &config_line)
{
    std::istringstream in(config_line);
    std::string kind;
    in >> kind;
    kind = lowercase(kind);
    auto kv = parseKeyValues(in, config_line);

    const auto size = numberOr(kv, "size", 4096);
    const auto assoc = unsigned(numberOr(kv, "assoc", 4));
    const auto line = unsigned(numberOr(kv, "line", 64));

    if (kind == "cache") {
        CacheConfig c;
        c.sizeBytes = size;
        c.assoc = assoc;
        c.lineSize = line;
        c.policy = parsePolicyType(stringOr(kv, "policy", "lru"));
        return makeCachePair(c);
    }
    if (kind == "adaptive") {
        AdaptiveConfig c;
        c.sizeBytes = size;
        c.assoc = assoc;
        c.lineSize = line;
        c.partialTagBits = unsigned(numberOr(kv, "partial", 0));
        c.xorFoldTags = numberOr(kv, "xor", 0) != 0;
        c.historyDepth = unsigned(numberOr(kv, "history", 0));
        c.exactCounters = numberOr(kv, "exact", 0) != 0;
        c.policies.clear();
        std::istringstream list(stringOr(kv, "policies", "lru+lfu"));
        std::string name;
        while (std::getline(list, name, '+'))
            c.policies.push_back(parsePolicyType(name));
        const std::string admit = stringOr(kv, "admit", "");
        if (!admit.empty()) {
            std::istringstream flags(admit);
            while (std::getline(flags, name, '+'))
                c.admission.push_back(name == "1" ? 1 : 0);
        }
        return makeAdaptivePair(c);
    }
    if (kind == "sbar") {
        SbarConfig c;
        c.sizeBytes = size;
        c.assoc = assoc;
        c.lineSize = line;
        c.policyA = parsePolicyType(stringOr(kv, "pola", "lru"));
        c.policyB = parsePolicyType(stringOr(kv, "polb", "lfu"));
        c.numLeaders = unsigned(numberOr(kv, "leaders", 4));
        c.partialTagBits = unsigned(numberOr(kv, "partial", 0));
        c.xorFoldTags = numberOr(kv, "xor", 0) != 0;
        c.pselBits = unsigned(numberOr(kv, "psel", 10));
        c.historyDepth = unsigned(numberOr(kv, "history", 0));
        return makeSbarPair(c);
    }
    fatal("unknown differential pair kind '%s'", kind.c_str());
}

RegressionTrace
parseTrace(std::istream &in)
{
    RegressionTrace trace;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // Trim trailing CR for files written on other platforms.
        while (!line.empty() &&
               (line.back() == '\r' || line.back() == ' '))
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;

        std::istringstream fields(line);
        std::string head;
        fields >> head;
        if (lowercase(head) == "config") {
            std::string rest;
            std::getline(fields, rest);
            const auto start = rest.find_first_not_of(' ');
            trace.configLine = start == std::string::npos
                                   ? std::string()
                                   : rest.substr(start);
            trace.factory = pairFactoryFor(trace.configLine);
            continue;
        }

        const std::string op = lowercase(head);
        if (op != "r" && op != "w")
            fatal("trace line %zu: expected R/W/config, got '%s'",
                  lineno, head.c_str());
        std::string addr_text;
        if (!(fields >> addr_text))
            fatal("trace line %zu: missing address", lineno);
        char *end = nullptr;
        const unsigned long long addr =
            std::strtoull(addr_text.c_str(), &end, 0);
        if (!end || *end != '\0')
            fatal("trace line %zu: malformed address '%s'", lineno,
                  addr_text.c_str());
        trace.stream.push_back({Addr(addr), op == "w"});
    }
    if (!trace.factory)
        fatal("trace has no config line");
    return trace;
}

std::string
formatTrace(const std::string &config_line,
            const std::vector<Access> &stream)
{
    std::ostringstream out;
    out << "config " << config_line << "\n";
    for (const Access &a : stream)
        out << (a.write ? "W" : "R") << " 0x" << std::hex << a.addr
            << std::dec << "\n";
    return out.str();
}

std::string
cacheConfigLine(const CacheConfig &config)
{
    std::ostringstream out;
    out << "cache policy=" << lowercase(policyName(config.policy))
        << " size=" << config.sizeBytes << " assoc=" << config.assoc
        << " line=" << config.lineSize;
    return out.str();
}

std::string
adaptiveConfigLine(const AdaptiveConfig &config)
{
    std::ostringstream out;
    out << "adaptive policies=";
    for (std::size_t k = 0; k < config.policies.size(); ++k) {
        if (k)
            out << "+";
        out << lowercase(policyName(config.policies[k]));
    }
    out << " size=" << config.sizeBytes << " assoc=" << config.assoc
        << " line=" << config.lineSize
        << " partial=" << config.partialTagBits
        << " xor=" << (config.xorFoldTags ? 1 : 0);
    if (config.historyDepth != 0)
        out << " history=" << config.historyDepth;
    if (config.exactCounters)
        out << " exact=1";
    if (!config.admission.empty()) {
        out << " admit=";
        for (std::size_t k = 0; k < config.admission.size(); ++k) {
            if (k)
                out << "+";
            out << (config.admission[k] ? 1 : 0);
        }
    }
    return out.str();
}

std::string
sbarConfigLine(const SbarConfig &config)
{
    std::ostringstream out;
    out << "sbar pola=" << lowercase(policyName(config.policyA))
        << " polb=" << lowercase(policyName(config.policyB))
        << " size=" << config.sizeBytes << " assoc=" << config.assoc
        << " line=" << config.lineSize
        << " leaders=" << config.numLeaders
        << " partial=" << config.partialTagBits
        << " xor=" << (config.xorFoldTags ? 1 : 0)
        << " psel=" << config.pselBits
        << " history=" << config.historyDepth;
    return out.str();
}

} // namespace adcache
