#include "synth/problem_tables.h"

#include <algorithm>

#include "cdfg/textio.h"

namespace phls {

namespace {

/// Validates the problem before any derived structure is built, so a
/// malformed graph fails with the validate() diagnostic.
const graph& checked(const graph& g, const module_library& lib)
{
    g.validate();
    lib.check_covers(g);
    return g;
}

} // namespace

problem_tables::problem_tables(const graph& g, const module_library& lib)
    : g_(g), lib_(lib), reach_(checked(g_, lib_)), graph_text_(write_cdfg_string(g_)),
      lib_text_(write_library_string(lib_))
{
    for (const fu_module& m : lib_.modules()) power_levels_.push_back(m.power);
    std::sort(power_levels_.begin(), power_levels_.end());
    power_levels_.erase(std::unique(power_levels_.begin(), power_levels_.end()),
                        power_levels_.end());
}

bool problem_tables::compatible(const graph& g, const module_library& lib) const
{
    return write_cdfg_string(g) == graph_text_ && write_library_string(lib) == lib_text_;
}

int problem_tables::bucket(double cap) const
{
    // Selection queries exclude a module iff m.power > cap, so the result
    // depends on cap only through the count of power levels <= cap.
    return static_cast<int>(
        std::upper_bound(power_levels_.begin(), power_levels_.end(), cap) -
        power_levels_.begin());
}

template <class Key, class Value, class Compute, class Keep>
Value problem_tables::memoised(std::map<Key, Value>& table, const Key& key,
                               Compute compute, Keep keep) const
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = table.find(key);
        if (it != table.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    // Computed outside the lock; concurrent misses compute the same value.
    // The insert decides who counts the miss: exactly one racing thread
    // wins the emplace and counts it, every loser counts a hit, so the
    // counters are exact on multicore (hits + misses == lookups).  A
    // value `keep` rejects is a genuine miss every time.
    Value result = compute();
    bool inserted = true;
    if (keep(result)) {
        const std::lock_guard<std::mutex> lock(mutex_);
        inserted = table.emplace(key, result).second;
    }
    (inserted ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
    return result;
}

prospect_result problem_tables::prospect(prospect_policy policy, double cap) const
{
    // Failures are not memoised: their reason text embeds the exact cap,
    // which varies within one admissible-module bucket.
    return memoised(
        prospects_, std::pair<int, int>{static_cast<int>(policy), bucket(cap)},
        [&] { return make_prospect(g_, lib_, policy, cap); },
        [](const prospect_result& r) { return r.ok; });
}

module_assignment problem_tables::fastest(double cap) const
{
    return memoised(
        fastest_, bucket(cap), [&] { return fastest_assignment(g_, lib_, cap); },
        [](const module_assignment&) { return true; });
}

} // namespace phls
