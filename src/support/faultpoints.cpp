#include "support/faultpoints.h"

#include <cstdlib>
#include <map>
#include <mutex>

#include <pthread.h>

#include "support/errors.h"

namespace phls {

namespace {

struct site_state {
    std::size_t fire_on = 0; ///< 1-based hit that fires; 0 = observe only
    std::size_t hits = 0;
    bool fired = false;
};

struct fault_registry;
fault_registry& registry();

/// The registry's lock is held across fork(), so that a child never
/// inherits it locked by a thread that does not exist in the child
/// (shard workers are forked from reader threads while other threads
/// probe sites).
struct fault_registry {
    fault_registry()
    {
        ::pthread_atfork([] { registry().mutex.lock(); }, [] { registry().mutex.unlock(); },
                         [] { registry().mutex.unlock(); });
    }

    std::mutex mutex;
    std::map<std::string, site_state> sites;
};

fault_registry& registry()
{
    static fault_registry r;
    return r;
}

void arm_locked(fault_registry& r, const std::string& spec)
{
    r.sites.clear();
    std::size_t armed = 0;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::string entry =
            spec.substr(start, comma == std::string::npos ? spec.size() - start
                                                          : comma - start);
        start = comma == std::string::npos ? spec.size() + 1 : comma + 1;
        if (entry.empty()) continue;
        const std::size_t colon = entry.rfind(':');
        if (colon == std::string::npos || colon == 0 || colon + 1 >= entry.size())
            throw error("malformed fault spec '" + entry + "' (want site:nth)");
        const std::string site = entry.substr(0, colon);
        char* end = nullptr;
        const long nth = std::strtol(entry.c_str() + colon + 1, &end, 10);
        if (!end || *end != '\0' || nth < 1)
            throw error("malformed fault spec '" + entry + "': nth must be an integer >= 1");
        r.sites[site].fire_on = static_cast<std::size_t>(nth);
        ++armed;
    }
    detail::fault_armed_sites.store(static_cast<int>(armed),
                                    std::memory_order_relaxed);
}

/// Arms from $PHLS_FAULT once, before main() — the CLI chaos path.  A
/// malformed env spec aborts loudly here rather than silently running
/// the sweep fault-free.
const bool env_armed = [] {
    const char* spec = std::getenv("PHLS_FAULT");
    if (spec && *spec) arm_locked(registry(), spec);
    return true;
}();

} // namespace

namespace detail {

std::atomic<int> fault_armed_sites{0};

bool fault_fire_slow(const char* site)
{
    fault_registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.sites.find(site);
    if (it == r.sites.end()) {
        // Record the hit anyway: tests can assert a probe was reached
        // even when arming a different site.
        ++r.sites[site].hits;
        return false;
    }
    site_state& s = it->second;
    ++s.hits;
    if (s.fired || s.fire_on == 0 || s.hits != s.fire_on) return false;
    s.fired = true;
    return true;
}

} // namespace detail

void fault_arm(const std::string& spec)
{
    fault_registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    arm_locked(r, spec);
}

void fault_clear()
{
    fault_registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.sites.clear();
    detail::fault_armed_sites.store(0, std::memory_order_relaxed);
}

std::size_t fault_hits(const std::string& site)
{
    fault_registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.sites.find(site);
    return it == r.sites.end() ? 0 : it->second.hits;
}

bool fault_fired(const std::string& site)
{
    fault_registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.sites.find(site);
    return it != r.sites.end() && it->second.fired;
}

} // namespace phls
