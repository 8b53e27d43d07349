#include "sched/schedule.h"

#include <algorithm>

#include "power/tracker.h"
#include "support/errors.h"
#include "support/strings.h"

namespace phls {

namespace {

module_assignment assignment_by_policy(const graph& g, const module_library& lib,
                                       double max_power, bool fastest)
{
    lib.check_covers(g);
    module_assignment out(static_cast<std::size_t>(g.node_count()));
    for (node_id v : g.node_ids()) {
        const std::optional<module_id> m = fastest
                                               ? lib.fastest_for(g.kind(v), max_power)
                                               : lib.cheapest_for(g.kind(v), max_power);
        if (!m) return {};
        out[v.index()] = *m;
    }
    return out;
}

} // namespace

module_assignment fastest_assignment(const graph& g, const module_library& lib,
                                     double max_power)
{
    return assignment_by_policy(g, lib, max_power, true);
}

module_assignment cheapest_assignment(const graph& g, const module_library& lib,
                                      double max_power)
{
    return assignment_by_policy(g, lib, max_power, false);
}

bool schedule::complete() const
{
    return std::all_of(start_.begin(), start_.end(), [](int t) { return t >= 0; });
}

int schedule::latency(const module_library& lib) const
{
    int max_finish = 0;
    for (int i = 0; i < node_count(); ++i) {
        if (start_[static_cast<std::size_t>(i)] < 0) continue;
        max_finish = std::max(max_finish, finish(node_id(i), lib));
    }
    return max_finish;
}

power_profile schedule::profile(const module_library& lib) const
{
    power_profile p;
    for (int i = 0; i < node_count(); ++i) {
        const node_id v(i);
        if (!scheduled(v)) continue;
        const fu_module& m = lib.module(module_of(v));
        p.deposit(start(v), m.latency, m.power);
    }
    return p;
}

void validate_schedule(const graph& g, const module_library& lib, const schedule& s,
                       int max_latency, double max_power)
{
    check(s.node_count() == g.node_count(), "schedule size does not match graph");
    for (node_id v : g.node_ids()) {
        if (!s.scheduled(v)) throw error("operation '" + g.label(v) + "' is unscheduled");
        const module_id m = s.module_of(v);
        if (!m.valid()) throw error("operation '" + g.label(v) + "' has no module");
        if (!lib.module(m).supports(g.kind(v)))
            throw error("module '" + lib.module(m).name + "' cannot execute '" + g.label(v) +
                        "'");
    }
    for (node_id v : g.node_ids())
        for (node_id succ : g.succs(v))
            if (s.start(succ) < s.finish(v, lib))
                throw error(strf("dependency violated: '%s' (finish %d) -> '%s' (start %d)",
                                 g.label(v).c_str(), s.finish(v, lib), g.label(succ).c_str(),
                                 s.start(succ)));
    if (max_latency >= 0 && s.latency(lib) > max_latency)
        throw error(strf("latency %d exceeds constraint %d", s.latency(lib), max_latency));
    const double peak = s.profile(lib).peak();
    if (cap_test(max_power).over(peak))
        throw error(strf("peak power %.3f exceeds constraint %.3f", peak, max_power));
}

} // namespace phls
