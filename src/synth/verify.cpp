#include "synth/verify.h"

#include <algorithm>
#include <cmath>

#include "support/errors.h"
#include "support/strings.h"

namespace phls {

std::vector<std::string> verify_datapath(const graph& g, const module_library& lib,
                                         const datapath& dp,
                                         const synthesis_constraints& constraints,
                                         const cost_model& costs)
{
    std::vector<std::string> bad;
    const auto complain = [&](std::string msg) { bad.push_back(std::move(msg)); };

    if (dp.sched.node_count() != g.node_count() ||
        static_cast<int>(dp.instance_of.size()) != g.node_count()) {
        complain("datapath size does not match the graph");
        return bad;
    }

    // Binding structure.
    for (node_id v : g.node_ids()) {
        const int inst = dp.instance_of[v.index()];
        if (inst < 0 || inst >= static_cast<int>(dp.instances.size())) {
            complain("operation '" + g.label(v) + "' is unbound");
            continue;
        }
        const fu_instance& fi = dp.instances[static_cast<std::size_t>(inst)];
        if (std::find(fi.ops.begin(), fi.ops.end(), v) == fi.ops.end())
            complain("instance u" + std::to_string(inst) + " does not list '" +
                     g.label(v) + "'");
        if (!dp.sched.scheduled(v)) {
            complain("operation '" + g.label(v) + "' is unscheduled");
            continue;
        }
        if (dp.sched.start(v) < 0)
            complain("operation '" + g.label(v) + "' starts before cycle 0");
        if (!(dp.sched.module_of(v) == fi.module))
            complain("operation '" + g.label(v) + "' module disagrees with its instance");
        if (!lib.module(fi.module).supports(g.kind(v)))
            complain("module '" + lib.module(fi.module).name + "' cannot execute '" +
                     g.label(v) + "'");
    }
    if (!bad.empty()) return bad; // later checks assume a complete binding

    // Instance op lists point back.
    for (const fu_instance& fi : dp.instances)
        for (node_id v : fi.ops)
            if (dp.instance_of[v.index()] != fi.index)
                complain("instance u" + std::to_string(fi.index) + " lists '" + g.label(v) +
                         "' which is bound elsewhere");

    // Data dependencies.
    for (node_id v : g.node_ids())
        for (node_id s : g.succs(v))
            if (dp.sched.start(s) < dp.sched.finish(v, lib))
                complain(strf("dependency violated: '%s' finishes at %d but '%s' starts at %d",
                              g.label(v).c_str(), dp.sched.finish(v, lib),
                              g.label(s).c_str(), dp.sched.start(s)));

    // Exclusive use of instances.
    for (const fu_instance& fi : dp.instances) {
        std::vector<node_id> ops = fi.ops;
        std::sort(ops.begin(), ops.end(), [&](node_id x, node_id y) {
            return dp.sched.start(x) < dp.sched.start(y);
        });
        for (std::size_t i = 1; i < ops.size(); ++i)
            if (dp.sched.start(ops[i]) < dp.sched.finish(ops[i - 1], lib))
                complain(strf("instance u%d executes '%s' and '%s' concurrently", fi.index,
                              g.label(ops[i - 1]).c_str(), g.label(ops[i]).c_str()));
    }

    // Latency.
    const int latency = dp.sched.latency(lib);
    if (latency > constraints.latency)
        complain(strf("latency %d exceeds constraint %d", latency, constraints.latency));

    // Power per clock cycle.
    const double peak = dp.sched.profile(lib).peak();
    if (cap_test(constraints.max_power).over(peak))
        complain(strf("peak power %.3f exceeds constraint %.3f", peak, constraints.max_power));

    // Area bookkeeping.
    const double recomputed = dp.area_of(g, lib, costs).total();
    if (std::abs(recomputed - dp.area.total()) > 1e-6)
        complain(strf("recorded area %.3f differs from recomputed %.3f", dp.area.total(),
                      recomputed));

    return bad;
}

void check_datapath(const graph& g, const module_library& lib, const datapath& dp,
                    const synthesis_constraints& constraints, const cost_model& costs)
{
    const std::vector<std::string> bad = verify_datapath(g, lib, dp, constraints, costs);
    if (bad.empty()) return;
    std::string msg = "datapath verification failed:";
    for (const std::string& b : bad) msg += "\n  - " + b;
    throw error(msg);
}

} // namespace phls
