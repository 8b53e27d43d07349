#include "synth/two_step.h"

#include <algorithm>

#include "support/errors.h"

namespace phls {

namespace {

/// Slack when comparing one peak with another (never with the cap).
constexpr double peak_tolerance = 1e-9;

/// Legal start-time range of `v` holding everything else fixed.
std::pair<int, int> slack_range(const graph& g, const module_library& lib,
                                const datapath& dp, node_id v, int latency)
{
    const int d = dp.sched.delay(v, lib);
    int lo = 0;
    int hi = latency - d;
    for (node_id p : g.preds(v)) lo = std::max(lo, dp.sched.finish(p, lib));
    for (node_id s : g.succs(v)) hi = std::min(hi, dp.sched.start(s) - d);
    return {lo, hi};
}

/// True if moving `v` to `t` keeps its instance exclusive.
bool instance_free(const module_library& lib, const datapath& dp, node_id v, int t)
{
    const fu_instance& fi = dp.instances[static_cast<std::size_t>(dp.instance_of[v.index()])];
    const int d = lib.module(fi.module).latency;
    for (node_id o : fi.ops) {
        if (o == v) continue;
        const int os = dp.sched.start(o);
        const int oe = dp.sched.finish(o, lib);
        if (t < oe && os < t + d) return false;
    }
    return true;
}

} // namespace

int reduce_peak_power(const graph& g, const module_library& lib, datapath& dp, int latency,
                      const cost_model& costs, int max_moves)
{
    int moves = 0;
    while (moves < max_moves) {
        const power_profile profile = dp.sched.profile(lib);
        const double peak = profile.peak();

        // Try every op whose execution covers a peak cycle; take the move
        // that lowers the global peak the most.
        double best_peak = peak;
        node_id best_v;
        int best_t = -1;
        for (node_id v : g.nodes()) {
            const int d = dp.sched.delay(v, lib);
            const double p = lib.module(dp.sched.module_of(v)).power;
            bool covers_peak = false;
            for (int c = dp.sched.start(v); c < dp.sched.start(v) + d; ++c)
                if (profile.at(c) >= peak - peak_tolerance) covers_peak = true;
            if (!covers_peak) continue;

            const auto [lo, hi] = slack_range(g, lib, dp, v, latency);
            for (int t = lo; t <= hi; ++t) {
                if (t == dp.sched.start(v)) continue;
                if (!instance_free(lib, dp, v, t)) continue;
                // Peak if v moves to t.
                power_profile moved = profile;
                moved.withdraw(dp.sched.start(v), d, p);
                moved.deposit(t, d, p);
                const double new_peak = moved.peak();
                if (new_peak < best_peak - peak_tolerance) {
                    best_peak = new_peak;
                    best_v = v;
                    best_t = t;
                }
            }
        }
        if (best_t < 0) break;
        dp.sched.set_start(best_v, best_t);
        ++moves;
    }
    dp.compute_area(g, lib, costs);
    return moves;
}

two_step_result two_step_synthesize(const graph& g, const module_library& lib,
                                    const synthesis_constraints& constraints,
                                    const synthesis_options& options,
                                    const problem_tables* tables)
{
    two_step_result result;

    // Step one: time-constrained only (the cap is relaxed away).
    synthesis_constraints step1 = constraints;
    step1.max_power = unbounded_power;
    synthesis_options opts = options;
    opts.verify_result = false; // verified below with the relaxed cap
    const synthesis_result s1 = synthesize(g, lib, step1, opts, tables);
    if (!s1.feasible) {
        result.reason = "step one (time-constrained synthesis) failed: " + s1.reason;
        return result;
    }
    result.dp = s1.dp;
    result.peak_before = result.dp.peak_power(lib);

    // Step two: reorder within slack.
    result.moves =
        reduce_peak_power(g, lib, result.dp, constraints.latency, options.costs);
    result.peak_after = result.dp.peak_power(lib);
    result.meets_power = !cap_test(constraints.max_power).over(result.peak_after);
    result.feasible = true;
    return result;
}

} // namespace phls
