// Tests for the baseline force-directed scheduler.
#include <gtest/gtest.h>

#include "cdfg/analysis.h"
#include "cdfg/benchmarks.h"
#include "cdfg/random_dag.h"
#include "power/tracker.h"
#include "sched/asap_alap.h"
#include "sched/force_directed.h"
#include "support/errors.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

TEST(fds, schedules_within_the_bound_and_validates)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    for (int T : {8, 10, 17}) {
        const fds_result r = force_directed_schedule(g, lib(), a, T);
        ASSERT_TRUE(r.feasible) << "T=" << T << ": " << r.reason;
        EXPECT_NO_THROW(validate_schedule(g, lib(), r.sched, T));
    }
}

TEST(fds, infeasible_below_the_critical_path)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    const fds_result r = force_directed_schedule(g, lib(), a, 7);
    EXPECT_FALSE(r.feasible);
    EXPECT_FALSE(r.reason.empty());
}

TEST(fds, slack_reduces_peak_concurrency_vs_asap)
{
    // With slack, FDS spreads ops; its peak multiplier concurrency should
    // not exceed ASAP's (that is its objective).
    const graph g = make_cosine();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    const fds_result r = force_directed_schedule(g, lib(), a, 18);
    ASSERT_TRUE(r.feasible);

    const auto peak_mults = [&](const schedule& s) {
        int peak = 0;
        for (int c = 0; c < s.latency(lib()); ++c) {
            int busy = 0;
            for (node_id v : g.nodes())
                if (g.kind(v) == op_kind::mult && s.start(v) <= c &&
                    c < s.finish(v, lib()))
                    ++busy;
            peak = std::max(peak, busy);
        }
        return peak;
    };
    const schedule asap = asap_schedule(g, lib(), a);
    EXPECT_LE(peak_mults(r.sched), peak_mults(asap));
}

TEST(fds, works_on_random_dags)
{
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        random_dag_params params;
        params.operations = 16;
        const graph g = random_dag(params, seed);
        const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
        const int cp = critical_path_length(
            g, [&](node_id v) { return lib().module(a[v.index()]).latency; });
        const fds_result r = force_directed_schedule(g, lib(), a, cp + 4);
        ASSERT_TRUE(r.feasible) << seed;
        EXPECT_NO_THROW(validate_schedule(g, lib(), r.sched, cp + 4));
    }
}

} // namespace
} // namespace phls
