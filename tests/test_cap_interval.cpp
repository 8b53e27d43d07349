// Differential tests of explore_cache's interval table: a cached sweep
// serves a greedy design at every cap whose limit falls in the span its
// synthesis's cap tests hold over, and must stay byte-identical to one
// uncached flow::run() per point -- the canonical rendering, the whole
// datapath (its name included) and the netlist text.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "cdfg/analysis.h"
#include "cdfg/benchmarks.h"
#include "cdfg/random_dag.h"
#include "flow/flow.h"
#include "rtl/netlist.h"
#include "support/kernels.h"
#include "support/rng.h"
#include "support/strings.h"
#include "synth/verify.h"
#include "sweep_util.h"
#include "ten_k_reference.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

/// Restores the global knobs on scope exit.
struct knob_guard {
    kernel_tuning saved = kernel_knobs();
    ~knob_guard() { kernel_knobs() = saved; }
};

/// One explore on a fresh session, with the counters of its cache.
struct sweep_result {
    std::vector<flow_report> reports;
    explore_cache::counters stats;
    std::size_t intervals = 0; ///< designs the interval table holds at the end
};

sweep_result sweep(const flow& f, const std::vector<synthesis_constraints>& points,
                   int threads)
{
    dse::session s(f);
    sweep_result out;
    out.reports.resize(points.size());
    s.explore(dse::list(points), collector(out.reports), threads);
    out.stats = s.cache()->stats();
    out.intervals = s.cache()->interval_size();
    return out;
}

/// Every field of a datapath, doubles as exact hex floats.
std::string datapath_text(const datapath& dp)
{
    std::string out = "name " + dp.name + '\n';
    for (int v = 0; v < dp.sched.node_count(); ++v)
        out += strf("%d@%d:m%d/u%d ", v, dp.sched.start(node_id(v)),
                    dp.sched.module_of(node_id(v)).value(),
                    dp.instance_of[static_cast<std::size_t>(v)]);
    out += '\n';
    for (const fu_instance& inst : dp.instances) {
        out += strf("u%d m%d:", inst.index, inst.module.value());
        for (node_id v : inst.ops) out += strf(" %d", v.value());
        out += '\n';
    }
    out += strf("area %a %a %a\n", dp.area.fu, dp.area.registers, dp.area.muxes);
    return out;
}

/// The sweep against the uncached sequential reference, byte for byte;
/// every feasible design also passes the verifier at its own point.
void expect_identical(const flow& f, const std::vector<flow_report>& got,
                      const std::vector<flow_report>& want)
{
    ASSERT_EQ(got.size(), want.size());
    const graph& g = f.design();
    for (std::size_t i = 0; i < got.size(); ++i) {
        const flow_report& a = got[i];
        const flow_report& b = want[i];
        ASSERT_EQ(a.to_string(), b.to_string()) << "point " << i;
        ASSERT_EQ(datapath_text(a.dp), datapath_text(b.dp)) << "point " << i;
        ASSERT_EQ(a.has_netlist, b.has_netlist);
        if (a.has_netlist) {
            ASSERT_EQ(netlist_to_text(a.nl, g, f.library()), netlist_to_text(b.nl, g, f.library()))
                << "point " << i;
            ASSERT_EQ(netlist_to_verilog(a.nl, g, f.library()),
                      netlist_to_verilog(b.nl, g, f.library()))
                << "point " << i;
        }
        if (a.st.ok()) {
            EXPECT_TRUE(verify_datapath(g, f.library(), a.dp, a.constraints,
                                        f.synthesis_opts().costs)
                            .empty())
                << "point " << i;
        }
    }
}

/// Ok reports at finite caps: what the interval table sees on a sweep
/// of distinct points.
long finite_feasible(const std::vector<flow_report>& reports)
{
    return std::count_if(reports.begin(), reports.end(), [](const flow_report& r) {
        return r.st.ok() && std::isfinite(r.constraints.max_power);
    });
}

/// `caps` caps over [lo, hi] at each latency, latency-major.
std::vector<synthesis_constraints> plane(const std::vector<int>& latencies, double lo,
                                         double hi, int caps)
{
    std::vector<synthesis_constraints> points;
    for (const int t : latencies)
        for (int i = 0; i < caps; ++i)
            points.push_back({t, lo + (hi - lo) * i / (caps - 1)});
    return points;
}

/// power_grid(caps) at each latency: caps from just below feasibility
/// to just above the unconstrained design's peak, latency-major.
std::vector<synthesis_constraints> figure2_plane(const flow& f,
                                                 const std::vector<int>& latencies, int caps)
{
    std::vector<synthesis_constraints> points;
    for (const int t : latencies)
        for (const double cap : flow(f).latency(t).power_grid(caps)) points.push_back({t, cap});
    return points;
}

/// The critical path of `g` on the fastest modules.
int critical_path(const graph& g)
{
    const module_assignment fast = fastest_assignment(g, lib(), unbounded_power);
    return critical_path_length(
        g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });
}

void shuffle(std::vector<synthesis_constraints>& points, std::uint64_t seed)
{
    rng r(seed);
    for (std::size_t i = points.size() - 1; i > 0; --i)
        std::swap(points[i], points[r.next() % (i + 1)]);
}

TEST(cap_interval, every_kernel_is_served_and_identical)
{
    for (const std::string& name : benchmark_names()) {
        SCOPED_TRACE(name);
        const graph g = benchmark_by_name(name);
        const int cp = critical_path(g);
        const flow f = flow::on(g).with_library(lib()).estimate_lifetime();
        const std::vector<synthesis_constraints> points =
            figure2_plane(f, {cp, cp + 3, cp + 8, cp + 16}, 48);
        const sweep_result got = sweep(f, points, 4);
        expect_identical(f, got.reports, run_each(f, points));
        EXPECT_GT(got.stats.interval_served, 0);
        EXPECT_EQ(got.stats.interval_served + static_cast<long>(got.intervals),
                  finite_feasible(got.reports));
    }
}

TEST(cap_interval, random_alu_dags_are_identical)
{
    rng seeds(0x5eed0000ULL);
    for (int i = 0; i < 4; ++i) {
        const int n = 24 + 8 * i;
        graph g = random_dag({n, std::max(4, n / 12), 10, 0.0, 0.05, 0.8}, seeds.next());
        g.set_name(strf("alu%d", i));
        const int cp = critical_path(g);
        const flow f = flow::on(g).with_library(lib());
        std::vector<synthesis_constraints> points = plane({cp + 1, cp + 4, cp + 9}, 1.5, 14.0, 30);
        shuffle(points, 17 + i);
        const sweep_result got = sweep(f, points, 2);
        expect_identical(f, got.reports, run_each(f, points));
        EXPECT_GT(got.stats.interval_served, 0) << g.name();
    }
}

TEST(cap_interval, thread_counts_and_point_orders_agree)
{
    const graph g = make_elliptic();
    const int cp = critical_path(g);
    const flow f = flow::on(g).with_library(lib()).emit_netlist();
    std::vector<synthesis_constraints> ascending = plane({cp, cp + 3, cp + 7}, 2.0, 24.0, 28);
    std::sort(ascending.begin(), ascending.end(), [](const auto& a, const auto& b) {
        return a.max_power < b.max_power;
    });
    std::vector<synthesis_constraints> shuffled = ascending;
    shuffle(shuffled, 5);
    for (const std::vector<synthesis_constraints>* points : {&ascending, &shuffled}) {
        const std::vector<flow_report> want = run_each(f, *points);
        long served = -1;
        for (const int threads : {1, 8}) {
            SCOPED_TRACE(strf("%d threads", threads));
            const sweep_result got = sweep(f, *points, threads);
            expect_identical(f, got.reports, want);
            EXPECT_GT(got.stats.interval_served, 0);
            // Racing duplicate stores count as served, so the count does
            // not depend on the thread count.
            if (served >= 0) {
                EXPECT_EQ(got.stats.interval_served, served);
            }
            served = got.stats.interval_served;
        }
    }
}

TEST(cap_interval, dense_hal_plane_keeps_its_reach)
{
    // A slice of the 10^4-point (T, Pmax) hal plane, explored cold in
    // seeded order on one thread.  The spans come from whatever cap tests
    // the power probes make, so a probe change that records more (or
    // tighter) tests narrows them and quietly synthesises points the
    // table used to serve; the floor is the count this grid served when
    // the probes' tests were first recorded (667 of 835 feasible points
    // from 168 spans).
    const flow f = flow::on(make_hal()).with_library(lib());
    std::vector<synthesis_constraints> points = plane({17, 21, 25, 29, 33}, 2.0, 20.0, 200);
    shuffle(points, 29);
    const sweep_result got = sweep(f, points, 1);
    EXPECT_EQ(got.stats.interval_served + static_cast<long>(got.intervals),
              finite_feasible(got.reports));
    EXPECT_GE(got.stats.interval_served, 667) << got.intervals << " spans";
}

TEST(cap_interval, reference_knobs_and_netlists_are_identical)
{
    const knob_guard guard;
    kernel_knobs() = all_reference();
    for (const graph& g : {make_hal(), make_iir_biquad()}) {
        SCOPED_TRACE(g.name());
        const int cp = critical_path(g);
        const flow f = flow::on(g).with_library(lib()).emit_netlist().estimate_lifetime();
        std::vector<synthesis_constraints> points = figure2_plane(f, {cp, cp + 4, cp + 9}, 32);
        shuffle(points, 3);
        const sweep_result got = sweep(f, points, 4);
        expect_identical(f, got.reports, run_each(f, points));
        EXPECT_GT(got.stats.interval_served, 0);
    }
}

TEST(cap_interval, non_finite_caps_and_other_strategies_leave_the_table_empty)
{
    const graph g = make_hal();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<synthesis_constraints> unbounded;
    for (const int t : {6, 8, 12, 17}) unbounded.push_back({t, inf});
    const flow greedy = flow::on(g).with_library(lib());
    const sweep_result got = sweep(greedy, unbounded, 2);
    expect_identical(greedy, got.reports, run_each(greedy, unbounded));
    EXPECT_EQ(got.intervals, 0u);
    EXPECT_EQ(got.stats.interval_served, 0);

    // Mixed with finite caps, the unbounded points still compute.
    std::vector<synthesis_constraints> mixed = plane({8, 12}, 3.0, 12.0, 12);
    mixed.insert(mixed.end(), unbounded.begin(), unbounded.end());
    shuffle(mixed, 11);
    const sweep_result both = sweep(greedy, mixed, 2);
    expect_identical(greedy, both.reports, run_each(greedy, mixed));
    EXPECT_EQ(both.stats.interval_served + static_cast<long>(both.intervals),
              finite_feasible(both.reports));

    const std::vector<synthesis_constraints> points = plane({8, 12}, 3.0, 12.0, 10);
    for (const char* name : {"two_step", "fds_bind", "exact"}) {
        SCOPED_TRACE(name);
        const graph small = random_dag({6, 3, 3, 0.3, 0.0, 0.8}, 42);
        const flow f = flow::on(std::string(name) == "exact" ? small : g)
                           .with_library(lib())
                           .synthesizer(name);
        const sweep_result other = sweep(f, points, 2);
        expect_identical(f, other.reports, run_each(f, points));
        EXPECT_EQ(other.intervals, 0u);
        EXPECT_EQ(other.stats.interval_served, 0);
    }
}

TEST(cap_interval, duplicates_of_served_points_are_identical)
{
    // Every hal T=17 cap twice.  A served point's memo entry shares its
    // span's report, so a second visit to it is a memo hit on a report
    // computed at another cap, re-stamped on the way out: its name, its
    // netlist's design name and its constraints.
    const flow f = hal17().emit_netlist().estimate_lifetime();
    const std::vector<synthesis_constraints> points = duplicated_grid(64);
    const std::vector<flow_report> want = run_each(f, points);
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(strf("%d threads", threads));
        dse::session s(f);
        std::vector<flow_report> got(points.size());
        s.explore(dse::list(points), collector(got), threads);
        expect_identical(f, got, want);
        EXPECT_GT(s.cache()->stats().interval_served, 0);

        // Again on the same session: every point is a scan-time memo hit.
        const long hits = s.cache()->stats().report_hits;
        std::vector<flow_report> again(points.size());
        s.explore(dse::list(points), collector(again), threads);
        expect_identical(f, again, want);
        EXPECT_EQ(s.cache()->stats().report_hits - hits, static_cast<long>(points.size()));
    }
}

TEST(cap_interval, capacity_two_holds_at_most_two_designs)
{
    const graph g = make_elliptic();
    const int cp = critical_path(g);
    const flow f = flow::on(g).with_library(lib());
    // Latency-major, ascending caps: neighbouring points share spans, so
    // even two designs serve some of them.
    const std::vector<synthesis_constraints> points = figure2_plane(f, {cp, cp + 3, cp + 7}, 32);
    dse::session s(f, {.memo_limit = 2});
    std::vector<flow_report> got(points.size());
    std::size_t most = 0;
    dse::sink sk = collector(got);
    const dse::stream_callback store = sk.on_result;
    sk.on_result = [&](std::size_t i, const flow_report& r) {
        store(i, r);
        most = std::max(most, s.cache()->interval_size());
    };
    s.explore(dse::list(points), sk, 4);
    EXPECT_LE(most, 2u);
    EXPECT_LE(s.cache()->interval_size(), 2u);
    EXPECT_GT(s.cache()->stats().interval_served, 0);
    expect_identical(f, got, run_each(f, points));
}

} // namespace
} // namespace phls
