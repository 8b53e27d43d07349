// Sweep helpers shared by the tests and benches: the sweep under test (a
// session's explore, collected index-addressed through its result
// channel), the uncached sequential reference it must match
// byte-for-byte, and the hal problem and fronts the serve, shard and
// session suites compare.
#pragma once

#include <algorithm>
#include <ostream>
#include <vector>

#include "cdfg/benchmarks.h"
#include "dse/session.h"
#include "flow/flow.h"
#include "library/library.h"

namespace phls {

/// hal at T = 17 on the Table-1 library.
inline flow hal17()
{
    static const module_library lib = table1_library();
    return flow::on(make_hal()).with_library(lib).latency(17);
}

/// A duplicate-heavy point list on hal17(): every grid point appears
/// twice.
inline std::vector<synthesis_constraints> duplicated_grid(int points)
{
    std::vector<synthesis_constraints> grid;
    for (double cap : hal17().power_grid(points)) grid.push_back({17, cap});
    const std::vector<synthesis_constraints> once = grid;
    grid.insert(grid.end(), once.begin(), once.end());
    return grid;
}

/// The single-process front of `grid` on hal17(): one fresh session,
/// one worker.
inline std::vector<front_point> reference_front(const std::vector<synthesis_constraints>& grid)
{
    dse::session session(hal17());
    return session.explore(dse::list(grid), {}, 1).front;
}

/// gtest's printer for front points, so EXPECT_EQ on two fronts shows
/// the points that differ.
inline void PrintTo(const front_point& p, std::ostream* os)
{
    *os << "{#" << p.index << " T=" << p.latency_bound << " cap=" << p.cap
        << " area=" << p.area << " peak=" << p.peak << " latency=" << p.latency;
    if (p.has_lifetime) *os << " lifetime=" << p.lifetime_seconds;
    *os << '}';
}

/// A sink that stores every delivered report at its space index.
inline dse::sink collector(std::vector<flow_report>& out)
{
    dse::sink sk;
    sk.on_result = [&out](std::size_t i, const flow_report& r) {
        if (i >= out.size()) out.resize(i + 1);
        out[i] = r;
    };
    return sk;
}

/// Every report of `points`, explored on a fresh session over `f` with
/// `threads` workers, in point order.
inline std::vector<flow_report> explore_all(const flow& f,
                                            const std::vector<synthesis_constraints>& points,
                                            int threads = 0)
{
    std::vector<flow_report> out(points.size());
    dse::session(f).explore(dse::list(points), collector(out), threads);
    return out;
}

/// The front a consumer mirrors from streamed deltas alone, in the
/// front's (peak, area, index) order.
inline std::vector<front_point> replay_front(const std::vector<front_delta>& deltas)
{
    std::vector<front_point> front;
    for (const front_delta& d : deltas) {
        for (const front_point& p : d.left) std::erase(front, p);
        for (const front_point& p : d.entered) front.push_back(p);
    }
    std::sort(front.begin(), front.end(), [](const front_point& a, const front_point& b) {
        if (a.peak != b.peak) return a.peak < b.peak;
        if (a.area != b.area) return a.area < b.area;
        return a.index < b.index;
    });
    return front;
}

/// The uncached reference: flow::run() once per point, sequentially.
inline std::vector<flow_report> run_each(flow f, const std::vector<synthesis_constraints>& points)
{
    std::vector<flow_report> out;
    out.reserve(points.size());
    for (const synthesis_constraints& c : points) out.push_back(f.constraints(c).run());
    return out;
}

} // namespace phls
