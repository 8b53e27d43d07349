// Sweep helpers shared by the tests and benches: the sweep under test (a
// session's explore, collected index-addressed through its result
// channel) and the uncached sequential reference it must match
// byte-for-byte.
#pragma once

#include <algorithm>
#include <vector>

#include "dse/session.h"
#include "flow/flow.h"

namespace phls {

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
