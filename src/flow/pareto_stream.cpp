#include "flow/pareto_stream.h"

#include <algorithm>

#include "power/tracker.h"

namespace phls {

namespace {

front_point to_front_point(std::size_t index, const flow_report& r)
{
    front_point p;
    p.index = index;
    p.latency_bound = r.constraints.latency;
    p.cap = r.constraints.max_power;
    p.area = r.area;
    p.peak = r.peak;
    p.latency = r.latency;
    p.has_lifetime = r.has_lifetime;
    p.lifetime_seconds = r.lifetime_seconds;
    return p;
}

/// Canonical front order: peak, then area, then input index.
bool front_less(const front_point& a, const front_point& b)
{
    if (a.peak != b.peak) return a.peak < b.peak;
    if (a.area != b.area) return a.area < b.area;
    return a.index < b.index;
}

} // namespace

bool operator==(const front_point& a, const front_point& b)
{
    return a.index == b.index && a.latency_bound == b.latency_bound && a.cap == b.cap &&
           a.area == b.area && a.peak == b.peak && a.latency == b.latency &&
           a.has_lifetime == b.has_lifetime && a.lifetime_seconds == b.lifetime_seconds;
}

bool front_dominates(const front_point& a, const front_point& b)
{
    if (a.peak > b.peak || a.area > b.area) return false;
    bool strict = a.peak < b.peak || a.area < b.area;
    if (a.has_lifetime && b.has_lifetime) {
        if (a.lifetime_seconds < b.lifetime_seconds) return false;
        strict = strict || a.lifetime_seconds > b.lifetime_seconds;
    }
    // Exact objective ties collapse to the lower input index, so the
    // front is a deterministic function of the point *set* (duplicate
    // constraint points keep exactly one representative).  The tiebreak
    // only applies between points measured on the same objectives:
    // across differing has_lifetime it could chain into a dominance
    // cycle (a beats b on lifetime, b edges out c by index, c edges out
    // a by index), so such pairs tie only on strict peak/area grounds.
    return strict || (a.has_lifetime == b.has_lifetime && a.index < b.index);
}

bool pareto_stream::add(std::size_t index, const flow_report& report, front_delta* delta)
{
    if (delta != nullptr) {
        delta->index = index;
        delta->entered.clear();
        delta->left.clear();
    }
    if (!report.st.ok() || !report.has_design) return false;

    const front_point p = to_front_point(index, report);
    for (const front_point& q : front_)
        if (front_dominates(q, p)) return false;
    std::erase_if(front_, [&](const front_point& q) {
        if (!front_dominates(p, q)) return false;
        if (delta != nullptr) delta->left.push_back(q);
        return true;
    });
    front_.insert(std::upper_bound(front_.begin(), front_.end(), p, front_less), p);
    if (delta != nullptr) delta->entered.push_back(p);
    return true;
}

const front_point* best_under(const std::vector<front_point>& front, double cap)
{
    const front_point* best = nullptr;
    for (const front_point& p : front) {
        if (p.peak > cap + cap_test::tolerance) continue;
        if (best == nullptr || p.area < best->area ||
            (p.area == best->area &&
             (p.peak < best->peak || (p.peak == best->peak && p.index < best->index))))
            best = &p;
    }
    return best;
}

std::vector<front_point> pareto_points(const std::vector<flow_report>& reports)
{
    std::vector<front_point> feasible;
    for (std::size_t i = 0; i < reports.size(); ++i)
        if (reports[i].st.ok() && reports[i].has_design)
            feasible.push_back(to_front_point(i, reports[i]));

    std::vector<front_point> front;
    for (const front_point& p : feasible) {
        const bool dominated = std::any_of(
            feasible.begin(), feasible.end(),
            [&](const front_point& q) { return q.index != p.index && front_dominates(q, p); });
        if (!dominated) front.push_back(p);
    }
    std::sort(front.begin(), front.end(), front_less);
    return front;
}

} // namespace phls
