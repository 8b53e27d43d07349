#include "dse/space.h"

#include <algorithm>

#include "support/errors.h"
#include "support/strings.h"

namespace phls::dse {

std::vector<int> latency_range::values() const
{
    if (step <= 0) throw error(strf("latency_range step must be positive, got %d", step));
    if (hi < lo) throw error(strf("latency_range is empty: lo %d > hi %d", lo, hi));
    std::vector<int> out;
    for (int t = lo; t <= hi; t += step) out.push_back(t);
    return out;
}

std::vector<double> power_range::values() const
{
    if (count < 1) throw error(strf("power_range count must be >= 1, got %d", count));
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(count));
    if (count == 1) {
        out.push_back(lo);
        return out;
    }
    // Same spacing formula as flow::power_grid, so a grid built over a
    // power_grid's end points reproduces its caps bit-for-bit.
    for (int i = 0; i < count; ++i) out.push_back(lo + (hi - lo) * i / (count - 1));
    return out;
}

std::size_t space::size() const
{
    switch (kind_) {
    case kind::list: return points_.size();
    case kind::lattice: return latencies_.size() * caps_.size();
    case kind::concat: return left_->size() + right_->size();
    }
    return 0;
}

void space::enumerate(
    const std::function<bool(std::size_t, const synthesis_constraints&)>& fn) const
{
    // The recursion carries the running base index through concat nodes;
    // the bool result doubles as the early-stop signal.
    const std::function<bool(const space&, std::size_t)> walk =
        [&](const space& s, std::size_t base) -> bool {
        switch (s.kind_) {
        case kind::list:
            for (std::size_t i = 0; i < s.points_.size(); ++i)
                if (!fn(base + i, s.points_[i])) return false;
            return true;
        case kind::lattice:
            for (std::size_t ti = 0; ti < s.latencies_.size(); ++ti)
                for (std::size_t ci = 0; ci < s.caps_.size(); ++ci)
                    if (!fn(base + ti * s.caps_.size() + ci,
                            {s.latencies_[ti], s.caps_[ci]}))
                        return false;
            return true;
        case kind::concat:
            return walk(*s.left_, base) && walk(*s.right_, base + s.left_->size());
        }
        return true;
    };
    walk(*this, 0);
}

synthesis_constraints space::at(std::size_t index) const
{
    switch (kind_) {
    case kind::list:
        check(index < points_.size(), "space::at: index out of range");
        return points_[index];
    case kind::lattice: {
        check(index < size(), "space::at: index out of range");
        const std::size_t np = caps_.size();
        return {latencies_[index / np], caps_[index % np]};
    }
    case kind::concat:
        if (index < left_->size()) return left_->at(index);
        return right_->at(index - left_->size());
    }
    throw error("space::at: index out of range");
}

std::vector<synthesis_constraints> space::materialize(std::size_t limit) const
{
    std::vector<synthesis_constraints> out;
    out.reserve(std::min(limit, size()));
    enumerate([&](std::size_t, const synthesis_constraints& c) {
        if (out.size() >= limit) return false;
        out.push_back(c);
        return true;
    });
    return out;
}

const std::vector<int>& space::latencies() const
{
    check(is_lattice(), "space::latencies: not a lattice space");
    return latencies_;
}

const std::vector<double>& space::caps() const
{
    check(is_lattice(), "space::caps: not a lattice space");
    return caps_;
}

space grid(const latency_range& T, const power_range& P)
{
    return cross(T.values(), P.values());
}

space list(std::vector<synthesis_constraints> points)
{
    space s;
    s.kind_ = space::kind::list;
    s.points_ = std::move(points);
    return s;
}

space cross(std::vector<int> latencies, std::vector<double> caps)
{
    check(!latencies.empty() && !caps.empty(),
          "cross: both axes must be non-empty");
    space s;
    s.kind_ = space::kind::lattice;
    s.latencies_ = std::move(latencies);
    s.caps_ = std::move(caps);
    return s;
}

space refine(std::vector<int> latencies, std::vector<double> caps)
{
    space s = cross(std::move(latencies), std::move(caps));
    s.adaptive_ = true;
    return s;
}

space concat(space a, space b)
{
    check(!a.adaptive() && !b.adaptive(),
          "concat: refine spaces cannot be concatenated");
    space s;
    s.kind_ = space::kind::concat;
    s.left_ = std::make_shared<const space>(std::move(a));
    s.right_ = std::make_shared<const space>(std::move(b));
    return s;
}

} // namespace phls::dse
