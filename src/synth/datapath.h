// Synthesis result: allocated FU instances, operation binding, schedule,
// and the area breakdown.
#pragma once

#include <string>
#include <vector>

#include "library/cost_model.h"
#include "sched/schedule.h"

namespace phls {

/// One allocated functional unit.
struct fu_instance {
    int index = 0;
    module_id module;
    std::vector<node_id> ops; ///< operations bound to this instance
};

/// Area accounting (see cost_model.h for the interconnect model).
struct area_breakdown {
    double fu = 0.0;
    double registers = 0.0;
    double muxes = 0.0;

    double total() const { return fu + registers + muxes; }
};

/// A complete datapath: schedule + allocation + binding + area.
struct datapath {
    std::string name;
    schedule sched;
    std::vector<fu_instance> instances;
    std::vector<int> instance_of; ///< per node; -1 = unbound
    area_breakdown area;

    datapath() = default;
    datapath(std::string design_name, int node_count)
        : name(std::move(design_name)), sched(node_count),
          instance_of(static_cast<std::size_t>(node_count), -1)
    {
    }

    /// Allocates a new instance of `m`; returns its flat index.
    int add_instance(module_id m);

    /// Binds `v` to instance `inst` with start time `start`; also records
    /// the module in the schedule.
    void bind(node_id v, int inst, int start);

    /// Module types per instance, aligned with instance indices.
    std::vector<module_id> instance_modules() const;

    /// The area breakdown (FU + registers + muxes) of the current
    /// schedule and binding.
    area_breakdown area_of(const graph& g, const module_library& lib,
                           const cost_model& costs) const;

    /// Recomputes `area` as area_of().
    void compute_area(const graph& g, const module_library& lib, const cost_model& costs)
    {
        area = area_of(g, lib, costs);
    }

    /// Peak per-cycle power of the scheduled design.
    double peak_power(const module_library& lib) const { return sched.profile(lib).peak(); }

    /// Latency in cycles.
    int latency(const module_library& lib) const { return sched.latency(lib); }

    /// Multi-line human-readable report (instances, ops, times, area).
    std::string report(const graph& g, const module_library& lib) const;
};

} // namespace phls
