// Area cost model beyond raw functional-unit area.
//
// The paper minimises area "using least interconnect" (via Jou et al.'s
// clique formulation) but does not publish register or multiplexer area
// constants.  This reconstruction charges:
//
//   area = sum of FU instance areas
//        + registers * register_area            (left-edge allocation)
//        + extra mux inputs * mux_area_per_extra_input
//
// where an FU input port driven by k distinct sources costs (k-1) extra
// mux inputs.  Defaults are chosen so that the reproduced `hal` designs
// land in the paper's 500-1000 area band (Figure 2; see bench_figure2).
#pragma once

#include <string>

namespace phls {

/// Interconnect and storage area constants.
struct cost_model {
    double register_area = 12.0;
    double mux_area_per_extra_input = 4.0;
    /// When false, area is FU area only (used by ablation E5).
    bool include_interconnect = true;

    /// Cost of an FU input port with `sources` distinct drivers.
    double mux_cost(int sources) const
    {
        if (!include_interconnect || sources <= 1) return 0.0;
        return mux_area_per_extra_input * (sources - 1);
    }
};

/// Human-readable one-line summary, for reports.
std::string describe(const cost_model& cm);

} // namespace phls
