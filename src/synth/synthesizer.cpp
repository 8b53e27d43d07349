#include "synth/synthesizer.h"

#include "synth/clique.h"
#include "synth/problem_tables.h"
#include "synth/verify.h"

namespace phls {

namespace {

synthesis_result synthesize_one(const graph& g, const module_library& lib,
                                const synthesis_constraints& constraints,
                                const synthesis_options& options,
                                const problem_tables* tables)
{
    synthesis_result result =
        run_clique_partitioning(g, lib, constraints, options, tables);
    if (!result.feasible) return result;

    result.dp.compute_area(g, lib, options.costs);
    if (options.verify_result)
        check_datapath(g, lib, result.dp, constraints, options.costs);
    return result;
}

} // namespace

synthesis_result synthesize(const graph& g, const module_library& lib,
                            const synthesis_constraints& constraints,
                            const synthesis_options& options,
                            const problem_tables* tables)
{
    g.validate();
    lib.check_covers(g);

    if (!options.try_both_prospects)
        return synthesize_one(g, lib, constraints, options, tables);

    synthesis_options fast = options;
    fast.try_both_prospects = false;
    fast.policy = prospect_policy::fastest_fit;
    synthesis_options cheap = fast;
    cheap.policy = prospect_policy::cheapest_fit;

    // Under many caps the two policies resolve to the same module per
    // operation (e.g. Table 1 below the parallel multiplier's power:
    // both pick mult_ser, and add/sub/comp have a unique best module).
    // Synthesis is a deterministic function of the prospect table, so
    // the second run would reproduce the first bit for bit -- skip it.
    const double cap = constraints.max_power;
    const prospect_result pf =
        tables ? tables->prospect(prospect_policy::fastest_fit, cap)
               : make_prospect(g, lib, prospect_policy::fastest_fit, cap);
    const prospect_result pc =
        tables ? tables->prospect(prospect_policy::cheapest_fit, cap)
               : make_prospect(g, lib, prospect_policy::cheapest_fit, cap);
    const bool same_prospects =
        pf.ok == pc.ok && pf.assignment == pc.assignment && pf.reason == pc.reason;

    const synthesis_result a = synthesize_one(g, lib, constraints, fast, tables);
    const synthesis_result b =
        same_prospects ? a : synthesize_one(g, lib, constraints, cheap, tables);
    if (!a.feasible && !b.feasible) {
        synthesis_result out = a;
        out.reason = "fastest_fit: " + a.reason + "; cheapest_fit: " + b.reason;
        return out;
    }
    if (!a.feasible) return b;
    if (!b.feasible) return a;
    const double area_a = a.dp.area.total();
    const double area_b = b.dp.area.total();
    if (area_b < area_a ||
        (area_b == area_a && b.dp.peak_power(lib) < a.dp.peak_power(lib)))
        return b;
    return a;
}

} // namespace phls
