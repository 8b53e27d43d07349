// The flow engine: single entry point to the whole pipeline.
//
// A phls::flow owns one design problem -- a CDFG, a module library and
// the (T, Pmax) constraints -- and runs the paper's pipeline as
// composable stages: scheduling -> synthesis (allocation + binding) ->
// RTL netlist -> battery lifetime.  Stages are selected fluently and
// every outcome is reported through phls::status (no bools, no
// exceptions for expected infeasibility):
//
//   const flow_report r = flow::on(g)
//                             .with_library(lib)
//                             .latency(17)
//                             .power_cap(7.0)
//                             .emit_netlist()
//                             .run();
//   if (r.st.ok()) use(r.dp, r.nl);
//
// Backends are pluggable by name through the strategy registry
// (`.synthesizer("exact")`, `.scheduler("fds")` -- see strategy.h).
// Sweeps over many (T, Pmax) points run through dse::session
// (dse/session.h): it owns the worker pool and an explore_cache built
// for this flow's problem, and evaluates every point with this flow's
// configuration.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "flow/strategy.h"
#include "rtl/netlist.h"

namespace phls {

class byte_reader;
class byte_writer;
class explore_cache;
namespace dse {
class session;
}

/// Battery-lifetime stage parameters (see battery/battery.h for the
/// underlying Rakhmatov-Vrudhula model).
struct lifetime_spec {
    double voltage = 1.0;       ///< converts power to current
    double cycle_seconds = 0.5; ///< wall-clock length of one cycle
    int idle_cycles = 0;        ///< sleep cycles appended per period
    double beta = 0.1;          ///< diffusion parameter (smaller = worse cell)
    /// Battery capacity alpha; <= 0 derives it from the design itself as
    /// `energy * cycle_seconds * 100` (roughly 100 iterations of margin),
    /// which keeps lifetimes comparable across designs of one graph.
    double alpha = 0.0;
    double max_seconds = 1e9; ///< simulation horizon
};

/// The battery stage's answer for one design.
struct lifetime_estimate {
    double alpha = 0.0;   ///< battery capacity the model used
    double seconds = 0.0; ///< lifetime until the battery is exhausted
};

/// The battery stage on one design's per-cycle power profile: the
/// Rakhmatov-Vrudhula lifetime of the periodic load to_load() makes of
/// `profile` under `spec`, with alpha derived from the profile when
/// spec.alpha <= 0.  A pure function of the profile's values and every
/// field of `spec`, which is what lets explore_cache::lifetime memoise
/// it.  Fills `out` in stage order: `out.alpha` once to_load() accepts
/// the spec, then `out.seconds`.  @throws phls::error on a spec the
/// load or the model rejects (a rejecting model leaves `out.alpha`
/// set, so a failed report still names the capacity it was given).
void battery_lifetime(const power_profile& profile, const lifetime_spec& spec,
                      lifetime_estimate& out);

/// The metric projection of a flow run: everything a sweep table,
/// Pareto front or Figure-2 envelope reads — status, achieved (peak,
/// area, latency) and battery lifetime — without the datapath, netlist
/// or heuristic counters.  Every flow_report is one (it is the base).
/// A report-memo entry keeps one after LRU eviction, cache files
/// persist them and wire report frames carry them, so evicted and
/// warm-started points still answer metric queries without a
/// resynthesis.
struct metric_record {
    status st;            ///< ok, infeasible, invalid_argument, ...
    std::string strategy; ///< synthesis strategy used
    synthesis_constraints constraints; ///< the (T, Pmax) point evaluated

    /// A design was produced.  True for every ok() report; also true for
    /// baseline strategies that produced a design violating the cap (the
    /// status is infeasible but the datapath is still inspectable).
    bool has_design = false;
    bool optimal = false;  ///< design proven minimal-area ("exact" strategy)
    std::string note;      ///< strategy remark ("optimal", peak trace, ...)

    double area = 0.0;  ///< dp.area.total()
    double peak = 0.0;  ///< achieved peak per-cycle power
    int latency = 0;    ///< achieved latency, cycles

    bool has_lifetime = false;       ///< estimate_lifetime() stage ran
    double lifetime_seconds = 0.0;   ///< battery lifetime of this design
    double battery_alpha = 0.0;      ///< capacity used by the model
};

/// Structured outcome of one flow run: its metric record plus the
/// design behind it.
struct flow_report : metric_record {
    datapath dp;           ///< schedule + allocation + binding (see has_design)
    synthesis_stats stats; ///< heuristic counters (greedy strategy)

    bool has_netlist = false; ///< emit_netlist() stage ran
    netlist nl;               ///< structural netlist (see has_netlist)

    double wall_ms = 0.0; ///< wall-clock time of this run

    /// Shorthand for st.ok().
    bool feasible() const { return st.ok(); }

    /// Canonical multi-line rendering of every result field (used by the
    /// determinism tests: identical reports must serialise identically).
    std::string to_string() const;
};

/// A metric record turned back into a (metric-only) flow_report: status
/// and achieved metrics are exact, the datapath/netlist/stats are empty.
/// This is the shape dse::session serves warm points in and the shape
/// the serve layer streams over the wire.
inline flow_report metric_report(const metric_record& m)
{
    flow_report r;
    static_cast<metric_record&>(r) = m;
    return r;
}

/// The metric projection of a finished report: metric_report(metric_of(r))
/// preserves status and every achieved metric of `r`.
inline metric_record metric_of(const flow_report& r) { return r; }

/// Appends `m` in the one metric-record layout that cache-file records
/// and wire report frames share (support/codec.h fields).
void put_metric_record(byte_writer& w, const metric_record& m);

/// Reads one record put_metric_record() wrote.  @throws decode_error on
/// truncated bytes, an unknown status code or a boolean field that is
/// neither 0 nor 1.
metric_record get_metric_record(byte_reader& r);

/// Fluent builder + executor for one design problem.  The graph and
/// library are copied in, so a flow outlives its inputs; a configured
/// flow is immutable under run() and safe to share across threads.
class flow {
public:
    /// Starts a flow on a copy of `g` with the paper's Table 1 library.
    static flow on(const graph& g);

    /// Replaces the module library (default: the paper's Table 1).  A
    /// cache installed with reuse() is checked against the new library.
    flow& with_library(const module_library& lib);
    /// Sets the latency constraint T in cycles.
    flow& latency(int cycles);
    /// Sets the per-cycle power cap Pmax (default: unbounded).
    flow& power_cap(double max_power);
    /// Sets both constraints at once.
    flow& constraints(const synthesis_constraints& c);

    /// Selects the synthesis backend by registry name (default "greedy").
    flow& synthesizer(std::string name);
    /// Selects the scheduler backend used by run_schedule (default "pasap").
    flow& scheduler(std::string name);
    /// Heuristic knobs forwarded to the synthesis strategy.
    flow& options(const synthesis_options& o);
    /// Search budget for the "exact" strategy.
    flow& exact_budget(const exact_options& o);

    /// Enables the RTL stage: flow_report::nl is filled on success.
    flow& emit_netlist(bool enabled = true);
    /// Enables the battery stage: lifetime of the synthesised design.
    flow& estimate_lifetime(const lifetime_spec& spec = {});

    /// Shares a pre-built explore_cache with this flow: run(),
    /// run_schedule() and power_grid() serve the problem tables
    /// (reachability, prospect and fastest tables; problem_tables),
    /// whole reports of exactly-duplicate points and greedy designs
    /// whose cap span holds the point from it instead of recomputing
    /// per point (see explore_cache).  The cache must have
    /// been built for this flow's (graph, library) -- see build_cache();
    /// a mismatched cache makes every run report invalid_argument rather
    /// than silently computing on the wrong problem.  The match is
    /// decided here, and again by with_library() while a cache is
    /// installed, not on every run.
    flow& reuse(std::shared_ptr<const explore_cache> cache);

    /// Builds an explore_cache for this flow's (graph, library), ready to
    /// pass to reuse() -- on this flow and on any other flow over the
    /// same problem.  @throws phls::error on a malformed problem.
    std::shared_ptr<explore_cache> build_cache() const;

    /// Runs scheduling -> synthesis -> netlist -> lifetime for the
    /// configured constraint point.  Never throws: malformed inputs come
    /// back as status invalid_argument, impossible constraints as
    /// status infeasible.
    flow_report run() const;

    /// Runs only the scheduling stage with the selected scheduler
    /// strategy (assignment: fastest modules under the cap).
    sched_outcome run_schedule() const;

    /// The report-memo key for point `c`: every configuration field
    /// that influences run()'s outcome (strategy names, options, enabled
    /// stages, lifetime spec; put_flow_config()), then the latency and
    /// last the cap, in the byte codec of support/codec.h (fixed-width
    /// little-endian, canonical doubles), so two flows share a stored
    /// report iff they would compute identical ones, on any host.
    /// dse::session uses this for metric lookups against a warm-started
    /// cache, and cache files store it with each record.
    std::string fingerprint(const synthesis_constraints& c) const;

    /// A Figure-2-style power grid for this problem: `points` caps from
    /// just below the feasibility threshold to just above the
    /// unconstrained design's peak.  @throws phls::error when points < 2,
    /// the library does not cover the graph, or the unconstrained probe
    /// run fails (e.g. the latency bound is below the critical path) --
    /// the error carries that run's diagnostic instead of fabricating a
    /// grid.
    std::vector<double> power_grid(int points) const;

    // Accessors (used by reporting, the CLI and the serve layer, which
    // serialises a configured flow into a wire job request).
    /// The graph this flow was built on.
    const graph& design() const { return graph_; }
    /// The module library in use.
    const module_library& library() const { return lib_; }
    /// The configured (T, Pmax) point.
    const synthesis_constraints& point() const { return constraints_; }
    /// The selected synthesis strategy name.
    const std::string& synthesizer_name() const { return synth_name_; }
    /// The selected scheduler strategy name.
    const std::string& scheduler_name() const { return sched_name_; }
    /// The heuristic knobs forwarded to the synthesis strategy.
    const synthesis_options& synthesis_opts() const { return options_; }
    /// The "exact" strategy's search budget.
    const exact_options& exact_opts() const { return exact_; }
    /// True iff the RTL netlist stage is enabled.
    bool wants_netlist() const { return want_netlist_; }
    /// True iff the battery-lifetime stage is enabled.
    bool wants_lifetime() const { return want_lifetime_; }
    /// The battery-lifetime stage parameters.
    const lifetime_spec& lifetime() const { return lifetime_; }

private:
    // The session evaluates sweep points through run_point on the cache
    // it built from its own prototype, so no point re-checks the cache.
    friend class dse::session;

    explicit flow(const graph& g);

    /// The pipeline at point `c`, serving and storing through `cache`
    /// when it is non-null; never throws.
    flow_report run_point(const synthesis_constraints& c,
                          const explore_cache* cache) const;

    /// fingerprint() without the cap: the configuration and `latency`,
    /// the interval table's key.
    std::string uncapped_fingerprint(int latency) const;

    /// The shared cache when it is installed and matches this problem;
    /// a non-ok status when it is installed but stale.
    status shared_cache(const explore_cache** out) const;

    graph graph_;
    module_library lib_;
    synthesis_constraints constraints_{0, unbounded_power};
    std::string synth_name_ = "greedy";
    std::string sched_name_ = "pasap";
    synthesis_options options_;
    exact_options exact_;
    bool want_netlist_ = false;
    bool want_lifetime_ = false;
    lifetime_spec lifetime_;
    std::shared_ptr<const explore_cache> cache_;
    /// Whether cache_ was built for (graph_, lib_)
    /// (problem_tables::compatible), decided when reuse() or
    /// with_library() binds the pair.
    bool cache_matches_ = false;
};

/// Appends a flow configuration -- strategy names, synthesis and exact
/// options, enabled stages, battery parameters -- in the one layout
/// that flow::fingerprint() and the wire's job frames share.
void put_flow_config(byte_writer& w, std::string_view synthesizer,
                     std::string_view scheduler, const synthesis_options& options,
                     const exact_options& exact, bool want_netlist, bool want_lifetime,
                     const lifetime_spec& lifetime);

} // namespace phls
