// Pluggable strategy interfaces behind the flow engine.
//
// The repository ships several schedulers (asap/alap, pasap/palap,
// force-directed) and synthesizers (the paper's integrated greedy clique
// partitioner, the two-step baseline, schedule-then-bind, the exact
// branch-and-bound).  Each is exposed here behind a small named
// interface and a process-wide registry, so callers select backends by
// name ("pasap", "greedy", "exact", ...) and new backends register
// without touching any caller.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "flow/status.h"
#include "power/tracker.h"
#include "sched/pasap.h"
#include "synth/exact.h"
#include "synth/synthesizer.h"

namespace phls {

class explore_cache;

// ------------------------------------------------------------ schedulers

/// Inputs to a scheduler strategy.  `assignment` may be empty, in which
/// case the strategy picks the fastest module per operation that fits
/// under `power_cap`.  `latency == 0` means unbounded.
struct sched_request {
    const graph* g = nullptr;              ///< the design to schedule
    const module_library* lib = nullptr;   ///< functional-unit library
    module_assignment assignment;          ///< per-node module (may be empty)
    double power_cap = unbounded_power;    ///< per-cycle power cap
    int latency = 0;                       ///< latency bound (0 = unbounded)
    pasap_order order = pasap_order::critical_path; ///< pasap pick order
    /// Shared (graph, lib) invariants for batch exploration; may be null.
    /// When set, it must have been built for (*g, *lib) -- the flow
    /// engine guarantees this; direct callers own the contract.
    const explore_cache* cache = nullptr;
};

/// Scheduler outcome: `sched` is complete iff `st.ok()`.
struct sched_outcome {
    status st;      ///< ok, infeasible, invalid_argument, ...
    schedule sched; ///< complete schedule (see st)
};

/// A named scheduling backend.  Implementations must be stateless /
/// thread-safe: `run` is called concurrently from sweep workers.
class scheduler_strategy {
public:
    virtual ~scheduler_strategy() = default;
    /// Stable registry name ("asap", "pasap", ...).
    virtual std::string name() const = 0;
    /// One-line human description (shown by `phls strategies`).
    virtual std::string description() const = 0;
    /// Runs the scheduler; never throws for expected failures.
    virtual sched_outcome run(const sched_request& request) const = 0;
};

// ----------------------------------------------------------- synthesizers

/// Inputs to a synthesis strategy.
struct synth_request {
    const graph* g = nullptr;            ///< the design to synthesise
    const module_library* lib = nullptr; ///< functional-unit library
    synthesis_constraints constraints;   ///< the (T, Pmax) point
    synthesis_options options;           ///< heuristic knobs
    exact_options exact; ///< budget, used by the "exact" strategy only
    /// Shared (graph, lib) invariants for batch exploration; may be null.
    /// Same contract as sched_request::cache.
    const explore_cache* cache = nullptr;
};

/// Synthesis outcome.  `dp` holds a design whenever one was produced --
/// for baseline strategies that can miss the power cap (two-step), `st`
/// is infeasible but `has_design` is still true so callers can report
/// the achieved peak.
struct synth_outcome {
    status st;               ///< ok, infeasible, invalid_argument, ...
    bool has_design = false; ///< dp holds a design (may violate the cap)
    datapath dp;             ///< schedule + allocation + binding
    synthesis_stats stats;   ///< heuristic counters
    bool optimal = false; ///< design proven minimal-area ("exact" strategy)
    std::string note;     ///< e.g. "optimal" or "search budget exhausted"
    /// The span of limits Pmax' + tolerance over which every cap test of
    /// this run answers as it did (see cap_recorder).  Filled only by
    /// the greedy strategy, and only when a cache is attached to keep
    /// it.  A strategy that fills it promises that, at any Pmax' of the
    /// same admissible-module bucket inside the span, it would return
    /// the same outcome with the design renamed design_name(g, Pmax').
    std::optional<cap_interval> cap_span;
};

/// A named synthesis backend (schedule + allocation + binding under
/// (T, Pmax)).  Implementations must be stateless / thread-safe.
class synth_strategy {
public:
    virtual ~synth_strategy() = default;
    /// Stable registry name ("greedy", "exact", ...).
    virtual std::string name() const = 0;
    /// One-line human description (shown by `phls strategies`).
    virtual std::string description() const = 0;
    /// Runs the synthesis; never throws for expected failures.
    virtual synth_outcome run(const synth_request& request) const = 0;
};

// --------------------------------------------------------------- registry

/// Process-wide name -> strategy table.  Built-in strategies are
/// registered on first use; user backends may be added at any time.
/// Lookup returns borrowed pointers that stay valid for the process
/// lifetime (strategies are never unregistered, and one replaced by a
/// same-named add() is kept alive, so a caller still running it is
/// safe).
class strategy_registry {
public:
    /// The singleton, with built-ins registered.
    static strategy_registry& instance();

    /// Registers a backend; replaces any existing strategy of the same
    /// name (latest wins).  Thread-safe.
    void add(std::shared_ptr<scheduler_strategy> s);
    void add(std::shared_ptr<synth_strategy> s);

    /// nullptr when the name is unknown.
    const scheduler_strategy* scheduler(const std::string& name) const;
    const synth_strategy* synthesizer(const std::string& name) const;

    /// Registered names, sorted.
    std::vector<std::string> scheduler_names() const;
    std::vector<std::string> synthesizer_names() const;

private:
    strategy_registry();

    struct impl;
    std::unique_ptr<impl> impl_;
};

} // namespace phls
