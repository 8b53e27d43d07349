// Multi-task workloads: many CDFGs sharing one device, one per-cycle
// power envelope and one battery.
//
// The paper synthesises a single CDFG under (T, Pmax) and scores the
// battery lifetime of that one design; a real battery-powered device
// runs *several* kernels with deadlines on shared hardware.  A
// task::task_set captures that system-level workload: each task is a
// CDFG + module library + release/deadline/iteration contract plus an
// optional per-task flow configuration (which strategies synthesise its
// candidate implementations and over which (T, Pmax) axis).  The
// task::schedule engine (engine.h) packs every task's iterations into
// the shared envelope and scores the *composed* device profile on the
// battery models.
//
// Task sets live as data files in the cdfg/textio line-oriented style:
//
//   taskset radio
//   envelope 9.0
//   battery beta 0.1 cycle 0.5 idle 4
//   task rx  hal    deadline 60
//   task dsp cosine deadline 200 release 10 iterations 2 caps 8
//   task ctl hal    deadline 90  latency 10..17..3 synth greedy sched pasap
//
// Lines starting with '#' and blank lines are ignored.  Graphs are
// named benchmarks or `.cdfg` file paths; libraries default to the
// paper's Table 1 (`library <file.lib>` on a task line overrides).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cdfg/graph.h"
#include "flow/flow.h"
#include "library/library.h"

namespace phls::task {

/// One task of a multi-task workload: a CDFG with a timing contract and
/// the configuration of its per-task candidate synthesis.
struct task_spec {
    std::string name; ///< unique within the set (one token, no spaces)
    graph g;          ///< the kernel this task executes
    module_library lib; ///< functional-unit library (default: Table 1)

    int release = 0;    ///< earliest start cycle (>= 0)
    int deadline = 0;   ///< all iterations finished by this cycle (> release)
    int iterations = 1; ///< graph executions per activation; preemption is
                        ///< allowed *between* iterations, never inside one

    /// Explicit per-task latency axis of the candidate (T, Pmax) space;
    /// empty = derived (fastest critical path up to the per-iteration
    /// deadline budget, at most four values).
    std::vector<int> latencies;
    int caps = 6; ///< power-cap axis size (a per-task Figure-2 grid)

    std::string synthesizer = "greedy"; ///< flow synthesis strategy
    std::string scheduler = "pasap";    ///< flow scheduler strategy
    synthesis_options options;          ///< heuristic knobs for the flow
};

/// A complete workload: the tasks, the shared per-cycle power envelope
/// and the battery the composed profile is scored on.
struct task_set {
    std::string name;
    /// Shared per-cycle power cap across every concurrently executing
    /// task (the device's power envelope); infinity = unconstrained.
    double envelope = unbounded_power;
    /// Battery parameters of the composed profile (same fields the flow
    /// lifetime stage uses; alpha <= 0 derives the capacity from the
    /// non-preemptive baseline schedule's energy so policies stay
    /// comparable on one battery).
    lifetime_spec battery;
    std::vector<task_spec> tasks;
};

/// Structural validation shared by the parser and programmatic callers:
/// non-empty set, unique single-token task names, deadline > release
/// >= 0, iterations >= 1, caps >= 1, positive explicit latencies,
/// envelope > 0, sane battery parameters, and every task's library
/// covering its graph.  @throws phls::error naming the offending task.
void check_task_set(const task_set& set);

/// Parses the text format; resolves graph names through the built-in
/// benchmarks or (for `.cdfg` paths) from disk, and `library` values
/// from disk.  @throws phls::parse_error with a line number on bad
/// input, phls::error on failed validation.
task_set parse_task_set(std::istream& is);

/// Parses from a string; parse_task_set reads its stream into one and
/// calls this.
task_set parse_task_set_string(std::string_view text);

/// Serialises in the format accepted by parse_task_set.  Graphs are
/// written by name, so every task graph must be a built-in benchmark
/// (file-loaded graphs have no stable path to emit); libraries must be
/// the default Table 1.  @throws phls::error otherwise.
std::string write_task_set_string(const task_set& set);

} // namespace phls::task
