// Start-time windows.
//
// The paper derives each operator's feasible start window from pasap
// (earliest power-feasible start) and palap (latest power-feasible start
// under the latency bound); the compatibility graph is built from these
// windows, "bounding the design space to those of power feasible
// schedules".  power_windows() packages that computation.
//
// constrained_earliest/latest are the power-oblivious counterparts with
// support for pinned operators; they serve force-directed scheduling and
// the two-step baseline.
#pragma once

#include <string>
#include <vector>

#include "power/tracker.h"
#include "sched/pasap.h"

namespace phls {

/// Per-operator start-time windows [s_min, s_max].
struct time_windows {
    bool feasible = false;
    std::string reason;
    std::vector<int> s_min;
    std::vector<int> s_max;

    int mobility(node_id v) const { return s_max[v.index()] - s_min[v.index()]; }
};

/// Windows from pasap/palap under power cap `max_power` and latency bound
/// `latency`.  Feasibility is decided by pasap alone: its schedule is a
/// complete valid witness (the paper's "deleted operator" event therefore
/// reduces to pasap failing or overrunning the latency bound).  palap,
/// being an independent greedy pass, only *widens* a window beyond the
/// pasap time when it agrees; where it disagrees the window degenerates
/// to the pasap time.  `options.fixed_starts` carries committed operators.
/// Runs a one-shot window_engine, or the seed-era reference passes under
/// kernel_knobs().skip_probe = false.
time_windows power_windows(const graph& g, const module_library& lib,
                           const module_assignment& assignment, double max_power,
                           int latency, const pasap_options& options = {});

/// pasap, palap and power_windows() for one graph and library, kept warm
/// across calls.  The clique partitioner recomputes the windows after
/// every merge decision on the same graph, library and, almost always,
/// the same delays, so the engine holds what a one-shot call rebuilds:
///   * the graph as flat CSR arrays; the reversed graph's successor
///     lists are the producers in id order, as reversed_graph() builds
///     them, so every diagnostic names the same operator;
///   * each operator's delay and power under the last assignment; only
///     operators whose module changed are validated again, with the
///     same checks (graph and library never change under an engine);
///   * both pick orders (see pasap.h): the topological orders of the
///     graph and of its reverse, or the critical-path orders, which are
///     re-sorted only after a delay changed;
///   * the start and ledger buffers of its passes.
/// Every answer, diagnostic and cap test is the one the seed-era
/// reference (kernel_knobs().skip_probe = false) gives, except that free
/// operators are placed with power_tracker::next_fit; tests/
/// test_window_engine.cpp drives warm engines against that reference.
/// Not thread-safe: one engine per partitioning.
class window_engine {
public:
    /// `topo` / `reversed_topo`: optional g.topo_order() and
    /// reversed_graph(g).topo_order(), copied (power_windows() passes
    /// pasap_options::topo / reversed_topo); null = computed here when
    /// needed.
    window_engine(const graph& g, const module_library& lib,
                  pasap_order order = pasap_order::critical_path,
                  const std::vector<node_id>* topo = nullptr,
                  const std::vector<node_id>* reversed_topo = nullptr);

    /// power_windows(g, lib, assignment, max_power, latency,
    /// {order, fixed}), written into `out` (its buffers are reused).
    void windows(const module_assignment& assignment, double max_power, int latency,
                 const std::vector<int>& fixed, time_windows& out);

    /// pasap(g, lib, assignment, max_power, {order, fixed}).
    pasap_result pasap(const module_assignment& assignment, double max_power,
                       const std::vector<int>& fixed);

    /// palap(g, lib, assignment, max_power, latency, {order, fixed}).
    pasap_result palap(const module_assignment& assignment, double max_power, int latency,
                       const std::vector<int>& fixed);

private:
    bool load(const module_assignment& assignment, double max_power, std::string* reason);
    bool run(bool reversed, const int* fixed, double max_power, std::string* reason);
    const std::vector<int>& pick_order(bool reversed);
    const std::string& label(int v) const { return g_.label(node_id(v)); }

    const graph& g_;
    const module_library& lib_;
    pasap_order order_;
    int n_;
    std::vector<int> succ_off_, succ_; ///< successors, in g.succs() order
    std::vector<int> pred_off_, pred_; ///< producers by id (the reversed successors)
    std::vector<int> topo_;            ///< g.topo_order()
    std::vector<module_id> module_;    ///< last validated module (invalid = none yet)
    std::vector<int> delay_;
    std::vector<double> power_;
    long total_delay_ = 0;
    double max_power_ = 0.0;
    std::vector<int> orders_[2]; ///< pick orders of the forward and reversed passes
    bool stale_[2] = {true, true};
    std::vector<long> priority_;
    std::vector<int> start_;
    std::vector<int> rfixed_; ///< committed starts on the reversed clock
    int free_ = 0;            ///< free operators of the last pass
    power_tracker ledger_;
};

/// Classic windows (no power cap) under `latency`, same reporting.
time_windows classic_windows(const graph& g, const module_library& lib,
                             const module_assignment& assignment, int latency,
                             const std::vector<int>& fixed_starts = {});

/// ASAP start times with pinned operators: fixed[v] >= 0 forces start(v).
/// Returns an empty vector if a pin violates a data dependency.
std::vector<int> constrained_earliest(const graph& g, const module_library& lib,
                                      const module_assignment& assignment,
                                      const std::vector<int>& fixed);

/// ALAP start times with pinned operators under `latency`; empty vector if
/// infeasible.
std::vector<int> constrained_latest(const graph& g, const module_library& lib,
                                    const module_assignment& assignment, int latency,
                                    const std::vector<int>& fixed);

} // namespace phls
