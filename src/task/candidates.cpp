#include "task/candidates.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>

#include "cdfg/analysis.h"
#include "power/tracker.h"
#include "support/parallel.h"
#include "support/strings.h"

namespace phls::task {

namespace {

flow task_flow(const task_spec& t)
{
    return flow::on(t.g)
        .with_library(t.lib)
        .synthesizer(t.synthesizer)
        .scheduler(t.scheduler)
        .options(t.options);
}

/// Critical path when every operation runs on its fastest module.
int fastest_critical_path(const task_spec& t)
{
    return critical_path_length(t.g, [&](node_id v) {
        const auto m = t.lib.fastest_for(t.g.kind(v), unbounded_power);
        if (!m) throw error("task '" + t.name + "': library does not cover the graph");
        return t.lib.module(*m).latency;
    });
}

/// The lowest peak any schedule of `t` can reach: every operation draws
/// at least its cheapest module's power in the cycle it executes, so no
/// design peaks below the largest such per-kind minimum.
double peak_floor(const task_spec& t)
{
    double floor_power = 0.0;
    for (node_id v : t.g.nodes()) {
        const auto p = t.lib.min_power_for(t.g.kind(v));
        if (!p) throw error("task '" + t.name + "': library does not cover the graph");
        floor_power = std::max(floor_power, *p);
    }
    return floor_power;
}

task_candidates explore_one(const task_spec& t, double envelope,
                            serve::session_pool& pool, std::size_t memo_limit)
{
    // An impossible envelope is diagnosed before any synthesis runs.
    const double floor_power = peak_floor(t);
    if (floor_power > envelope + power_tracker::tolerance)
        throw task_error(task_error_kind::envelope_exceeded, t.name,
                         strf("no design can peak below %g, above the shared "
                              "envelope %g",
                              floor_power, envelope));

    task_candidates c;
    const serve::job_request job = candidate_job(t, envelope);
    c.slot = pool.acquire(job, memo_limit);

    std::vector<task_impl> impls;
    {
        std::lock_guard<std::mutex> run(c.slot->run);
        dse::sink sk;
        sk.on_result = [&](std::size_t, const flow_report& r) {
            if (!r.st.ok()) return;
            impls.push_back({r.constraints, r.latency, r.peak, r.area});
        };
        // One worker inside each task's sweep: the parallelism of
        // explore_candidates is across tasks, and a single-threaded sweep
        // keeps the candidate list a pure function of the task alone.
        c.slot->session.explore(job.space, sk, /*threads=*/1);
    }

    if (impls.empty())
        throw task_error(task_error_kind::no_feasible_impl, t.name,
                         "no feasible implementation at any explored (T, Pmax) point");

    const int budget = t.deadline - t.release;
    bool any_under_envelope = false;
    int fastest_under_envelope = 0;
    for (const task_impl& impl : impls) {
        if (impl.peak > envelope + power_tracker::tolerance) continue;
        if (!any_under_envelope || impl.latency < fastest_under_envelope)
            fastest_under_envelope = impl.latency;
        any_under_envelope = true;
        if (impl.latency * t.iterations <= budget) c.viable.push_back(impl);
    }
    if (c.viable.empty()) {
        if (!any_under_envelope)
            throw task_error(
                task_error_kind::envelope_exceeded, t.name,
                strf("every feasible implementation peaks above the shared "
                     "envelope %g",
                     envelope));
        throw task_error(
            task_error_kind::deadline_unmeetable, t.name,
            strf("the fastest implementation under the envelope needs %d x %d "
                 "cycles but only %d remain before the deadline",
                 fastest_under_envelope, t.iterations, budget));
    }

    std::sort(c.viable.begin(), c.viable.end(),
              [](const task_impl& a, const task_impl& b) {
                  if (a.latency != b.latency) return a.latency < b.latency;
                  if (a.peak != b.peak) return a.peak < b.peak;
                  if (a.area != b.area) return a.area < b.area;
                  if (a.point.latency != b.point.latency)
                      return a.point.latency < b.point.latency;
                  return a.point.max_power < b.point.max_power;
              });
    c.viable.erase(std::unique(c.viable.begin(), c.viable.end(),
                               [](const task_impl& a, const task_impl& b) {
                                   return a.latency == b.latency &&
                                          a.peak == b.peak && a.area == b.area;
                               }),
                   c.viable.end());
    return c;
}

} // namespace

const char* task_error_kind_name(task_error_kind k)
{
    switch (k) {
    case task_error_kind::no_feasible_impl: return "no_feasible_impl";
    case task_error_kind::envelope_exceeded: return "envelope_exceeded";
    case task_error_kind::deadline_unmeetable: return "deadline_unmeetable";
    }
    return "unknown";
}

std::vector<int> candidate_latencies(const task_spec& t)
{
    std::vector<int> axis;
    if (!t.latencies.empty()) {
        axis = t.latencies;
        std::sort(axis.begin(), axis.end());
        axis.erase(std::unique(axis.begin(), axis.end()), axis.end());
        return axis;
    }
    const int lo = fastest_critical_path(t);
    const int hi = (t.deadline - t.release) / std::max(1, t.iterations);
    if (hi < lo)
        throw task_error(
            task_error_kind::deadline_unmeetable, t.name,
            strf("one iteration needs at least %d cycles (fastest critical "
                 "path) but the per-iteration deadline budget is %d",
                 lo, hi));
    const int span = hi - lo;
    const int count = std::min(4, span + 1);
    for (int k = 0; k < count; ++k)
        axis.push_back(lo + (count == 1 ? 0 : span * k / (count - 1)));
    axis.erase(std::unique(axis.begin(), axis.end()), axis.end());
    return axis;
}

std::vector<double> candidate_caps(const task_spec& t, double envelope)
{
    const bool bounded = envelope < unbounded_power;
    if (t.caps == 1) return {bounded ? envelope : unbounded_power};
    const std::vector<int> latencies = candidate_latencies(t);
    std::vector<double> grid;
    try {
        grid = task_flow(t).latency(latencies.back()).power_grid(t.caps);
    } catch (const task_error&) {
        throw;
    } catch (const error& e) {
        throw task_error(task_error_kind::no_feasible_impl, t.name,
                         std::string("power-grid probe failed: ") + e.what());
    }
    std::vector<double> axis;
    for (double cap : grid)
        if (!bounded || cap < envelope) axis.push_back(cap);
    if (bounded) axis.push_back(envelope);
    std::sort(axis.begin(), axis.end());
    axis.erase(std::unique(axis.begin(), axis.end()), axis.end());
    return axis;
}

serve::job_request candidate_job(const task_spec& t, double envelope)
{
    return serve::make_job(task_flow(t),
                           dse::cross(candidate_latencies(t),
                                      candidate_caps(t, envelope)));
}

const task_impl& flattest_impl(const task_candidates& c)
{
    check(!c.viable.empty(), "flattest_impl: no viable implementations");
    const task_impl* best = &c.viable.front();
    for (const task_impl& impl : c.viable) {
        if (impl.peak < best->peak ||
            (impl.peak == best->peak && impl.latency < best->latency) ||
            (impl.peak == best->peak && impl.latency == best->latency &&
             impl.area < best->area))
            best = &impl;
    }
    return *best;
}

std::vector<task_candidates> explore_candidates(const task_set& set,
                                                serve::session_pool& pool,
                                                std::size_t memo_limit,
                                                int threads)
{
    if (threads <= 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    std::vector<task_candidates> out(set.tasks.size());
    // parallel_for terminates on escaped worker exceptions, and an
    // infeasible task *throws* by design -- capture per slot, then
    // rethrow the lowest task index so the diagnosis is deterministic.
    std::vector<std::exception_ptr> errors(set.tasks.size());
    parallel_for(set.tasks.size(), threads, [&](std::size_t i) {
        try {
            out[i] = explore_one(set.tasks[i], set.envelope, pool, memo_limit);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    });
    for (const std::exception_ptr& e : errors)
        if (e) std::rethrow_exception(e);
    return out;
}

power_profile iteration_profile(const task_spec& t, const task_impl& impl,
                                const dse::session& session)
{
    const flow_report r =
        task_flow(t).constraints(impl.point).reuse(session.cache()).run();
    if (!r.st.ok() || !r.has_design)
        throw error("task '" + t.name + "': recomputing the chosen implementation failed: " +
                    r.st.to_string());
    return r.dp.sched.profile(t.lib);
}

} // namespace phls::task
