// Built-in scheduler and synthesizer strategies + the registry.
#include "flow/strategy.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "flow/explore_cache.h"
#include "sched/asap_alap.h"
#include "sched/force_directed.h"
#include "support/errors.h"
#include "support/strings.h"
#include "synth/schedule_bind.h"
#include "synth/two_step.h"

namespace phls {
namespace {

status validate(const sched_request& r)
{
    if (r.g == nullptr || r.lib == nullptr)
        return status::invalid("sched_request needs a graph and a library");
    return status::success();
}

status validate(const synth_request& r)
{
    if (r.g == nullptr || r.lib == nullptr)
        return status::invalid("synth_request needs a graph and a library");
    if (r.constraints.latency <= 0)
        return status::invalid("latency constraint must be positive");
    return status::success();
}

/// Fills `a` from the request (explicit assignment, or the fastest
/// modules that fit under the power cap, served by the explore_cache
/// when one is attached).
status resolve_assignment(const sched_request& r, module_assignment& a)
{
    if (!r.assignment.empty()) {
        a = r.assignment;
        return status::success();
    }
    a = r.cache ? r.cache->fastest(r.power_cap)
                : fastest_assignment(*r.g, *r.lib, r.power_cap);
    if (a.empty())
        return status::infeasible("no module fits under the power cap");
    return status::success();
}

/// Maps phls::error (malformed inputs, per the error policy) to an
/// invalid_argument status so strategy callers never see exceptions.
template <typename Fn>
auto guarded(Fn&& fn) -> decltype(fn())
{
    try {
        return fn();
    } catch (const error& e) {
        decltype(fn()) out{};
        out.st = status::invalid(e.what());
        return out;
    }
}

status check_latency_bound(const schedule& s, const module_library& lib, int bound,
                           const char* who)
{
    if (bound > 0 && s.latency(lib) > bound)
        return status::infeasible(strf("%s latency %d exceeds the bound %d", who,
                                       s.latency(lib), bound));
    return status::success();
}

// ------------------------------------------------------------ schedulers

class asap_strategy final : public scheduler_strategy {
public:
    std::string name() const override { return "asap"; }
    std::string description() const override
    {
        return "classical earliest-start scheduling (power-oblivious)";
    }
    sched_outcome run(const sched_request& r) const override
    {
        return guarded([&]() -> sched_outcome {
            sched_outcome out{validate(r), {}};
            if (!out.st.ok()) return out;
            module_assignment a;
            if (out.st = resolve_assignment(r, a); !out.st.ok()) return out;
            out.sched = asap_schedule(*r.g, *r.lib, a);
            out.st = check_latency_bound(out.sched, *r.lib, r.latency, name().c_str());
            return out;
        });
    }
};

class alap_strategy final : public scheduler_strategy {
public:
    std::string name() const override { return "alap"; }
    std::string description() const override
    {
        return "classical latest-start scheduling anchored at the latency bound";
    }
    sched_outcome run(const sched_request& r) const override
    {
        return guarded([&]() -> sched_outcome {
            sched_outcome out{validate(r), {}};
            if (!out.st.ok()) return out;
            if (r.latency <= 0) {
                out.st = status::invalid("alap needs a positive latency bound");
                return out;
            }
            module_assignment a;
            if (out.st = resolve_assignment(r, a); !out.st.ok()) return out;
            out.sched = alap_schedule(*r.g, *r.lib, a, r.latency);
            if (!out.sched.complete())
                out.st = status::infeasible(
                    strf("latency bound %d is below the critical path", r.latency));
            return out;
        });
    }
};

class pasap_strategy final : public scheduler_strategy {
public:
    std::string name() const override { return "pasap"; }
    std::string description() const override
    {
        return "the paper's power-constrained ASAP (DATE'03, section 2)";
    }
    sched_outcome run(const sched_request& r) const override
    {
        return guarded([&]() -> sched_outcome {
            sched_outcome out{validate(r), {}};
            if (!out.st.ok()) return out;
            module_assignment a;
            if (out.st = resolve_assignment(r, a); !out.st.ok()) return out;
            pasap_options opts;
            opts.order = r.order;
            const pasap_result pr = pasap(*r.g, *r.lib, a, r.power_cap, opts);
            if (!pr.feasible) {
                out.st = status::infeasible(pr.reason);
                return out;
            }
            out.sched = pr.sched;
            out.st = check_latency_bound(out.sched, *r.lib, r.latency, name().c_str());
            return out;
        });
    }
};

class palap_strategy final : public scheduler_strategy {
public:
    std::string name() const override { return "palap"; }
    std::string description() const override
    {
        return "power-constrained ALAP, the time-reverse of pasap";
    }
    sched_outcome run(const sched_request& r) const override
    {
        return guarded([&]() -> sched_outcome {
            sched_outcome out{validate(r), {}};
            if (!out.st.ok()) return out;
            if (r.latency <= 0) {
                out.st = status::invalid("palap needs a positive latency bound");
                return out;
            }
            module_assignment a;
            if (out.st = resolve_assignment(r, a); !out.st.ok()) return out;
            pasap_options opts;
            opts.order = r.order;
            const pasap_result pr = palap(*r.g, *r.lib, a, r.power_cap, r.latency, opts);
            if (!pr.feasible) {
                out.st = status::infeasible(pr.reason);
                return out;
            }
            out.sched = pr.sched;
            return out;
        });
    }
};

class fds_strategy final : public scheduler_strategy {
public:
    std::string name() const override { return "fds"; }
    std::string description() const override
    {
        return "force-directed scheduling (Paulin & Knight), power-oblivious";
    }
    sched_outcome run(const sched_request& r) const override
    {
        return guarded([&]() -> sched_outcome {
            sched_outcome out{validate(r), {}};
            if (!out.st.ok()) return out;
            if (r.latency <= 0) {
                out.st = status::invalid("fds needs a positive latency bound");
                return out;
            }
            module_assignment a;
            if (out.st = resolve_assignment(r, a); !out.st.ok()) return out;
            const fds_result fr = force_directed_schedule(*r.g, *r.lib, a, r.latency);
            if (!fr.feasible) {
                out.st = status::infeasible(fr.reason);
                return out;
            }
            out.sched = fr.sched;
            return out;
        });
    }
};

// ----------------------------------------------------------- synthesizers

class greedy_strategy final : public synth_strategy {
public:
    std::string name() const override { return "greedy"; }
    std::string description() const override
    {
        return "the paper's integrated power-aware clique partitioner";
    }
    synth_outcome run(const synth_request& r) const override
    {
        return guarded([&]() -> synth_outcome {
            synth_outcome out;
            if (out.st = validate(r); !out.st.ok()) return out;
            // Only a cache can use the span of caps this design holds
            // over, so only a cached run records it.
            std::optional<cap_recorder> recorder;
            if (r.cache != nullptr) recorder.emplace(out.cap_span.emplace());
            const synthesis_result sr =
                synthesize(*r.g, *r.lib, r.constraints, r.options, r.cache);
            recorder.reset();
            out.stats = sr.stats;
            if (!sr.feasible) {
                out.st = status::infeasible(sr.reason);
                return out;
            }
            out.has_design = true;
            out.dp = sr.dp;
            return out;
        });
    }
};

class two_step_strategy final : public synth_strategy {
public:
    std::string name() const override { return "two_step"; }
    std::string description() const override
    {
        return "baseline: time-constrained synthesis, then peak-reducing reorder";
    }
    synth_outcome run(const synth_request& r) const override
    {
        return guarded([&]() -> synth_outcome {
            synth_outcome out;
            if (out.st = validate(r); !out.st.ok()) return out;
            const two_step_result ts =
                two_step_synthesize(*r.g, *r.lib, r.constraints, r.options, r.cache);
            if (!ts.feasible) {
                out.st = status::infeasible(ts.reason);
                return out;
            }
            out.has_design = true;
            out.dp = ts.dp;
            out.note = strf("peak %.2f -> %.2f after %d moves", ts.peak_before,
                            ts.peak_after, ts.moves);
            if (!ts.meets_power)
                out.st = status::infeasible(
                    strf("reordering stopped at peak %.2f, above the cap %.2f",
                         ts.peak_after, r.constraints.max_power));
            return out;
        });
    }
};

class fds_bind_strategy final : public synth_strategy {
public:
    std::string name() const override { return "fds_bind"; }
    std::string description() const override
    {
        return "baseline: force-directed schedule, then greedy instance binding";
    }
    synth_outcome run(const synth_request& r) const override
    {
        return guarded([&]() -> synth_outcome {
            synth_outcome out;
            if (out.st = validate(r); !out.st.ok()) return out;
            const module_assignment a =
                r.cache ? r.cache->fastest(r.constraints.max_power)
                        : fastest_assignment(*r.g, *r.lib, r.constraints.max_power);
            if (a.empty()) {
                out.st = status::infeasible("no module fits under the power cap");
                return out;
            }
            const fds_result fr =
                force_directed_schedule(*r.g, *r.lib, a, r.constraints.latency);
            if (!fr.feasible) {
                out.st = status::infeasible(fr.reason);
                return out;
            }
            out.dp = bind_schedule(r.g->name() + "_fds", *r.g, *r.lib, fr.sched,
                                   r.options.costs);
            out.has_design = true;
            const double peak = out.dp.peak_power(*r.lib);
            if (cap_test(r.constraints.max_power).over(peak))
                out.st = status::infeasible(
                    strf("power-oblivious schedule peaks at %.2f, above the cap %.2f",
                         peak, r.constraints.max_power));
            return out;
        });
    }
};

class exact_strategy final : public synth_strategy {
public:
    std::string name() const override { return "exact"; }
    std::string description() const override
    {
        return "exact branch-and-bound (provably minimal area, small graphs)";
    }
    synth_outcome run(const synth_request& r) const override
    {
        return guarded([&]() -> synth_outcome {
            synth_outcome out;
            if (out.st = validate(r); !out.st.ok()) return out;
            const exact_result er = exact_synthesize(*r.g, *r.lib, r.constraints, r.exact);
            if (!er.feasible) {
                out.st = status::infeasible(
                    er.reason.empty() ? "no design within the constraints" : er.reason);
                out.note = strf("explored %ld nodes", er.explored);
                return out;
            }
            out.has_design = true;
            out.dp = er.dp;
            out.optimal = er.solved;
            out.note = strf("%s; explored %ld nodes",
                            er.solved ? "optimal" : er.reason.c_str(), er.explored);
            return out;
        });
    }
};

} // namespace

// --------------------------------------------------------------- registry

struct strategy_registry::impl {
    mutable std::mutex mutex;
    std::map<std::string, std::shared_ptr<scheduler_strategy>> schedulers;
    std::map<std::string, std::shared_ptr<synth_strategy>> synthesizers;
    /// Strategies replaced by a same-named add(): callers may still hold
    /// (and be running) the pointer scheduler()/synthesizer() lent them.
    std::vector<std::shared_ptr<const void>> retired;
};

strategy_registry::strategy_registry() : impl_(new impl)
{
    add(std::make_shared<asap_strategy>());
    add(std::make_shared<alap_strategy>());
    add(std::make_shared<pasap_strategy>());
    add(std::make_shared<palap_strategy>());
    add(std::make_shared<fds_strategy>());
    add(std::make_shared<greedy_strategy>());
    add(std::make_shared<two_step_strategy>());
    add(std::make_shared<fds_bind_strategy>());
    add(std::make_shared<exact_strategy>());
}

strategy_registry& strategy_registry::instance()
{
    static strategy_registry registry;
    return registry;
}

void strategy_registry::add(std::shared_ptr<scheduler_strategy> s)
{
    check(s != nullptr && !s->name().empty(), "scheduler strategy must have a name");
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    std::shared_ptr<scheduler_strategy>& slot = impl_->schedulers[s->name()];
    if (slot) impl_->retired.push_back(std::move(slot));
    slot = std::move(s);
}

void strategy_registry::add(std::shared_ptr<synth_strategy> s)
{
    check(s != nullptr && !s->name().empty(), "synth strategy must have a name");
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    std::shared_ptr<synth_strategy>& slot = impl_->synthesizers[s->name()];
    if (slot) impl_->retired.push_back(std::move(slot));
    slot = std::move(s);
}

const scheduler_strategy* strategy_registry::scheduler(const std::string& name) const
{
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->schedulers.find(name);
    return it == impl_->schedulers.end() ? nullptr : it->second.get();
}

const synth_strategy* strategy_registry::synthesizer(const std::string& name) const
{
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->synthesizers.find(name);
    return it == impl_->synthesizers.end() ? nullptr : it->second.get();
}

std::vector<std::string> strategy_registry::scheduler_names() const
{
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    std::vector<std::string> names;
    for (const auto& [name, s] : impl_->schedulers) names.push_back(name);
    return names;
}

std::vector<std::string> strategy_registry::synthesizer_names() const
{
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    std::vector<std::string> names;
    for (const auto& [name, s] : impl_->synthesizers) names.push_back(name);
    return names;
}

} // namespace phls
