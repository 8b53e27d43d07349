#include "flow/flow.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>

#include "battery/lifetime.h"
#include "flow/explore_cache.h"
#include "support/codec.h"
#include "support/errors.h"
#include "support/strings.h"
#include "synth/verify.h"

namespace phls {
namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since)
{
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - since).count();
}

/// The status of serving `dp`, a greedy design from the interval table,
/// at point `c` of graph `g`: with `verify_result` the design is
/// re-checked at `c`, and a failure is internal.
status verify_served(const datapath& dp, const synthesis_constraints& c, const graph& g,
                     const module_library& lib, const synthesis_options& options)
{
    if (!options.verify_result) return status::success();
    try {
        check_datapath(g, lib, dp, c, options.costs);
    } catch (const error& e) {
        return status::internal(
            strf("interval memo served a design that fails at T=%d Pmax=%.6f: %s",
                 c.latency, c.max_power, e.what()));
    }
    return status::success();
}

} // namespace

std::string flow_report::to_string() const
{
    // Canonical rendering of every *result* field; wall_ms is timing
    // noise and deliberately excluded so identical outcomes serialise
    // identically regardless of machine load, thread count or caching.
    std::string out;
    out += "status: " + st.to_string() + '\n';
    out += "strategy: " + strategy + '\n';
    out += strf("point: T=%d Pmax=%.6f\n", constraints.latency, constraints.max_power);
    if (!note.empty()) out += "note: " + note + '\n';
    if (has_design) {
        out += strf("design: area %.4f peak %.4f latency %d instances %zu optimal %d\n",
                    area, peak, latency, dp.instances.size(), optimal ? 1 : 0);
        out += strf("stats: merges=%d pair=%d join=%d rejected=%d recomputes=%d "
                    "locked=%d lock_at=%d rebinds=%d fallbacks=%d\n",
                    stats.merges, stats.pair_merges, stats.join_merges, stats.rejected,
                    stats.window_recomputes, stats.locked ? 1 : 0,
                    stats.merges_before_lock, stats.finalize_rebinds,
                    stats.finalize_fallbacks);
        out += "binding:";
        for (int v = 0; v < dp.sched.node_count(); ++v) {
            const node_id id(v);
            out += strf(" %d@%d:m%d/u%d", v, dp.sched.start(id),
                        dp.sched.module_of(id).value(), dp.instance_of[id.index()]);
        }
        out += '\n';
    }
    if (has_netlist)
        out += strf("netlist: fus %zu registers %zu connections %zu\n", nl.fus.size(),
                    nl.registers.size(), nl.connections.size());
    if (has_lifetime)
        out += strf("lifetime: %.6f s (alpha %.6f)\n", lifetime_seconds, battery_alpha);
    return out;
}

void put_metric_record(byte_writer& w, const metric_record& m)
{
    w.u8(static_cast<std::uint8_t>(m.st.code));
    w.str(m.st.message);
    w.str(m.strategy);
    w.i32(m.constraints.latency);
    w.f64(m.constraints.max_power);
    w.boolean(m.has_design);
    w.boolean(m.optimal);
    w.str(m.note);
    w.f64(m.area);
    w.f64(m.peak);
    w.i32(m.latency);
    w.boolean(m.has_lifetime);
    w.f64(m.lifetime_seconds);
    w.f64(m.battery_alpha);
}

metric_record get_metric_record(byte_reader& r)
{
    metric_record m;
    const std::uint8_t code = r.u8();
    if (code > static_cast<std::uint8_t>(status_code::internal))
        throw decode_error("unknown status code " + std::to_string(code));
    m.st.code = static_cast<status_code>(code);
    m.st.message = r.str();
    m.strategy = r.str();
    m.constraints.latency = r.i32();
    m.constraints.max_power = r.f64();
    m.has_design = r.boolean();
    m.optimal = r.boolean();
    m.note = r.str();
    m.area = r.f64();
    m.peak = r.f64();
    m.latency = r.i32();
    m.has_lifetime = r.boolean();
    m.lifetime_seconds = r.f64();
    m.battery_alpha = r.f64();
    return m;
}

void battery_lifetime(const power_profile& profile, const lifetime_spec& spec,
                      lifetime_estimate& out)
{
    const load_profile load =
        to_load(profile, spec.voltage, spec.cycle_seconds, spec.idle_cycles);
    out.alpha = spec.alpha > 0.0 ? spec.alpha
                                 : profile.energy() * spec.cycle_seconds * 100.0;
    out.seconds = make_rakhmatov_battery(out.alpha, spec.beta)
                      ->lifetime(load, spec.max_seconds)
                      .seconds;
}

flow::flow(const graph& g) : graph_(g), lib_(table1_library()) {}

flow flow::on(const graph& g) { return flow(g); }

flow& flow::with_library(const module_library& lib)
{
    lib_ = lib;
    if (cache_) cache_matches_ = cache_->compatible(graph_, lib_);
    return *this;
}

flow& flow::latency(int cycles)
{
    constraints_.latency = cycles;
    return *this;
}

flow& flow::power_cap(double max_power)
{
    constraints_.max_power = max_power;
    return *this;
}

flow& flow::constraints(const synthesis_constraints& c)
{
    constraints_ = c;
    return *this;
}

flow& flow::synthesizer(std::string name)
{
    synth_name_ = std::move(name);
    return *this;
}

flow& flow::scheduler(std::string name)
{
    sched_name_ = std::move(name);
    return *this;
}

flow& flow::options(const synthesis_options& o)
{
    options_ = o;
    return *this;
}

flow& flow::exact_budget(const exact_options& o)
{
    exact_ = o;
    return *this;
}

flow& flow::emit_netlist(bool enabled)
{
    want_netlist_ = enabled;
    return *this;
}

flow& flow::estimate_lifetime(const lifetime_spec& spec)
{
    want_lifetime_ = true;
    lifetime_ = spec;
    return *this;
}

flow& flow::reuse(std::shared_ptr<const explore_cache> cache)
{
    cache_ = std::move(cache);
    cache_matches_ = cache_ && cache_->compatible(graph_, lib_);
    return *this;
}

std::shared_ptr<explore_cache> flow::build_cache() const
{
    return std::make_shared<explore_cache>(graph_, lib_);
}

status flow::shared_cache(const explore_cache** out) const
{
    *out = nullptr;
    if (!cache_) return status::success();
    if (!cache_matches_)
        return status::invalid(
            "explore_cache was built for a different graph or library");
    *out = cache_.get();
    return status::success();
}

std::string flow::fingerprint(const synthesis_constraints& c) const
{
    byte_writer key(uncapped_fingerprint(c.latency));
    key.f64(c.max_power);
    return key.take();
}

std::string flow::uncapped_fingerprint(int latency) const
{
    // Every field that influences run_point's outcome (beyond the graph
    // and library, which are the cache's identity) is encoded, so flows
    // with distinct configurations never collide; the scheduler name is
    // included for future-proofing even though run_point ignores it.
    byte_writer key;
    put_flow_config(key, synth_name_, sched_name_, options_, exact_, want_netlist_,
                    want_lifetime_, lifetime_);
    key.i32(latency);
    return key.take();
}

void put_flow_config(byte_writer& w, std::string_view synthesizer,
                     std::string_view scheduler, const synthesis_options& options,
                     const exact_options& exact, bool want_netlist, bool want_lifetime,
                     const lifetime_spec& lifetime)
{
    w.str(synthesizer);
    w.str(scheduler);
    w.u8(static_cast<std::uint8_t>(options.policy));
    w.boolean(options.try_both_prospects);
    w.u8(static_cast<std::uint8_t>(options.order));
    w.f64(options.costs.register_area);
    w.f64(options.costs.mux_area_per_extra_input);
    w.boolean(options.costs.include_interconnect);
    w.boolean(options.enable_backtrack_lock);
    w.boolean(options.lock_from_start);
    w.boolean(options.allow_cheapest_rebind);
    w.boolean(options.verify_result);
    w.i32(options.max_merge_attempts);
    w.i32(exact.max_operations);
    w.i64(exact.node_limit);
    w.f64(exact.costs.register_area);
    w.f64(exact.costs.mux_area_per_extra_input);
    w.boolean(exact.costs.include_interconnect);
    w.boolean(want_netlist);
    w.boolean(want_lifetime);
    w.f64(lifetime.voltage);
    w.f64(lifetime.cycle_seconds);
    w.i32(lifetime.idle_cycles);
    w.f64(lifetime.beta);
    w.f64(lifetime.alpha);
    w.f64(lifetime.max_seconds);
}

flow_report flow::run_point(const synthesis_constraints& c,
                            const explore_cache* cache) const
{
    const auto started = std::chrono::steady_clock::now();

    // The report memo: exactly-duplicate points (dense 2-D grids, repeated
    // sweeps over a shared cache) are served whole.  The stored report
    // is a deterministic pure function of the fingerprint, so serving it
    // is byte-identical to recomputing; only wall_ms (excluded from the
    // canonical rendering) reflects the lookup instead.  Then the
    // interval table: a greedy design whose cap span holds this point's
    // limit is what synthesis would return here, up to the fields that
    // name the cap.  Non-finite caps have no span to fall in.  A served
    // point's memo entry shares the span's report, and a synthesised
    // greedy point's two entries share one copy of its report.
    std::string span_key;
    std::string memo_key;
    const bool use_spans = cache != nullptr && std::isfinite(c.max_power);
    if (cache != nullptr) {
        span_key = uncapped_fingerprint(c.latency);
        byte_writer key(span_key);
        key.f64(c.max_power);
        memo_key = key.take();
        flow_report memo;
        if (cache->report_lookup(memo_key, &memo)) {
            memo.wall_ms = elapsed_ms(started);
            return memo;
        }
        std::shared_ptr<const flow_report> stored;
        if (use_spans && cache->interval_lookup(span_key, c.max_power, &stored)) {
            const status verified = verify_served(stored->dp, c, graph_, lib_, options_);
            if (verified.ok()) cache->report_store(memo_key, stored, c);
            flow_report served = *stored;
            restamp_point(served, graph_, c);
            if (!verified.ok()) served.st = verified;
            served.wall_ms = elapsed_ms(started);
            return served;
        }
    }

    flow_report report;
    report.strategy = synth_name_;
    report.constraints = c;
    std::optional<cap_interval> span;
    lifetime_estimate life; // the battery stage fills it in stage order
    try {
        const synth_strategy* strategy =
            strategy_registry::instance().synthesizer(synth_name_);
        if (strategy == nullptr) {
            report.st = status::unsupported("unknown synthesizer strategy '" +
                                            synth_name_ + "'");
            report.wall_ms = elapsed_ms(started);
            return report;
        }

        synth_request request;
        request.g = &graph_;
        request.lib = &lib_;
        request.constraints = c;
        request.options = options_;
        request.exact = exact_;
        request.cache = cache;
        synth_outcome outcome = strategy->run(request);

        report.st = outcome.st;
        report.has_design = outcome.has_design;
        report.stats = outcome.stats;
        report.optimal = outcome.optimal;
        report.note = std::move(outcome.note);
        span = outcome.cap_span;
        if (outcome.has_design) {
            report.dp = std::move(outcome.dp);
            report.area = report.dp.area.total();
            report.peak = report.dp.peak_power(lib_);
            report.latency = report.dp.latency(lib_);
        }

        if (report.st.ok() && want_netlist_) {
            report.nl = build_netlist(report.dp.name, graph_, lib_, report.dp.sched,
                                      report.dp.instance_of,
                                      report.dp.instance_modules());
            report.has_netlist = true;
        }

        if (report.st.ok() && want_lifetime_) {
            const power_profile profile = report.dp.sched.profile(lib_);
            if (cache != nullptr)
                cache->lifetime(profile, lifetime_, life);
            else
                battery_lifetime(profile, lifetime_, life);
            report.lifetime_seconds = life.seconds;
            report.has_lifetime = true;
        }
    } catch (const error& e) {
        report.st = status::invalid(e.what());
    } catch (const std::exception& e) {
        report.st = status::internal(e.what());
    }
    report.battery_alpha = life.alpha;
    report.wall_ms = elapsed_ms(started);
    // internal means an escaped exception (possibly transient, e.g. an
    // allocation failure): memoising it would make one bad run permanent
    // for every duplicate of this point on a shared cache.  The other
    // codes are deterministic outcomes and safe to store.  Only feasible
    // designs keep a span: an infeasible reason prints the cap, and
    // infeasible points are cheap anyway.
    if (cache == nullptr || report.st.code == status_code::internal) return report;
    auto stored = std::make_shared<const flow_report>(report);
    cache->report_store(memo_key, stored, c);
    if (use_spans && report.st.ok() && span)
        cache->interval_store(span_key, c.max_power, *span, std::move(stored));
    return report;
}

flow_report flow::run() const
{
    const explore_cache* cache = nullptr;
    if (const status st = shared_cache(&cache); !st.ok()) {
        flow_report report;
        report.strategy = synth_name_;
        report.constraints = constraints_;
        report.st = st;
        return report;
    }
    return run_point(constraints_, cache);
}

sched_outcome flow::run_schedule() const
{
    const explore_cache* cache = nullptr;
    if (const status st = shared_cache(&cache); !st.ok()) return {st, {}};
    const scheduler_strategy* strategy =
        strategy_registry::instance().scheduler(sched_name_);
    if (strategy == nullptr)
        return {status::unsupported("unknown scheduler strategy '" + sched_name_ + "'"),
                {}};
    sched_request request;
    request.g = &graph_;
    request.lib = &lib_;
    request.power_cap = constraints_.max_power;
    request.latency = constraints_.latency;
    request.order = options_.order;
    request.cache = cache;
    return strategy->run(request);
}

std::vector<double> flow::power_grid(int points) const
{
    check(points >= 2, "power grid needs at least two points");
    const explore_cache* cache = nullptr;
    if (const status st = shared_cache(&cache); !st.ok()) throw error(st.message);

    // Lower edge: no operation can run below the min per-cycle power of
    // its kind, so the sweep starts just under that necessary bound.
    // One min_power_for query per kind present, not one per node.
    double low = 0.0;
    for (const op_kind k : all_op_kinds()) {
        if (graph_.count_of_kind(k) == 0) continue;
        const std::optional<double> p = lib_.min_power_for(k);
        check(p.has_value(), "library does not cover the graph");
        low = std::max(low, *p);
    }

    // Upper edge: the unconstrained design's peak; everything above it is
    // a plateau.  When even the unconstrained probe fails (e.g. the
    // latency bound is below the critical path) there is no meaningful
    // grid to build -- propagate that run's diagnostic instead of
    // fabricating one.
    const flow_report unconstrained =
        run_point({constraints_.latency, unbounded_power}, cache);
    if (!unconstrained.st.ok())
        throw error("power_grid: unconstrained probe failed: " +
                    unconstrained.st.to_string());
    const double high = std::max(unconstrained.peak, low + 1.0);

    std::vector<double> caps;
    caps.reserve(static_cast<std::size_t>(points));
    const double start = std::max(0.5, low - 1.0);
    const double stop = high * 1.15;
    for (int i = 0; i < points; ++i)
        caps.push_back(start + (stop - start) * i / (points - 1));
    return caps;
}

} // namespace phls
