#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <thread>

#include "battery/battery.h"
#include "battery/lifetime.h"
#include "cdfg/analysis.h"
#include "cdfg/textio.h"
#include "dse/session.h"
#include "flow/explore_cache.h"
#include "flow/flow.h"
#include "inputs.h"
#include "measure.h"
#include "power/tracker.h"
#include "sched/mobility.h"
#include "sched/pasap.h"
#include "serve/shard.h"
#include "serve/wire.h"
#include "support/errors.h"
#include "support/kernels.h"
#include "support/strings.h"
#include "synth/arena.h"
#include "synth/candidates.h"
#include "synth/clique.h"
#include "synth/compat.h"
#include "synth/prospect.h"
#include "synth/verify.h"
#include "task/candidates.h"
#include "task/engine.h"
#include "task/set.h"

namespace perfbench {

using namespace phls;

namespace {

/// Wall and CPU time of the user-visible part of a pass.
class stopwatch {
public:
    void stop(pass_outcome& out) const
    {
        out.wall_s = now_s() - wall0_;
        out.cpu_s = cpu_s() - cpu0_;
    }

private:
    double wall0_ = now_s();
    double cpu0_ = cpu_s();
};

/// Statuses that count as a failed operation (infeasible points are a
/// correct answer of a sweep).
bool failed_status(const status& st)
{
    return st.code == status_code::internal || st.code == status_code::invalid_argument;
}

void note(pass_outcome& out, const std::string& what)
{
    if (out.problems.size() < 8) out.problems.push_back(what);
}

/// Rakhmatov lifetime of one design's profile, as the flow's battery
/// stage computes it.
double design_lifetime(const datapath& dp, const module_library& lib, const lifetime_spec& spec)
{
    const power_profile profile = dp.sched.profile(lib);
    const load_profile load =
        to_load(profile, spec.voltage, spec.cycle_seconds, spec.idle_cycles);
    const double alpha = spec.alpha > 0.0 ? spec.alpha
                                          : profile.energy() * spec.cycle_seconds * 100.0;
    return make_rakhmatov_battery(alpha, spec.beta)->lifetime(load, spec.max_seconds).seconds;
}

/// Takes the state a setup() left for one run, so that every run starts
/// from a fresh one.
template <typename T>
std::unique_ptr<T> take(std::unique_ptr<T>& fresh)
{
    phls::check(fresh != nullptr, "a workload run needs a setup() before it");
    return std::move(fresh);
}

// ---------------------------------------------------------------- synth-dag

class synth_dag final : public workload {
public:
    explicit synth_dag(const workload_config& cfg) : threads_(cfg.threads) {}

    void setup(std::uint64_t seed) override
    {
        variant_ = variant_of(seed);
        texts_ = synth_dag_texts(variant_);
        dags_ = parse_dags(texts_, lib_);
    }

    pass_outcome run(tracer* tr, bool verify) override
    {
        pass_outcome out;
        last_.assign(dags_.size(), flow_report{});
        const stopwatch sw;
        {
            // The designs are independent syntheses, `threads_` at a time,
            // each thread taking the next DAG when it is done.
            const scope s(tr, "flow.run");
            std::atomic<std::size_t> next{0};
            std::vector<std::jthread> pool;
            for (int t = 0; t < threads_; ++t)
                pool.emplace_back([&] {
                    for (std::size_t i; (i = next++) < dags_.size();)
                        last_[i] = design_flow(dags_[i]).run();
                });
        }
        sw.stop(out);

        std::string inputs;
        for (const std::string& t : texts_) inputs += t;
        out.checks.push_back({strf("v%d.input", variant_), digest(inputs),
                              static_cast<long>(dags_.size())});
        for (std::size_t i = 0; i < dags_.size(); ++i) {
            const flow_report& r = last_[i];
            ++out.attempted;
            out.checks.push_back({strf("v%d.d%zu", variant_, i), digest(r.to_string()), 1});
            if (!r.st.ok()) {
                ++out.failed;
                note(out, dags_[i].g.name() + ": " + r.st.to_string());
                continue;
            }
            if (!verify) continue;
            const std::vector<std::string> violations =
                verify_datapath(dags_[i].g, lib_, r.dp, dags_[i].c, cost_model{});
            if (!violations.empty()) {
                ++out.failed;
                note(out, dags_[i].g.name() + ": verify: " + violations.front());
            }
        }
        return out;
    }

    void probe(tracer& tr, int) override
    {
        const synthesis_options o;
        double rebuild_rss = 0.0;
        long initial_candidates = 0;
        long long candidates_ns = 0, rollback_ns = 0;
        for (std::size_t i = 0; i < dags_.size(); ++i) {
            const dag_input& d = dags_[i];
            const double cap = d.c.max_power;
            {
                const scope s(&tr, "cdfg.parse");
                parse_cdfg_string(d.text);
            }
            prospect_result p;
            {
                const scope s(&tr, "synth.prospect");
                p = make_prospect(d.g, lib_, prospect_policy::fastest_fit, cap);
                make_prospect(d.g, lib_, prospect_policy::cheapest_fit, cap);
            }
            const pasap_options so{o.order, {}, nullptr};
            {
                const scope s(&tr, "sched.pasap");
                pasap(d.g, lib_, p.assignment, cap, so);
            }
            {
                const scope s(&tr, "sched.palap");
                palap(d.g, lib_, p.assignment, cap, d.c.latency, so);
            }
            {
                const scope s(&tr, "power.next_fit_sweep");
                place_all(d.g, p.assignment, cap);
            }

            // The partitioner's initial state, rebuilt from outside.
            const time_windows windows =
                power_windows(d.g, lib_, p.assignment, cap, d.c.latency, so);
            const reachability reach(d.g);
            const std::vector<int> fixed(static_cast<std::size_t>(d.g.node_count()), -1);
            const std::vector<char> committed(fixed.size(), 0);
            const std::vector<fu_instance> instances;
            const power_tracker committed_power(cap);
            compat_inputs in;
            in.g = &d.g;
            in.lib = &lib_;
            in.costs = &o.costs;
            in.reach = &reach;
            in.max_power = cap;
            in.windows = &windows;
            in.fixed = &fixed;
            in.committed = &committed;
            in.instances = &instances;
            in.committed_power = &committed_power;
            in.assignment = &p.assignment;
            for (const merge_candidate& c : enumerate_candidates(in))
                initial_candidates += c.saving >= 0.0 ? 1 : 0;
            {
                synth_arena arena;
                arena.build(d.g, lib_);
                in.arena = &arena;
                arena.sync(in);
                candidate_store store;
                const double rss0 = current_rss_mb();
                {
                    const scope s(&tr, "synth.candidates_rebuild");
                    store.rebuild(in);
                }
                rebuild_rss = std::max(rebuild_rss, current_rss_mb() - rss0);
            }
            {
                // The library's own region timers: candidate maintenance
                // (enumeration, store upkeep and picks) and rollback.
                kernel_timers& timers = kernel_timing();
                timers.reset();
                timers.collect = true;
                {
                    const scope s(&tr, "synth.partition");
                    run_clique_partitioning(d.g, lib_, d.c, o);
                }
                timers.collect = false;
                candidates_ns += timers.candidates_ns;
                rollback_ns += timers.rollback_ns;
            }
            if (i >= last_.size() || !last_[i].st.ok()) continue;
            const flow_report& r = last_[i];
            {
                const scope s(&tr, "synth.verify");
                verify_datapath(d.g, lib_, r.dp, d.c, o.costs);
            }
            {
                const scope s(&tr, "rtl.netlist");
                build_netlist(r.dp.name, d.g, lib_, r.dp.sched, r.dp.instance_of,
                              r.dp.instance_modules());
            }
            {
                const scope s(&tr, "battery.lifetime");
                design_lifetime(r.dp, lib_, lifetime_spec{});
            }
        }
        for (const char* span : {"cdfg.parse", "synth.prospect", "sched.pasap", "sched.palap",
                                 "power.next_fit_sweep", "synth.candidates_rebuild",
                                 "synth.partition", "synth.verify", "rtl.netlist",
                                 "battery.lifetime"})
            tr.set(std::string(span) + "_ms", tr.self_ms(span));
        // What the partitioning spends outside both timers is the
        // per-merge window recomputes and the commits.
        const double candidates_ms = static_cast<double>(candidates_ns) / 1e6;
        tr.set("synth.candidate_maintenance_ms", candidates_ms);
        tr.set("synth.partition_rest_ms", tr.self_ms("synth.partition") - candidates_ms -
                                              static_cast<double>(rollback_ns) / 1e6);
        tr.set("synth.candidates_rebuild_rss_mb", rebuild_rss);
        tr.set("synth.initial_candidates", static_cast<double>(initial_candidates));
        double merges = 0.0, rejected = 0.0, recomputes = 0.0;
        for (const flow_report& r : last_) {
            merges += r.stats.merges;
            rejected += r.stats.rejected;
            recomputes += r.stats.window_recomputes;
        }
        tr.set("synth.merges", merges);
        tr.set("synth.rejected", rejected);
        tr.set("synth.window_recomputes", recomputes);
        tr.set("synth.accept_ratio", merges + rejected > 0.0 ? merges / (merges + rejected) : 0.0);
    }

private:
    flow design_flow(const dag_input& d) const
    {
        return flow::on(d.g).with_library(lib_).constraints(d.c).emit_netlist().estimate_lifetime();
    }

    /// One pasap-style placement sweep in topological order through
    /// power_tracker::next_fit (the probe pasap and the compatibility
    /// graph use), with the prospect modules' delays and powers.
    void place_all(const graph& g, const module_assignment& a, double cap) const
    {
        power_tracker t(cap);
        std::vector<int> start(static_cast<std::size_t>(g.node_count()), 0);
        for (node_id v : g.topo_order()) {
            const fu_module& m = lib_.module(a[v.index()]);
            int ready = 0;
            for (node_id p : g.preds(v))
                ready = std::max(ready, start[p.index()] +
                                            lib_.module(a[p.index()]).latency);
            const int s = t.next_fit(ready, m.latency, m.power);
            t.reserve(s, m.latency, m.power);
            start[v.index()] = s;
        }
    }

    int threads_;
    module_library lib_ = table1_library();
    int variant_ = 0;
    std::vector<std::string> texts_;
    std::vector<dag_input> dags_;
    std::vector<flow_report> last_;
};

// ------------------------------------------------------------------ sweeps

/// One point's metric projection: what a sweep table, cache file or wire
/// report carries.
std::string point_line(const flow_report& r)
{
    return strf("%d %.17g %s %d %.17g %.17g %d %d %.17g\n", r.constraints.latency,
                r.constraints.max_power, status_code_name(r.st.code), r.has_design ? 1 : 0,
                r.area, r.peak, r.latency, r.has_lifetime ? 1 : 0, r.lifetime_seconds);
}

/// Per-latency-row digests of the per-point projections (order
/// independent: rows are sorted by cap); a wrong row fails its points.
void row_checks(const std::vector<synthesis_constraints>& points,
                const std::vector<std::string>& lines, pass_outcome& out)
{
    std::map<int, std::vector<std::pair<double, const std::string*>>> rows;
    for (std::size_t i = 0; i < points.size(); ++i)
        rows[points[i].latency].push_back({points[i].max_power, &lines[i]});
    for (auto& [T, row] : rows) {
        std::sort(row.begin(), row.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        std::string bytes;
        for (const auto& [cap, line] : row) bytes += *line;
        out.checks.push_back({strf("T%d", T), digest(bytes), static_cast<long>(row.size())});
    }
}

/// The front's objective projection.  Which of several equal-objective
/// points represents them depends on the visiting order, so the seeded
/// order is projected away.
void front_check(const std::vector<front_point>& front, pass_outcome& out)
{
    std::vector<std::string> lines;
    for (const front_point& p : front)
        lines.push_back(strf("%.17g %.17g %d %.17g\n", p.peak, p.area,
                             p.has_lifetime ? 1 : 0, p.lifetime_seconds));
    std::sort(lines.begin(), lines.end());
    std::string bytes;
    for (const std::string& l : lines) bytes += l;
    out.checks.push_back({"front", digest(bytes), 1});
}

/// Collects every delivered point's projection by space index and, when
/// given the problem, verifies every design as it is delivered (the
/// reports are not kept, so the harness adds no memory to the sweep's).
struct point_sink {
    explicit point_sink(std::size_t n) : lines(n) {}

    dse::sink sink()
    {
        dse::sink sk;
        sk.on_result = [this](std::size_t i, const flow_report& r) {
            lines[i] = point_line(r);
            bad += failed_status(r.st) ? 1 : 0;
            if (g != nullptr && r.st.ok() && r.has_design &&
                !verify_datapath(*g, *lib, r.dp, r.constraints, cost_model{}).empty())
                ++unverified;
            if (keep_reports) reports.push_back(r);
        };
        return sk;
    }

    std::vector<std::string> lines;
    long bad = 0;
    const graph* g = nullptr; ///< verify designs of this problem
    const module_library* lib = nullptr;
    long unverified = 0;
    bool keep_reports = false;
    std::vector<flow_report> reports; ///< delivery order, when kept
};

/// The set-up both sweep workloads share: hal's plane in seeded order
/// under a lifetime-stage prototype, and the session one run consumes
/// (sweep-plane explores on it cold, sweep-sharded loads the merged
/// shard caches into it).
class plane_workload : public workload {
public:
    explicit plane_workload(const workload_config& cfg) : threads_(cfg.threads) {}

    void setup(std::uint64_t seed) override
    {
        in_ = make_plane_input(seed);
        proto_ = std::make_unique<flow>(flow::on(in_.g).estimate_lifetime());
        session_ = std::make_unique<dse::session>(*proto_);
    }

protected:
    int threads_;
    plane_input in_;
    std::unique_ptr<flow> proto_;
    std::unique_ptr<dse::session> session_;
};

class sweep_plane final : public plane_workload {
public:
    using plane_workload::plane_workload;

    pass_outcome run(tracer* tr, bool verify) override
    {
        pass_outcome out;
        const std::unique_ptr<dse::session> session = take(session_);
        point_sink ps(in_.points.size());
        if (verify) {
            ps.g = &in_.g;
            ps.lib = &proto_->library();
        }
        ps.keep_reports = tr != nullptr; // the traced run's Pareto probe
        const stopwatch sw;
        dse::explore_summary sum;
        {
            const scope s(tr, "dse.explore");
            const double cpu0 = cpu_s();
            sum = session->explore(dse::list(in_.points), ps.sink(), threads_);
            explore_cpu_s_ = cpu_s() - cpu0;
        }
        stats_ = session->cache()->stats();
        sw.stop(out);
        explore_wall_s_ = out.wall_s;

        out.attempted = static_cast<long>(in_.points.size());
        out.failed = ps.bad + ps.unverified;
        if (ps.unverified != 0) note(out, strf("%ld designs fail verify_datapath", ps.unverified));
        out.checks.push_back({"graph", digest(in_.text), 1});
        row_checks(in_.points, ps.lines, out);
        front_check(sum.front, out);
        if (tr != nullptr) last_reports_ = std::move(ps.reports);
        return out;
    }

    void probe(tracer& tr, int traced_passes) override
    {
        {
            const scope s(&tr, "flow.cache_build");
            proto_->build_cache();
        }
        // Single-thread per-point latency over a fixed sample of distinct
        // points, on one shared cache.
        const std::shared_ptr<explore_cache> cache = proto_->build_cache();
        flow f = *proto_;
        f.reuse(cache);
        std::vector<double> ms;
        std::vector<flow_report> designs;
        for (std::size_t i = 0; i < in_.points.size(); i += 10) {
            const double t0 = now_s();
            flow_report r = flow(f).constraints(in_.points[i]).run();
            ms.push_back((now_s() - t0) * 1e3);
            if (r.st.ok()) designs.push_back(std::move(r));
        }
        tr.set("flow.point_p50_ms", percentile(ms, 50));
        tr.set("flow.point_p99_ms", percentile(ms, 99));
        {
            const scope s(&tr, "battery.lifetime");
            for (const flow_report& r : designs)
                design_lifetime(r.dp, proto_->library(), proto_->lifetime());
        }
        tr.set("battery.lifetime_us_per_point",
               tr.self_ms("battery.lifetime") * 1e3 / static_cast<double>(designs.size()));
        {
            const scope s(&tr, "dse.pareto_add");
            pareto_stream front;
            for (std::size_t i = 0; i < last_reports_.size(); ++i) front.add(i, last_reports_[i]);
        }
        tr.set("dse.pareto_add_us_per_point",
               tr.self_ms("dse.pareto_add") * 1e3 / static_cast<double>(last_reports_.size()));

        const double rss0 = current_rss_mb();
        dse::session session(*proto_);
        session.explore(dse::list(in_.points), {}, threads_);
        tr.set("flow.cache_growth_mb", current_rss_mb() - rss0);

        tr.set("flow.cache_build_ms", tr.self_ms("flow.cache_build"));
        tr.set("dse.explore_ms", tr.self_ms("dse.explore") / traced_passes);
        tr.set("dse.worker_utilisation",
               explore_cpu_s_ / (explore_wall_s_ * static_cast<double>(threads_)));
        const auto ratio = [](long hits, long misses) {
            return hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                                     : 0.0;
        };
        tr.set("flow.invariant_hit_ratio", ratio(stats_.hits, stats_.misses));
        tr.set("flow.committed_hit_ratio", ratio(stats_.committed_hits, stats_.committed_misses));
        tr.set("flow.committed_entries", static_cast<double>(stats_.committed_misses));
        tr.set("flow.report_hit_ratio", ratio(stats_.report_hits, stats_.report_misses));
    }

private:
    explore_cache::counters stats_;
    double explore_wall_s_ = 0.0;
    double explore_cpu_s_ = 0.0;
    std::vector<flow_report> last_reports_;
};

class sweep_sharded final : public plane_workload {
public:
    explicit sweep_sharded(const workload_config& cfg)
        : plane_workload(cfg), dir_(cfg.work_dir + "/shards")
    {
    }

    /// Designs that crossed the wire carry metrics only, so `verify`
    /// has nothing to check here: the digests cover every point.
    pass_outcome run(tracer* tr, bool) override
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        const std::string merged = dir_ + "/merged.phlscache";
        pass_outcome out;
        const std::unique_ptr<dse::session> warm = take(session_);
        point_sink sharded(in_.points.size());
        point_sink replay(in_.points.size());
        serve::shard_options o;
        o.shards = threads_;
        o.processes = true;
        o.threads_per_shard = 1;
        o.cache_dir = dir_;

        const stopwatch sw;
        {
            const scope s(tr, "serve.shard_explore");
            shards_ = serve::explore_sharded(*proto_, dse::list(in_.points), o, sharded.sink());
        }
        {
            const scope s(tr, "flow.cache_merge");
            explore_cache::merge_files(merged, shards_.cache_files);
        }
        {
            const scope s(tr, "flow.cache_load");
            warm->load(merged);
        }
        dse::explore_summary sum;
        {
            const scope s(tr, "dse.warm_replay");
            sum = warm->explore(dse::list(in_.points), replay.sink(), threads_);
        }
        sw.stop(out);

        metric_served_ = sum.metric_served;
        cache_file_mb_ = file_bytes(merged) / (1024.0 * 1024.0);
        out.attempted = 2 * static_cast<long>(in_.points.size());
        out.failed = sharded.bad + replay.bad;
        if (shards_.worker_retries != 0) {
            out.failed += static_cast<long>(in_.points.size());
            note(out, strf("%zu shard worker retries", shards_.worker_retries));
        }
        if (sum.metric_served != in_.points.size()) {
            out.failed += static_cast<long>(in_.points.size() - std::min(in_.points.size(),
                                                                         sum.metric_served));
            note(out, strf("warm replay served %zu of %zu points from metrics",
                           sum.metric_served, in_.points.size()));
        }
        out.checks.push_back({"graph", digest(in_.text), 1});
        row_checks(in_.points, sharded.lines, out);
        front_check(shards_.front, out);
        row_checks(in_.points, replay.lines, out);
        front_check(sum.front, out);
        if (sum.front != shards_.front) {
            ++out.failed;
            note(out, "warm replay front differs from the sharded front");
        }
        std::filesystem::remove_all(dir_);
        return out;
    }

    void probe(tracer& tr, int traced_passes) override
    {
        const serve::job_request job = serve::make_job(*proto_, dse::list(in_.points));
        std::string payload;
        {
            const scope s(&tr, "serve.encode_job");
            payload = serve::encode_job(job);
        }
        {
            const scope s(&tr, "serve.decode_job");
            serve::decode_job(payload);
        }
        // Re-encode the last sweep's reports as the workers sent them.
        dse::session session(*proto_);
        std::vector<metric_record> records;
        dse::sink sk;
        sk.on_result = [&](std::size_t, const flow_report& r) { records.push_back(metric_of(r)); };
        session.explore(dse::list(in_.points), sk, threads_);
        std::vector<std::string> frames;
        {
            const scope s(&tr, "serve.encode_report");
            for (std::size_t i = 0; i < records.size(); ++i)
                frames.push_back(serve::encode_report(i, records[i]));
        }
        {
            const scope s(&tr, "serve.decode_report");
            for (const std::string& f : frames) serve::decode_report(f);
        }
        double bytes = 0.0;
        for (const std::string& f : frames)
            bytes += static_cast<double>(serve::encode_frame(serve::frame_type::report, f).size());
        const double n = static_cast<double>(frames.size());

        tr.set("serve.shard_explore_ms", tr.self_ms("serve.shard_explore") / traced_passes);
        tr.set("serve.encode_job_ms", tr.self_ms("serve.encode_job"));
        tr.set("serve.decode_job_ms", tr.self_ms("serve.decode_job"));
        tr.set("serve.encode_report_us", tr.self_ms("serve.encode_report") * 1e3 / n);
        tr.set("serve.decode_report_us", tr.self_ms("serve.decode_report") * 1e3 / n);
        tr.set("serve.report_frame_bytes", bytes / n);
        tr.set("serve.worker_retries", static_cast<double>(shards_.worker_retries));
        tr.set("flow.cache_file_mb", cache_file_mb_);
        tr.set("flow.cache_merge_ms", tr.self_ms("flow.cache_merge") / traced_passes);
        tr.set("flow.cache_load_ms", tr.self_ms("flow.cache_load") / traced_passes);
        tr.set("dse.warm_replay_ms", tr.self_ms("dse.warm_replay") / traced_passes);
        tr.set("dse.metric_served", static_cast<double>(metric_served_));
    }

private:
    std::string dir_;
    serve::shard_summary shards_;
    std::size_t metric_served_ = 0;
    double cache_file_mb_ = 0.0;
};

// ---------------------------------------------------------------- tasks-mix

class tasks_mix final : public workload {
public:
    explicit tasks_mix(const workload_config& cfg)
        : threads_(cfg.threads), dir_(cfg.work_dir + "/tasks")
    {
    }

    /// The pool starts empty: schedule() creates its sessions, so their
    /// construction is part of the run.
    void setup(std::uint64_t seed) override
    {
        variant_ = variant_of(seed);
        std::filesystem::create_directories(dir_);
        in_ = write_tasks_input(variant_, dir_);
        set_ = task::parse_task_set_string(in_.set_text);
        pool_ = std::make_unique<serve::session_pool>();
    }

    pass_outcome run(tracer* tr, bool verify) override
    {
        pass_outcome out;
        const std::unique_ptr<serve::session_pool> pool = take(pool_);
        task::schedule_options opts;
        opts.threads = threads_;
        const stopwatch sw;
        task::task_schedule sched;
        {
            const scope s(tr, "task.schedule");
            sched = task::schedule(set_, task::policy::battery, *pool, opts);
        }
        sw.stop(out);

        out.attempted = static_cast<long>(set_.tasks.size());
        // The input digest covers the graph texts and the set text with
        // the scratch directory projected away.
        std::string inputs;
        for (const std::string& path : in_.graph_files) inputs += read_file(path);
        std::string set_text = in_.set_text;
        for (std::size_t at; (at = set_text.find(dir_ + "/")) != std::string::npos;)
            set_text.erase(at, dir_.size() + 1);
        out.checks.push_back(
            {strf("v%d.input", variant_), digest(inputs + set_text), out.attempted});
        out.checks.push_back(
            {strf("v%d.schedule", variant_), digest(sched.to_string()), out.attempted});
        if (!verify) return out;
        for (const task::task_result& r : sched.tasks) {
            const task::task_spec& t = set_.tasks[static_cast<std::size_t>(r.index)];
            const flow_report d = flow::on(t.g)
                                      .with_library(t.lib)
                                      .synthesizer(t.synthesizer)
                                      .scheduler(t.scheduler)
                                      .options(t.options)
                                      .constraints(r.impl.point)
                                      .run();
            std::vector<std::string> v;
            if (d.st.ok()) v = verify_datapath(t.g, t.lib, d.dp, r.impl.point, t.options.costs);
            if (!d.st.ok() || !v.empty() || d.area != r.impl.area || d.peak != r.impl.peak ||
                d.latency != r.impl.latency) {
                ++out.failed;
                note(out, "task " + r.name + ": chosen design does not verify");
            }
        }
        return out;
    }

    void probe(tracer& tr, int) override
    {
        serve::session_pool pool;
        {
            const scope s(&tr, "task.candidates");
            task::explore_candidates(set_, pool, 0, threads_);
        }
        task::schedule_options opts;
        opts.threads = threads_;
        task::task_schedule sched;
        {
            const scope s(&tr, "task.pack");
            sched = task::schedule(set_, task::policy::battery, pool, opts);
        }
        {
            const scope s(&tr, "battery.composed_lifetime");
            const load_profile load = to_load(sched.profile, set_.battery.voltage,
                                              set_.battery.cycle_seconds,
                                              set_.battery.idle_cycles);
            make_rakhmatov_battery(sched.battery_alpha, set_.battery.beta)
                ->lifetime(load, set_.battery.max_seconds);
        }
        for (const char* span : {"task.candidates", "task.pack", "battery.composed_lifetime"})
            tr.set(std::string(span) + "_ms", tr.self_ms(span));
        tr.set("task.sessions_created", static_cast<double>(pool.sessions_created()));
    }

private:
    int threads_;
    std::string dir_;
    int variant_ = 0;
    tasks_input in_;
    task::task_set set_;
    std::unique_ptr<serve::session_pool> pool_;
};

} // namespace

std::vector<std::string> workload_names()
{
    return {"synth-dag", "sweep-plane", "sweep-sharded", "tasks-mix"};
}

int workload_threads(const std::string& name, int cap)
{
    // explore_candidates gives each thread a block of 7 consecutive tasks,
    // every block holds the 7 kernels in the same order, and the tasks of
    // one kernel share a pooled session whose explores take turns under a
    // mutex.  Parallel tasks-mix threads therefore all queue on the same
    // session at once and a pass waits for the slowest CPU's thread; its
    // wall time spread by up to 34 % over ten seeds.  One thread runs the
    // explores as one ordered sequence.
    return name == "tasks-mix" ? 1 : cap;
}

std::unique_ptr<workload> make_workload(const std::string& name, const workload_config& cfg)
{
    if (name == "synth-dag") return std::make_unique<synth_dag>(cfg);
    if (name == "sweep-plane") return std::make_unique<sweep_plane>(cfg);
    if (name == "sweep-sharded") return std::make_unique<sweep_sharded>(cfg);
    if (name == "tasks-mix") return std::make_unique<tasks_mix>(cfg);
    throw error("unknown workload '" + name + "'");
}

} // namespace perfbench
