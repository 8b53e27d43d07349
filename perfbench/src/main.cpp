// phls_bench: runs one benchmark workload in this process and prints
// one JSON line of results.  perfbench/run.py builds it, runs it in a
// child process per workload run and turns that line into the
// benchmark's result.
//
//   phls_bench --workload sweep-plane --seed 3 --seconds 10 --trace 0
//              --expected perfbench/expected/sweep-plane.txt --work-dir DIR
//
// --trace 0 reports the end-to-end metrics: the median wall and CPU
// time of one pass, peak RSS, and the median set-up time.  --trace 1
// alternates untraced and traced passes (their wall-time ratio is the
// tracing overhead), runs the workload's layer probes, writes a Chrome
// trace to the work directory and reports the per-layer metrics.
//
//   phls_bench --regen synth-dag --out perfbench/expected/synth-dag.txt
//
// regenerates a workload's expected digests on the seed-era reference
// kernels (every kernel_tuning knob off), the differential oracle of
// the optimised paths the timed runs use.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "inputs.h"
#include "measure.h"
#include "support/kernels.h"
#include "support/strings.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using phls::strf;

struct metric {
    const char* name;
    const char* unit;
};

const metric end_to_end[] = {
    {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"}};

const metric per_layer[] = {
    // synth-dag
    {"cdfg.parse_ms", "ms"},
    {"synth.prospect_ms", "ms"},
    {"sched.pasap_ms", "ms"},
    {"sched.palap_ms", "ms"},
    {"power.next_fit_sweep_ms", "ms"},
    {"synth.partition_ms", "ms"},
    {"synth.candidates_rebuild_ms", "ms"},
    {"synth.candidate_maintenance_ms", "ms"},
    {"synth.partition_rest_ms", "ms"},
    {"synth.verify_ms", "ms"},
    {"rtl.netlist_ms", "ms"},
    {"battery.lifetime_ms", "ms"},
    {"synth.candidates_rebuild_rss_mb", "MB"},
    {"synth.initial_candidates", "count"},
    {"synth.merges", "count"},
    {"synth.rejected", "count"},
    {"synth.window_recomputes", "count"},
    {"synth.accept_ratio", "ratio"},
    // sweep-plane
    {"flow.cache_build_ms", "ms"},
    {"dse.explore_ms", "ms"},
    {"dse.worker_utilisation", "ratio"},
    {"flow.point_p50_ms", "ms"},
    {"flow.point_p99_ms", "ms"},
    {"battery.lifetime_us_per_point", "us"},
    {"dse.pareto_add_us_per_point", "us"},
    {"flow.invariant_hit_ratio", "ratio"},
    {"flow.committed_hit_ratio", "ratio"},
    {"flow.committed_entries", "count"},
    {"flow.report_hit_ratio", "ratio"},
    {"flow.cache_growth_mb", "MB"},
    // sweep-sharded
    {"serve.shard_explore_ms", "ms"},
    {"serve.encode_job_ms", "ms"},
    {"serve.decode_job_ms", "ms"},
    {"serve.encode_report_us", "us"},
    {"serve.decode_report_us", "us"},
    {"serve.report_frame_bytes", "bytes"},
    {"serve.worker_retries", "count"},
    {"flow.cache_file_mb", "MB"},
    {"flow.cache_merge_ms", "ms"},
    {"flow.cache_load_ms", "ms"},
    {"dse.warm_replay_ms", "ms"},
    {"dse.metric_served", "count"},
    // tasks-mix
    {"task.candidates_ms", "ms"},
    {"task.pack_ms", "ms"},
    {"battery.composed_lifetime_ms", "ms"},
    {"task.sessions_created", "count"},
    // every workload
    {"trace.overhead_ratio", "ratio"},
};

struct options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string expected;
    std::string work_dir = ".bench_out/work";
    std::string regen;
    std::string out;
};

[[noreturn]] void usage(const std::string& why)
{
    std::cerr << "phls_bench: " << why << "\n"
              << "usage: phls_bench --workload W --seed N --seconds S --trace 0|1 "
                 "--expected FILE [--work-dir DIR]\n"
                 "       phls_bench --regen W --out FILE [--work-dir DIR]\n";
    std::exit(2);
}

options parse(int argc, char** argv)
{
    options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") o.workload = v;
        else if (a == "--seed") o.seed = std::stoull(v);
        else if (a == "--seconds") o.seconds = std::stod(v);
        else if (a == "--trace") o.trace = v == "1";
        else if (a == "--expected") o.expected = v;
        else if (a == "--work-dir") o.work_dir = v;
        else if (a == "--regen") o.regen = v;
        else if (a == "--out") o.out = v;
        else usage("unknown option " + a);
    }
    return o;
}

int worker_count()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

/// `key digest` lines of a committed expected-output file.
std::map<std::string, std::string> read_expected(const std::string& path)
{
    std::map<std::string, std::string> m;
    std::istringstream is(read_file(path));
    std::string key, value;
    while (is >> key >> value) m[key] = value;
    return m;
}

std::string json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

int regenerate(const options& o)
{
    phls::kernel_tuning& k = phls::kernel_knobs();
    k.skip_probe = false;
    k.incremental_candidates = false;
    k.undo_log = false;
    k.soa_arena = false;
    k.dense_power = false;
    k.intra_threads = 1;
    const bool varied = o.regen == "synth-dag" || o.regen == "tasks-mix";
    const auto w = make_workload(o.regen, {workload_threads(o.regen, worker_count()), o.work_dir});
    std::map<std::string, std::string> digests;
    for (int v = 0; v < (varied ? input_variants : 1); ++v) {
        w->setup(static_cast<std::uint64_t>(v));
        const pass_outcome p = w->run(nullptr, true);
        if (p.failed != 0) {
            std::cerr << "regen: variant " << v << " failed";
            for (const std::string& why : p.problems) std::cerr << "; " << why;
            std::cerr << "\n";
            return 1;
        }
        for (const check& c : p.checks) {
            const auto [it, fresh] = digests.emplace(c.key, c.digest);
            if (!fresh && it->second != c.digest) {
                std::cerr << "regen: two digests for " << c.key << "\n";
                return 1;
            }
        }
        std::cerr << "regen: " << o.regen << " variant " << v << " done\n";
    }
    std::ofstream os(o.out);
    for (const auto& [key, value] : digests) os << key << ' ' << value << '\n';
    return os ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    const options o = parse(argc, argv);
    try {
        if (!o.regen.empty()) return regenerate(o);
        if (o.workload.empty() || o.expected.empty()) usage("--workload and --expected are required");
#ifndef NDEBUG
        const bool optimised = false;
#else
        const bool optimised = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
        if (!optimised) {
            std::cerr << "phls_bench: refusing to report timings from a non-Release build ("
                      << PERFBENCH_BUILD_TYPE << ")\n";
            return 3;
        }

        const int workers = workload_threads(o.workload, worker_count());
        const auto expected = read_expected(o.expected);
        const auto w = make_workload(o.workload, {workers, o.work_dir});
        tracer tr;
        tracer* const traced = o.trace ? &tr : nullptr;
        std::map<std::string, std::vector<double>> samples;

        // Every run() consumes the state of a set-up of its own, the last
        // of a burst of set-ups made back to back (at least 3, and until
        // 20 ms have passed, at most 50).  Eight bursts up front and one
        // before every pass each run on a thread bound to the next CPU in
        // turn, and the metric is the fastest set-up of them all.  The
        // set-up is single-threaded and short, and on a shared host one
        // CPU runs it up to 1.5x slower than another for seconds at a
        // time, so a median over the set-ups of one run took whichever
        // speed most CPUs had during that run (0.20 or 0.30 ms for the
        // sweeps); the fastest set-up over every CPU and the whole run
        // varied by about 10 % from run to run.
        const std::vector<int> cpus = allowed_cpus();
        std::size_t bursts = 0;
        const auto set_up = [&](tracer* t) {
            const scope s(t, "setup");
            const int cpu = cpus.empty() ? -1 : cpus[bursts++ % cpus.size()];
            double best = 0.0;
            std::exception_ptr failure;
            std::thread([&] {
                try {
                    if (cpu >= 0) bind_to_cpu(cpu);
                    const double start = now_s();
                    for (int i = 0; i < 50; ++i) {
                        const double t0 = now_s();
                        w->setup(o.seed);
                        const double took = now_s() - t0;
                        best = i == 0 ? took : std::min(best, took);
                        if (i >= 2 && now_s() - start >= 0.02) break;
                    }
                } catch (...) {
                    failure = std::current_exception();
                }
            }).join();
            if (failure) std::rethrow_exception(failure);
            samples["setup_s"].push_back(best);
        };
        for (int i = 0; i < (o.trace ? 1 : 8); ++i) set_up(traced);

        long attempted = 0, failed = 0;
        std::vector<std::string> problems;
        const auto account = [&](pass_outcome& p) {
            for (const check& c : p.checks) {
                const auto it = expected.find(c.key);
                if (it == expected.end() || it->second != c.digest) {
                    p.failed += c.weight;
                    if (p.problems.size() < 8)
                        p.problems.push_back("digest mismatch: " + c.key);
                }
            }
            attempted += p.attempted;
            failed += std::min(p.failed, p.attempted);
            for (const std::string& why : p.problems)
                if (problems.size() < 8) problems.push_back(why);
        };
        // The verifying pass: every design is checked with
        // verify_datapath, which a sweep can only do inside its clock, so
        // its times are not samples.
        {
            pass_outcome p = w->run(nullptr, true);
            account(p);
        }
        const auto one_pass = [&](tracer* t) {
            set_up(t);
            pass_outcome p = w->run(t, false);
            account(p);
            const std::string kind = t ? "traced_" : "";
            samples[kind + "wall_s"].push_back(p.wall_s);
            samples[kind + "cpu_s"].push_back(p.cpu_s);
        };
        const double start = now_s();
        do {
            one_pass(nullptr);
            if (o.trace) {
                const scope s(traced, "pass");
                one_pass(traced);
            }
        } while (now_s() - start < o.seconds);

        std::map<std::string, double> values;
        if (o.trace) {
            w->probe(tr, static_cast<int>(samples["traced_wall_s"].size()));
            tr.set("trace.overhead_ratio",
                   median(samples["traced_wall_s"]) / median(samples["wall_s"]));
            const std::string path = o.work_dir + "/trace-" + o.workload + ".json";
            tr.write_chrome(path);
            std::cerr << "phls_bench: wrote Chrome trace " << path << "\n";
            for (const metric& m : per_layer) values[m.name] = tr.counter(m.name);
        } else {
            values["wall_s"] = median(samples["wall_s"]);
            values["cpu_s"] = median(samples["cpu_s"]);
            values["peak_rss_mb"] = peak_rss_mb();
            const std::vector<double>& setups = samples["setup_s"];
            values["setup_s"] = *std::min_element(setups.begin(), setups.end());
        }

        std::ostringstream js;
        js << "{\"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
           << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"passes\": " << samples["wall_s"].size()
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": {";
        bool first = true;
        for (const auto& table : {std::vector<metric>(std::begin(end_to_end), std::end(end_to_end)),
                                  std::vector<metric>(std::begin(per_layer), std::end(per_layer))})
            for (const metric& m : table) {
                const auto it = values.find(m.name);
                if (it == values.end()) continue;
                js << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": "
                   << strf("%.17g", it->second) << ", \"unit\": " << json_string(m.unit) << "}";
                first = false;
            }
        js << "}, \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
           << ", \"ram_mb\": "
           << strf("%.0f", static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
                               static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0))
           << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
           << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
           << ", \"threads\": " << workers << ", \"workers\": " << workers
           << "}, \"samples\": {";
        first = true;
        for (const auto& [name, v] : samples) {
            js << (first ? "" : ", ") << json_string(name) << ": [";
            for (std::size_t i = 0; i < v.size(); ++i) js << (i ? ", " : "") << strf("%.6f", v[i]);
            js << "]";
            first = false;
        }
        js << "}, \"problems\": [";
        for (std::size_t i = 0; i < problems.size(); ++i)
            js << (i ? ", " : "") << json_string(problems[i]);
        js << "]}";
        std::cout << js.str() << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "phls_bench: " << e.what() << "\n";
        return 1;
    }
}
