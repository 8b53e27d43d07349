// phls — command-line front-end to the library, built on the flow engine.
//
//   phls list                                    built-in benchmarks
//   phls strategies                              registered flow backends
//   phls show <bench|file.cdfg> [--dot out.dot]  graph structure
//   phls synth <bench|file.cdfg> -T 17 [-P 7] [--library lib.txt]
//         [--netlist] [--verilog out.v] [--dot out.dot] [--synth greedy|exact|...]
//   phls sweep <bench|file.cdfg> -T 17 [--points 20] [--threads N] [--csv out.csv]
//         [--intra-threads N]
//         [--cache-file sweep.phlscache] [--memo-limit N] [--refine]
//         [--guided [--prune-margin M] [--eval-budget N]]
//         [--out front.csv|front.json]
//         [--server unix:PATH|HOST:PORT [--server-retries N]]
//         [--shards N [--shard-procs [--shard-retries N]]
//          [--shard-cache-dir DIR [--checkpoint manifest]]]
//         [--resume manifest]
//   phls schedule <bench|file.cdfg> -T 17 -P 7 [--alg asap|alap|pasap|palap|fds]
//   phls lifetime <bench|file.cdfg> -T 17 [--beta 0.1]
//   phls serve --socket PATH | --port N | --stdio
//         [--threads N] [--memo-limit N] [--timeout-ms N] [--max-clients N]
//         [--allow-cache-save]
//   phls cache merge <out.phlscache> <in.phlscache...> [--skip-bad]
//   phls tasks <taskset-file> [--policy edf|battery] [--threads N]
//         [--memo-limit N] [--out tasks.json|tasks.csv] [--progress]
//   phls tasks --list-policies
//
// The distributed modes produce byte-identical sweep output: a --server
// or --shards sweep prints the same table, front and exports as the
// local session (see docs/SERVE.md).
//
// A positional that names a file ending in .cdfg is parsed from disk;
// anything else must be a built-in benchmark name.  Output options
// dispatch on extension: --csv wants .csv, --dot wants .dot, --verilog
// wants .v, --out wants .csv or .json.
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <system_error>

#include "cdfg/analysis.h"
#include "cdfg/benchmarks.h"
#include "cdfg/dot.h"
#include "cdfg/textio.h"
#include "dse/session.h"
#include "flow/flow.h"
#include "flow/pareto_stream.h"
#include "serve/client.h"
#include "serve/manifest.h"
#include "serve/server.h"
#include "serve/shard.h"
#include "support/argparse.h"
#include "support/errors.h"
#include "support/csv.h"
#include "support/kernels.h"
#include "support/strings.h"
#include "support/table.h"
#include "task/engine.h"

namespace phls {
namespace {

graph load_graph(const std::string& spec)
{
    if (ends_with(spec, ".cdfg")) {
        std::ifstream is(spec);
        check(static_cast<bool>(is), "cannot open '" + spec + "'");
        return parse_cdfg(is);
    }
    return benchmark_by_name(spec);
}

module_library load_library(const arg_parser& args)
{
    if (args.has("--library")) {
        std::ifstream is(args.get("--library"));
        check(static_cast<bool>(is), "cannot open '" + args.get("--library") + "'");
        return parse_library(is);
    }
    return table1_library();
}

/// Checks an output path carries the extension its writer expects.
std::string output_path(const arg_parser& args, const std::string& option,
                        std::string_view extension)
{
    const std::string path = args.get(option);
    check(ends_with(path, extension),
          option + " expects a file ending in '" + std::string(extension) + "', got '" +
              path + "'");
    return path;
}

/// --out: an export path ending in .csv or .json, or "" when absent.
std::string export_path(const arg_parser& args)
{
    if (!args.has("--out")) return "";
    const std::string path = args.get("--out");
    check(ends_with(path, ".csv") || ends_with(path, ".json"),
          "--out expects a file ending in '.csv' or '.json', got '" + path + "'");
    return path;
}

/// --threads: a worker count, 0 meaning every core.
int thread_count(const arg_parser& args)
{
    const int threads = args.get_int("--threads");
    check(threads >= 0, "--threads must be >= 0 (0 = all cores)");
    return threads;
}

/// --memo-limit when given, else `fallback`.
std::size_t memo_limit(const arg_parser& args, std::size_t fallback)
{
    if (!args.has("--memo-limit")) return fallback;
    const int limit = args.get_int("--memo-limit");
    check(limit >= 0, "--memo-limit must be >= 0 (0 = unbounded)");
    return static_cast<std::size_t>(limit);
}

int cmd_list()
{
    ascii_table t({"benchmark", "nodes", "ops", "inputs", "outputs", "mults",
                   "CP (par mult)", "CP (ser mult)"});
    t.set_align(0, align::left);
    for (const std::string& name : benchmark_names()) {
        const graph g = benchmark_by_name(name);
        const auto cp = [&](int mult_delay) {
            return critical_path_length(g, [&](node_id v) {
                return g.kind(v) == op_kind::mult ? mult_delay : 1;
            });
        };
        t.add_row({name, std::to_string(g.node_count()),
                   std::to_string(g.node_count() - g.count_of_kind(op_kind::input) -
                                  g.count_of_kind(op_kind::output)),
                   std::to_string(g.count_of_kind(op_kind::input)),
                   std::to_string(g.count_of_kind(op_kind::output)),
                   std::to_string(g.count_of_kind(op_kind::mult)),
                   std::to_string(cp(2)), std::to_string(cp(4))});
    }
    t.print(std::cout);
    return 0;
}

int cmd_strategies()
{
    const strategy_registry& registry = strategy_registry::instance();
    ascii_table t({"kind", "name", "description"});
    t.set_align(0, align::left);
    t.set_align(1, align::left);
    t.set_align(2, align::left);
    for (const std::string& name : registry.scheduler_names())
        t.add_row({"scheduler", name, registry.scheduler(name)->description()});
    for (const std::string& name : registry.synthesizer_names())
        t.add_row({"synthesizer", name, registry.synthesizer(name)->description()});
    t.print(std::cout);
    return 0;
}

int cmd_show(const arg_parser& args)
{
    const graph g = load_graph(args.positionals().at(1));
    std::cout << "cdfg " << g.name() << ": " << g.node_count() << " nodes, "
              << g.edge_count() << " edges\n";
    for (const auto& [kind, count] : op_histogram(g))
        std::cout << "  " << op_kind_name(kind) << ": " << count << '\n';
    if (args.has("--dot")) {
        const std::string path = output_path(args, "--dot", ".dot");
        std::ofstream os(path);
        os << to_dot(g);
        std::cout << "wrote " << path << '\n';
    } else {
        write_cdfg(g, std::cout);
    }
    return 0;
}

int cmd_synth(const arg_parser& args)
{
    const graph g = load_graph(args.positionals().at(1));
    const module_library lib = load_library(args);

    const std::string synth_name = args.has("--exact") ? "exact" : args.get("--synth");
    flow f = flow::on(g)
                 .with_library(lib)
                 .latency(args.get_int("--latency"))
                 .synthesizer(synth_name)
                 .emit_netlist(args.has("--netlist") || args.has("--verilog"));
    if (args.has("--power")) f.power_cap(args.get_double("--power"));

    const flow_report r = f.run();
    if (!r.st.ok()) {
        std::cerr << r.st.to_string() << '\n';
        return 1;
    }
    // Only an unproven exact search warrants a warning; other strategies
    // use the note for routine information.
    if (synth_name == "exact" && !r.optimal) std::cerr << "warning: " << r.note << '\n';
    std::cout << r.dp.report(g, lib);
    std::cout << "\nper-cycle power:\n"
              << r.dp.sched.profile(lib).ascii_chart(f.point().max_power);

    if (args.has("--netlist")) std::cout << '\n' << netlist_to_text(r.nl, g, lib);
    if (args.has("--verilog")) {
        const std::string path = output_path(args, "--verilog", ".v");
        std::ofstream os(path);
        os << netlist_to_verilog(r.nl, g, lib);
        std::cout << "wrote " << path << '\n';
    }
    if (args.has("--dot")) {
        dot_options opts;
        opts.start_times = r.dp.sched.starts();
        for (node_id v : g.nodes())
            opts.clusters.push_back(strf("u%d", r.dp.instance_of[v.index()]));
        const std::string path = output_path(args, "--dot", ".dot");
        std::ofstream os(path);
        os << to_dot(g, opts);
        std::cout << "wrote " << path << '\n';
    }
    return 0;
}

/// Minimal JSON string escaping for the --out export.
std::string json_escape(const std::string& s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') (out += '\\') += c;
        else if (c == '\n') out += "\\n";
        else if (static_cast<unsigned char>(c) < 0x20)
            out += strf("\\u%04x", static_cast<unsigned>(c));
        else out += c;
    }
    return out;
}

/// One evaluated sweep point: the metric projection the table and the
/// --out export read, the one cache files and wire frames carry.
/// Deliberately NOT the full flow_report — a sweep accumulates one of
/// these per point, and keeping datapaths/netlists alive would grow
/// O(points x design) however tight --memo-limit is.
struct export_row {
    std::size_t index = 0;
    metric_record m;
};

/// Counters of a --guided sweep, exported so downstream tooling can
/// audit what fraction of the space was evaluated exactly.
struct guided_export {
    std::size_t space = 0;       ///< points the space describes
    std::size_t computed = 0;    ///< exact evaluations
    std::size_t memo_served = 0; ///< memo answers during the scan
    std::size_t skipped = 0;     ///< surrogate-pruned, never delivered
    std::size_t verified = 0;    ///< exact evaluations ordered by a ready model
};

/// Writes the final front + every evaluated per-point report to `path`,
/// dispatching on the extension (.csv or .json) like every other output
/// option.  A --guided sweep additionally exports its counters in the
/// JSON form (the CSV form is rows-only by design).
void write_front_export(const std::string& path, const std::vector<export_row>& rows,
                        const std::vector<front_point>& front,
                        const guided_export* guided = nullptr)
{
    std::set<std::size_t> on_front;
    for (const front_point& p : front) on_front.insert(p.index);

    if (ends_with(path, ".csv")) {
        csv_writer csv({"index", "latency_bound", "cap", "status", "peak", "area",
                        "latency", "lifetime_s", "on_front"});
        for (const export_row& e : rows) {
            const metric_record& m = e.m;
            const bool ok = m.st.ok();
            csv.add_row({std::to_string(e.index),
                         std::to_string(m.constraints.latency),
                         strf("%.6f", m.constraints.max_power),
                         std::string(status_code_name(m.st.code)),
                         ok ? strf("%.6f", m.peak) : "",
                         ok ? strf("%.6f", m.area) : "",
                         ok ? std::to_string(m.latency) : "",
                         m.has_lifetime ? strf("%.6f", m.lifetime_seconds) : "",
                         on_front.count(e.index) ? "1" : "0"});
        }
        csv.save(path);
        return;
    }

    std::ofstream os(path);
    check(static_cast<bool>(os), "cannot write '" + path + "'");
    os << "{\n  \"points\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const metric_record& m = rows[i].m;
        os << strf("    {\"index\": %zu, \"latency_bound\": %d, \"cap\": %.17g, "
                   "\"status\": \"%s\"",
                   rows[i].index, m.constraints.latency, m.constraints.max_power,
                   json_escape(status_code_name(m.st.code)).c_str());
        if (m.st.ok())
            os << strf(", \"peak\": %.17g, \"area\": %.17g, \"latency\": %d", m.peak,
                       m.area, m.latency);
        if (m.has_lifetime) os << strf(", \"lifetime_s\": %.17g", m.lifetime_seconds);
        os << (i + 1 < rows.size() ? "},\n" : "}\n");
    }
    os << "  ],\n";
    if (guided) {
        const double fraction =
            guided->space > 0
                ? static_cast<double>(guided->computed + guided->memo_served) /
                      static_cast<double>(guided->space)
                : 0.0;
        os << strf("  \"guided\": {\"space\": %zu, \"computed\": %zu, "
                   "\"memo_served\": %zu, \"skipped\": %zu, \"verified\": %zu, "
                   "\"evaluated_fraction\": %.17g},\n",
                   guided->space, guided->computed, guided->memo_served,
                   guided->skipped, guided->verified, fraction);
    }
    os << "  \"front\": [\n";
    for (std::size_t i = 0; i < front.size(); ++i) {
        const front_point& p = front[i];
        os << strf("    {\"index\": %zu, \"latency_bound\": %d, \"cap\": %.17g, "
                   "\"peak\": %.17g, \"area\": %.17g, \"latency\": %d",
                   p.index, p.latency_bound, p.cap, p.peak, p.area, p.latency);
        if (p.has_lifetime) os << strf(", \"lifetime_s\": %.17g", p.lifetime_seconds);
        os << (i + 1 < front.size() ? "},\n" : "}\n");
    }
    os << "  ]\n}\n";
    check(static_cast<bool>(os), "failed writing '" + path + "'");
}

/// Opens a client channel from a --server spec: "unix:PATH" or
/// "HOST:PORT".
serve::channel connect_server(const std::string& spec)
{
    if (spec.rfind("unix:", 0) == 0) return serve::connect_unix(spec.substr(5));
    const std::size_t colon = spec.rfind(':');
    check(colon != std::string::npos && colon + 1 < spec.size(),
          "--server expects unix:PATH or HOST:PORT, got '" + spec + "'");
    char* end = nullptr;
    const long port = std::strtol(spec.c_str() + colon + 1, &end, 10);
    check(end && *end == '\0' && port > 0 && port < 65536,
          "--server has a malformed port in '" + spec + "'");
    return serve::connect_tcp(spec.substr(0, colon), static_cast<int>(port));
}

int cmd_sweep(const arg_parser& args)
{
    const graph g = load_graph(args.positionals().at(1));
    const module_library lib = load_library(args);
    const int T = args.get_int("--latency");
    const int points = args.get_int("--points");
    const int threads = thread_count(args);
    // Validate every output path before spending minutes on the sweep.
    const std::string csv_path =
        args.has("--csv") ? output_path(args, "--csv", ".csv") : "";
    const std::string out_path = export_path(args);

    // Distribution modes.  All of them produce byte-identical stdout to
    // the local session sweep: the table, envelope, front and exports
    // only read metric projections, which survive the wire exactly.
    const std::string server_spec = args.has("--server") ? args.get("--server") : "";
    const int shards = args.get_int("--shards");
    check(shards >= 1, "--shards must be >= 1");
    const bool shard_procs = args.has("--shard-procs");
    const std::string shard_dir =
        args.has("--shard-cache-dir") ? args.get("--shard-cache-dir") : "";
    const bool sharded = shards != 1 || shard_procs || !shard_dir.empty();
    check(server_spec.empty() || !sharded,
          "--server and --shards are different distribution modes; pick one");

    // Fault-tolerance knobs.  Each one is rejected loudly when it cannot
    // apply, instead of being silently ignored.
    const int shard_retries = args.get_int("--shard-retries");
    check(shard_retries >= 0, "--shard-retries must be >= 0 (0 = fail fast)");
    check(!args.has("--shard-retries") || (sharded && shard_procs),
          "--shard-retries supervises forked shard workers; add --shards N "
          "--shard-procs");
    const int server_retries = args.get_int("--server-retries");
    check(server_retries >= 0, "--server-retries must be >= 0 (0 = fail fast)");
    check(!args.has("--server-retries") || !server_spec.empty(),
          "--server-retries only applies to --server sweeps");
    const std::string checkpoint_path =
        args.has("--checkpoint") ? args.get("--checkpoint") : "";
    check(checkpoint_path.empty() || sharded,
          "--checkpoint records shard completion; add --shards N");
    check(checkpoint_path.empty() || !shard_dir.empty(),
          "--checkpoint needs --shard-cache-dir: a resume replays the finished "
          "ranges from the per-shard cache files");
    const std::string resume_path = args.has("--resume") ? args.get("--resume") : "";
    check(resume_path.empty() || (server_spec.empty() && !sharded),
          "--resume replays the checkpointed caches into a local session; drop "
          "--server/--shards");
    check(resume_path.empty() || !args.has("--refine"),
          "--resume resumes an eager (sharded) sweep; --refine sweeps cannot "
          "be checkpointed");
    const bool guided = args.has("--guided");
    const double prune_margin = args.get_double("--prune-margin");
    const int eval_budget = args.get_int("--eval-budget");
    check(guided || (!args.has("--prune-margin") && !args.has("--eval-budget")),
          "--prune-margin and --eval-budget only apply to --guided sweeps");
    if (guided) {
        check(prune_margin >= 0.0, "--prune-margin must be >= 0");
        check(eval_budget >= 0, "--eval-budget must be >= 0 (0 = unbounded)");
        check(server_spec.empty(),
              "--guided is a session-side walk; a phls serve runs eager jobs");
        check(!shard_procs,
              "--guided sweeps cannot use forked shard workers: wire jobs are "
              "eager -- drop --shard-procs");
    }
    if (!server_spec.empty())
        check(!args.has("--cache-file"),
              "--cache-file is a local option; a phls serve owns its own caches");
    if (sharded) {
        check(!args.has("--refine"),
              "--refine (adaptive) sweeps cannot be sharded; drop one of the two");
        check(!args.has("--cache-file"),
              "--cache-file is for single-session sweeps; use --shard-cache-dir "
              "and 'phls cache merge'");
    }

    // The sweep runs as a dse::session: one bounded cache owns the graph
    // invariants and the report memo, --cache-file persists its metric
    // records across processes (a repeated sweep warm-starts and serves
    // metric answers instead of resynthesising), and --refine evaluates
    // the cap axis adaptively.
    const flow proto = flow::on(g).with_library(lib).latency(T);
    dse::session_options opts;
    opts.memo_limit = memo_limit(args, opts.memo_limit);
    const bool local = server_spec.empty() && !sharded;
    std::unique_ptr<dse::session> session;
    if (local) session = std::make_unique<dse::session>(proto, opts);

    // A missing cache file is the normal first (cold) run; anything else
    // that prevents loading — unreadable file, a directory, corruption —
    // must fail loudly before the sweep spends minutes computing.
    const std::string cache_path =
        args.has("--cache-file") ? args.get("--cache-file") : "";
    if (!cache_path.empty()) {
        std::error_code probe_ec;
        const bool present = std::filesystem::exists(cache_path, probe_ec);
        check(!probe_ec, "cannot probe cache file '" + cache_path +
                             "': " + probe_ec.message());
        if (present) {
            const std::size_t loaded = session->load(cache_path);
            std::cerr << "loaded " << loaded << " memo records from " << cache_path
                      << '\n';
        }
    }

    // The grid probe shares the session cache when there is one (its
    // problem tables are already built); distributed sweeps
    // probe cold — the grid is a pure function of the problem, so the
    // caps are identical.
    flow probe = proto;
    if (session) probe.reuse(session->cache());
    const std::vector<double> caps = probe.power_grid(points);

    const dse::space sp = args.has("--refine") ? dse::refine({T}, caps)
                                               : dse::cross({T}, caps);

    // Resume: replay the checkpointed per-shard caches into the local
    // session, then run the sweep normally — finished points are served
    // from the warm memo, unfinished ones are computed, and stdout stays
    // byte-identical to the fault-free run.  A manifest written for a
    // different problem or grid is rejected loudly: warm answers for the
    // wrong problem would be silently wrong.
    if (!resume_path.empty()) {
        const serve::sweep_manifest man = serve::load_manifest(resume_path);
        check(man.problem_hash == serve::manifest_problem_hash(proto, sp),
              "--resume manifest '" + resume_path +
                  "' was checkpointed from a different problem (graph, library, "
                  "latency or strategies changed)");
        check(man.space_size == sp.size(),
              strf("--resume manifest covers a %zu-point space but this sweep "
                   "describes %zu points; rerun with the checkpointed run's "
                   "--points",
                   man.space_size, sp.size()));
        std::size_t merged = 0;
        for (const std::string& path : man.cache_files) merged += session->load(path);
        std::cerr << strf("resuming: %zu of %zu points already complete "
                          "(%zu memo records from %zu cache file(s))\n",
                          man.done_points(), sp.size(), merged,
                          man.cache_files.size());
    }

    // Stream per-point progress and the front *deltas* to stderr as
    // workers finish; stdout stays a deterministic, input-ordered table
    // either way.
    std::vector<export_row> rows;
    dse::sink sink;
    std::size_t done = 0;
    std::size_t front_size = 0;
    const bool progress = args.has("--progress");
    // Under --refine the evaluated count is not known upfront, so the
    // progress denominator shows the lattice size as an upper bound.
    const std::string total =
        strf(args.has("--refine") ? "<=%zu" : "%zu", sp.size());
    sink.on_result = [&](std::size_t index, const flow_report& r) {
        rows.push_back({index, metric_of(r)});
        if (progress)
            std::cerr << strf("[%zu/%s] T=%d Pmax=%.2f -> %s\n", ++done,
                              total.c_str(), r.constraints.latency,
                              r.constraints.max_power, r.st.to_string().c_str());
    };
    sink.on_front = [&](const front_delta& d) {
        front_size += d.entered.size();
        front_size -= d.left.size();
        if (progress)
            std::cerr << strf("  front: +%zu -%zu (now %zu point%s)\n",
                              d.entered.size(), d.left.size(), front_size,
                              front_size == 1 ? "" : "s");
    };
    std::vector<front_point> front;
    std::size_t evaluated = 0;
    guided_export gx;
    gx.space = sp.size();
    if (!server_spec.empty()) {
        serve::job_request job = serve::make_job(proto, sp);
        job.threads = threads;
        // With --server-retries the client survives a restarted or
        // dropped server: it redials with backoff, resubmits and
        // deduplicates the replayed points (docs/SERVE.md, "Fault
        // tolerance"); with 0 it fails fast.
        serve::reconnect_options ro;
        ro.max_retries = server_retries;
        serve::client client([&server_spec] { return connect_server(server_spec); },
                             ro);
        const dse::explore_summary sum = client.explore(job, sink);
        client.bye();
        if (client.reconnects() > 0)
            std::cerr << strf("reconnected to %s %zu time(s) mid-sweep\n",
                              server_spec.c_str(), client.reconnects());
        front = sum.front;
        evaluated = sum.evaluated;
    } else if (sharded) {
        serve::shard_options so;
        so.shards = shards;
        so.processes = shard_procs;
        so.threads_per_shard = threads;
        so.memo_limit = opts.memo_limit;
        so.cache_dir = shard_dir;
        so.guided = guided;
        so.prune_margin = prune_margin;
        so.eval_budget = static_cast<std::size_t>(eval_budget);
        so.max_retries = shard_retries;
        so.manifest_path = checkpoint_path;
        const serve::shard_summary sum = serve::explore_sharded(proto, sp, so, sink);
        front = sum.front;
        evaluated = sum.evaluated;
        gx.computed = sum.computed;
        gx.memo_served = sum.evaluated - sum.computed;
        gx.skipped = sum.skipped;
        gx.verified = sum.verified;
        if (sum.worker_retries > 0)
            std::cerr << strf("respawned %zu shard worker(s) mid-sweep\n",
                              sum.worker_retries);
        for (const std::string& path : sum.cache_files)
            std::cerr << "saved shard cache " << path << '\n';
        if (!checkpoint_path.empty())
            std::cerr << "saved checkpoint manifest " << checkpoint_path << '\n';
    } else if (guided) {
        dse::guided_options go;
        go.margin = prune_margin;
        go.eval_budget = static_cast<std::size_t>(eval_budget);
        const dse::guided_summary sum = session->explore_guided(sp, go, sink, threads);
        front = sum.front;
        evaluated = sum.evaluated;
        gx.computed = sum.computed;
        gx.memo_served = sum.memo_served;
        gx.skipped = sum.skipped;
        gx.verified = sum.verified;
    } else {
        const dse::explore_summary sum = session->explore(sp, sink, threads);
        front = sum.front;
        evaluated = sum.evaluated;
    }
    // Guided counters go to stderr so a no-prune guided sweep's stdout
    // stays byte-identical to the eager sweep's.
    if (guided)
        std::cerr << strf("guided: %zu computed + %zu memo + %zu skipped of %zu "
                          "points (%zu verified)\n",
                          gx.computed, gx.memo_served, gx.skipped, gx.space,
                          gx.verified);

    // Input-ordered rows whatever the completion order, each showing the
    // Figure-2 envelope at its cap.  The front was folded from exactly
    // the delivered rows (with --refine, only the evaluated subset).
    std::sort(rows.begin(), rows.end(),
              [](const export_row& a, const export_row& b) { return a.index < b.index; });
    ascii_table t({"Pmax", "feasible", "peak", "area"});
    csv_writer csv({"cap", "feasible", "peak", "area"});
    for (const export_row& e : rows) {
        const double cap = e.m.constraints.max_power;
        const front_point* p = best_under(front, cap);
        t.add_row({strf("%.2f", cap), p ? "yes" : "no", p ? strf("%.2f", p->peak) : "-",
                   p ? strf("%.0f", p->area) : "-"});
        csv.add_row({strf("%.4f", cap), p ? "1" : "0", p ? strf("%.4f", p->peak) : "",
                     p ? strf("%.2f", p->area) : ""});
    }
    t.print(std::cout);
    if (args.has("--refine"))
        std::cout << strf("refined: %zu of %zu lattice points evaluated\n", evaluated,
                          sp.size());
    if (!csv_path.empty()) {
        csv.save(csv_path);
        std::cout << "wrote " << csv_path << '\n';
    }
    if (!out_path.empty()) {
        write_front_export(out_path, rows, front, guided ? &gx : nullptr);
        std::cout << "wrote " << out_path << '\n';
    }
    if (!cache_path.empty()) {
        const std::size_t saved = session->save(cache_path);
        std::cerr << "saved " << saved << " memo records to " << cache_path << '\n';
    }
    return 0;
}

int cmd_schedule(const arg_parser& args)
{
    const graph g = load_graph(args.positionals().at(1));
    const module_library lib = load_library(args);
    const std::string alg = args.get("--alg");

    flow f = flow::on(g).with_library(lib).scheduler(alg);
    if (args.has("--latency")) f.latency(args.get_int("--latency"));
    const double cap =
        args.has("--power") ? args.get_double("--power") : unbounded_power;
    f.power_cap(cap);

    const sched_outcome out = f.run_schedule();
    if (!out.st.ok()) {
        if (out.st.code == status_code::unsupported) {
            std::string known;
            for (const std::string& n : strategy_registry::instance().scheduler_names())
                known += (known.empty() ? "" : "|") + n;
            throw error("unknown --alg '" + alg + "' (" + known + ")");
        }
        std::cerr << out.st.to_string() << '\n';
        return 1;
    }
    const schedule& s = out.sched;

    ascii_table t({"op", "kind", "module", "start", "finish"});
    t.set_align(0, align::left);
    for (node_id v : g.nodes())
        t.add_row({g.label(v), std::string(op_kind_name(g.kind(v))),
                   lib.module(s.module_of(v)).name, std::to_string(s.start(v)),
                   std::to_string(s.finish(v, lib))});
    t.print(std::cout);
    std::cout << strf("\nlatency %d, peak power %.2f\n", s.latency(lib),
                      s.profile(lib).peak());
    std::cout << s.profile(lib).ascii_chart(cap);
    return 0;
}

int cmd_lifetime(const arg_parser& args)
{
    const graph g = load_graph(args.positionals().at(1));
    const module_library lib = load_library(args);
    const int T = args.get_int("--latency");
    const double beta = args.get_double("--beta");

    // Speed-first baseline: fastest modules, no power awareness.
    synthesis_options speed_first;
    speed_first.try_both_prospects = false;
    speed_first.policy = prospect_policy::fastest_fit;
    lifetime_spec cell;
    cell.beta = beta;
    const flow_report fast = flow::on(g)
                                 .with_library(lib)
                                 .latency(T)
                                 .options(speed_first)
                                 .estimate_lifetime(cell)
                                 .run();
    check(fast.st.ok(), "unconstrained synthesis failed: " + fast.st.to_string());

    // Power-capped design, judged on the same battery (same alpha).
    const double cap = args.has("--power") ? args.get_double("--power") : 0.5 * fast.peak;
    cell.alpha = fast.battery_alpha;
    const flow_report capped = flow::on(g)
                                   .with_library(lib)
                                   .latency(T)
                                   .power_cap(cap)
                                   .estimate_lifetime(cell)
                                   .run();
    check(capped.st.ok(), "capped synthesis failed: " + capped.st.to_string());

    std::cout << strf("speed-first: peak %.2f area %.0f -> lifetime %.0f s\n", fast.peak,
                      fast.area, fast.lifetime_seconds);
    std::cout << strf("capped (P=%.2f): peak %.2f area %.0f -> lifetime %.0f s\n", cap,
                      capped.peak, capped.area, capped.lifetime_seconds);
    std::cout << strf("lifetime gain: %+.1f%% (Rakhmatov beta=%.2f)\n",
                      100.0 * (capped.lifetime_seconds - fast.lifetime_seconds) /
                          fast.lifetime_seconds,
                      beta);
    return 0;
}

/// The running server, for the SIGTERM/SIGINT handler.  A plain pointer
/// store/load: the handler only calls request_stop(), which is one
/// lock-free atomic store.
serve::server* g_server = nullptr;

void handle_stop_signal(int)
{
    if (g_server) g_server->request_stop();
}

int cmd_serve(const arg_parser& args)
{
    serve::serve_limits limits;
    limits.threads = thread_count(args);
    limits.memo_limit = memo_limit(args, limits.memo_limit);
    limits.allow_cache_save = args.has("--allow-cache-save");

    if (args.has("--stdio")) {
        // Protocol over stdin/stdout (logs keep to stderr): the shape a
        // pipe supervisor or an ssh-launched worker wants.
        serve::channel ch(0, 1);
        serve::session_pool pool;
        serve::serve_connection(ch, pool, limits);
        return 0;
    }

    check(args.has("--socket") || args.has("--port"),
          "serve needs --socket PATH, --port N or --stdio");
    serve::server_options opts;
    if (args.has("--socket")) opts.socket_path = args.get("--socket");
    else opts.port = args.get_int("--port");
    opts.client_timeout_ms = args.get_int("--timeout-ms");
    check(opts.client_timeout_ms >= 0, "--timeout-ms must be >= 0 (0 = no timeout)");
    opts.max_clients = args.get_int("--max-clients");
    check(opts.max_clients >= 1, "--max-clients must be >= 1");
    opts.limits = limits;

    serve::server srv(opts);
    g_server = &srv;
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);
    // The "serving on" line is the readiness signal scripts wait for.
    if (!opts.socket_path.empty())
        std::cout << "serving on unix:" << opts.socket_path << std::endl;
    else
        std::cout << "serving on 127.0.0.1:" << srv.port() << std::endl;
    srv.run();
    srv.stop();
    g_server = nullptr;
    const serve::server::stats_snapshot st = srv.stats();
    std::cout << strf("served %zu client(s): %zu job(s), %zu rejected, "
                      "%zu protocol error(s), %zu over capacity, %zu session(s)\n",
                      st.clients, st.jobs, st.rejects, st.protocol_errors,
                      st.overloaded, st.sessions);
    return 0;
}

int cmd_cache(const arg_parser& args)
{
    const std::vector<std::string>& pos = args.positionals();
    check(pos.size() >= 2 && pos[1] == "merge",
          "usage: phls cache merge <out.phlscache> <in.phlscache...>");
    check(pos.size() >= 4, "cache merge needs an output file and at least one input");
    const std::string out = pos[2];
    const std::vector<std::string> inputs(pos.begin() + 3, pos.end());

    const cache_merge_stats stats =
        explore_cache::merge_files(out, inputs, args.has("--skip-bad"));
    ascii_table t({"input", "metrics", "new metrics", "skipped"});
    t.set_align(0, align::left);
    t.set_align(3, align::left);
    for (const cache_merge_stats::input& in : stats.inputs)
        t.add_row({in.path, std::to_string(in.metrics), std::to_string(in.new_metrics),
                   in.skipped ? in.skip_reason : "-"});
    t.add_row({"= " + out, std::to_string(stats.metric_total), "",
               stats.skipped_inputs > 0
                   ? strf("%zu input(s)", stats.skipped_inputs)
                   : "-"});
    t.print(std::cout);
    return 0;
}

/// Writes the task schedule to `path`, dispatching on the extension
/// (.csv or .json) like the sweep's --out.
void write_tasks_export(const std::string& path, const task::task_schedule& s)
{
    if (ends_with(path, ".csv")) {
        csv_writer csv({"index", "name", "latency_bound", "cap", "latency", "peak",
                        "area", "release", "deadline", "iterations", "completion",
                        "slack", "met"});
        for (const task::task_result& t : s.tasks)
            csv.add_row({std::to_string(t.index), t.name,
                         std::to_string(t.impl.point.latency),
                         std::isfinite(t.impl.point.max_power)
                             ? strf("%.6f", t.impl.point.max_power)
                             : "inf",
                         std::to_string(t.impl.latency), strf("%.6f", t.impl.peak),
                         strf("%.4f", t.impl.area), std::to_string(t.release),
                         std::to_string(t.deadline), std::to_string(t.iterations),
                         std::to_string(t.completion), std::to_string(t.slack),
                         t.met ? "1" : "0"});
        csv.save(path);
        return;
    }

    // JSON has no infinity literal; unbounded powers export as null.
    const auto json_power = [](double p) {
        return std::isfinite(p) ? strf("%.17g", p) : std::string("null");
    };
    std::ofstream os(path);
    check(static_cast<bool>(os), "cannot write '" + path + "'");
    os << strf("{\n  \"taskset\": \"%s\", \"policy\": \"%s\", \"envelope\": %s,\n",
               json_escape(s.set_name).c_str(), json_escape(s.policy).c_str(),
               json_power(s.envelope).c_str());
    os << strf("  \"met\": %d, \"makespan\": %d, \"gaps\": %d,\n", s.met, s.makespan,
               s.preemption_gaps);
    os << strf("  \"peak\": %.17g, \"energy\": %.17g, \"lifetime_s\": %.17g, "
               "\"alpha\": %.17g,\n",
               s.peak, s.energy, s.lifetime_seconds, s.battery_alpha);
    os << "  \"tasks\": [\n";
    for (std::size_t i = 0; i < s.tasks.size(); ++i) {
        const task::task_result& t = s.tasks[i];
        os << strf("    {\"index\": %d, \"name\": \"%s\", \"latency_bound\": %d, "
                   "\"cap\": %s, \"latency\": %d, \"peak\": %.17g, \"area\": %.17g, "
                   "\"release\": %d, \"deadline\": %d, \"iterations\": %d, "
                   "\"completion\": %d, \"slack\": %d, \"met\": %s, \"runs\": [",
                   t.index, json_escape(t.name).c_str(), t.impl.point.latency,
                   json_power(t.impl.point.max_power).c_str(), t.impl.latency,
                   t.impl.peak, t.impl.area, t.release, t.deadline, t.iterations,
                   t.completion, t.slack, t.met ? "true" : "false");
        for (std::size_t r = 0; r < t.runs.size(); ++r)
            os << strf("[%d, %d]%s", t.runs[r].start, t.runs[r].finish,
                       r + 1 < t.runs.size() ? ", " : "");
        os << (i + 1 < s.tasks.size() ? "]},\n" : "]}\n");
    }
    os << "  ]\n}\n";
    check(static_cast<bool>(os), "failed writing '" + path + "'");
}

int cmd_tasks(const arg_parser& args)
{
    if (args.has("--list-policies")) {
        ascii_table t({"policy", "description"});
        t.set_align(0, align::left);
        t.set_align(1, align::left);
        for (const std::string& name : task::policy_names())
            t.add_row({name, task::policy_description(task::policy_by_name(name))});
        t.print(std::cout);
        return 0;
    }
    check(args.positionals().size() >= 2,
          "tasks needs a task-set file (or --list-policies)");
    const std::string path = args.positionals().at(1);
    std::ifstream is(path);
    check(static_cast<bool>(is), "cannot open '" + path + "'");
    const task::task_set set = task::parse_task_set(is);
    const task::policy p = task::policy_by_name(args.get("--policy"));

    task::schedule_options opts;
    opts.threads = thread_count(args);
    opts.memo_limit = memo_limit(args, opts.memo_limit);
    const std::string out_path = export_path(args);

    // Per-task streaming goes to stderr; stdout is the canonical
    // schedule rendering (byte-identical across thread counts, which the
    // CI smoke compares).
    task::sink sk;
    if (args.has("--progress"))
        sk.on_task = [](const task::task_result& t) {
            std::cerr << strf("task %s: %s completion %d deadline %d (%zu runs)\n",
                              t.name.c_str(), t.met ? "met" : "MISSED", t.completion,
                              t.deadline, t.runs.size());
        };

    const task::task_schedule s = task::schedule(set, p, opts, sk);
    std::cout << s.to_string();
    if (!out_path.empty()) {
        write_tasks_export(out_path, s);
        std::cout << "wrote " << out_path << '\n';
    }
    return 0;
}

int run(const std::vector<std::string>& argv)
{
    arg_parser args(
        "phls <list|strategies|show|synth|sweep|schedule|lifetime|serve|cache|tasks> "
        "[graph|taskset-file]");
    args.add_option("--latency", "-T", "latency constraint in cycles");
    args.add_option("--power", "-P", "max power per clock cycle");
    args.add_option("--library", "-L", "module library file (default: Table 1)");
    args.add_option("--points", "", "sweep grid size", "20");
    args.add_option("--threads", "", "sweep worker threads (0 = all cores)", "0");
    args.add_option("--intra-threads", "",
                    "accepted for compatibility; changes no result or timing (>= 1)", "1");
    args.add_option("--alg", "", "scheduler for 'schedule'", "pasap");
    args.add_option("--synth", "", "synthesizer strategy for 'synth'", "greedy");
    args.add_option("--beta", "", "Rakhmatov diffusion parameter", "0.1");
    args.add_option("--csv", "", "write sweep results to a CSV file");
    args.add_option("--dot", "", "write a Graphviz file");
    args.add_option("--verilog", "", "write a structural Verilog skeleton");
    args.add_option("--out", "",
                    "export the sweep's Pareto front + per-point reports "
                    "(.csv or .json)");
    args.add_option("--cache-file", "",
                    "persist the sweep's metric records: load before, save after "
                    "(warm-starts repeated sweeps)");
    args.add_option("--memo-limit", "",
                    "max full reports held by the report memo (0 = unbounded)");
    args.add_option("--server", "",
                    "run the sweep on a phls serve (unix:PATH or HOST:PORT)");
    args.add_option("--shards", "",
                    "split the sweep into N contiguous shards, merge the fronts", "1");
    args.add_option("--shard-cache-dir", "",
                    "save each shard's cache to DIR/shard<i>.phlscache");
    args.add_option("--socket", "", "unix socket path for 'serve'");
    args.add_option("--port", "", "loopback TCP port for 'serve' (0 = ephemeral)");
    args.add_option("--timeout-ms", "",
                    "per-client receive/send timeout for 'serve' (0 = none)",
                    "30000");
    args.add_option("--max-clients", "",
                    "concurrent connections a 'serve' accepts before rejecting "
                    "with a loud reason",
                    "64");
    args.add_flag("--shard-procs", "",
                  "run each shard in a forked subprocess over the wire protocol");
    args.add_option("--shard-retries", "",
                    "respawns allowed per shard after a forked worker dies "
                    "mid-job (0 = fail fast)",
                    "2");
    args.add_option("--server-retries", "",
                    "reconnect attempts after the --server connection breaks "
                    "mid-sweep (0 = fail fast)",
                    "0");
    args.add_option("--checkpoint", "",
                    "atomically rewrite a sweep manifest as each shard "
                    "completes (needs --shard-cache-dir)");
    args.add_option("--resume", "",
                    "resume a killed sweep from its --checkpoint manifest: "
                    "replay the finished ranges' caches, compute the rest");
    args.add_flag("--skip-bad", "",
                  "cache merge: skip (and report) corrupt or truncated inputs "
                  "instead of aborting the merge");
    args.add_flag("--stdio", "", "serve the wire protocol on stdin/stdout");
    args.add_flag("--allow-cache-save", "",
                  "let jobs ask the server to save session caches to disk");
    args.add_flag("--refine", "",
                  "evaluate the sweep grid adaptively (subdivide only where "
                  "the front changes)");
    args.add_flag("--guided", "",
                  "steer the sweep with an incremental surrogate: order by "
                  "prediction, prune margin-dominated points, verify the front "
                  "exactly");
    args.add_option("--prune-margin", "",
                    "guided prune margin in prediction-sigma units (>= 0)", "3");
    args.add_option("--eval-budget", "",
                    "guided hard cap on exact evaluations (0 = unbounded)", "0");
    args.add_option("--policy", "",
                    "task scheduling policy for 'tasks' (see --list-policies)",
                    "battery");
    args.add_flag("--list-policies", "", "list the task scheduling policies");
    args.add_flag("--netlist", "", "print the datapath netlist");
    args.add_flag("--progress", "",
                  "stream sweep progress + incremental Pareto-front deltas to stderr");
    args.add_flag("--exact", "", "use the exact synthesiser (same as --synth exact)");
    args.add_flag("--help", "-h", "show usage");

    if (!args.parse(argv)) {
        std::cerr << args.error() << '\n' << args.usage();
        return 2;
    }
    if (args.has("--help") || args.positionals().empty()) {
        std::cout << args.usage();
        return args.positionals().empty() && !args.has("--help") ? 2 : 0;
    }

    // kernel_tuning::intra_threads no longer changes any computation (a
    // candidate pick times a handful of combos; nothing fans out).  The
    // option stays so existing command lines keep working.
    const int intra_threads = args.get_int("--intra-threads");
    check(intra_threads >= 1, "--intra-threads must be >= 1");
    kernel_knobs().intra_threads = intra_threads;

    const std::string& command = args.positionals().front();
    if (command == "list") return cmd_list();
    if (command == "strategies") return cmd_strategies();
    if (command == "serve") return cmd_serve(args);
    if (command == "cache") return cmd_cache(args);
    if (command == "tasks") return cmd_tasks(args);
    check(args.positionals().size() >= 2, "command '" + command + "' needs a graph");
    if (command == "show") return cmd_show(args);
    if (command == "synth") return cmd_synth(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "schedule") return cmd_schedule(args);
    if (command == "lifetime") return cmd_lifetime(args);
    throw error("unknown command '" + command + "'");
}

} // namespace
} // namespace phls

int main(int argc, char** argv)
{
    try {
        return phls::run(std::vector<std::string>(argv + 1, argv + argc));
    } catch (const phls::error& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
