#include "serve/shard.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

#include "serve/manifest.h"
#include "serve/server.h"
#include "support/errors.h"
#include "support/faultpoints.h"

namespace phls::serve {

namespace {

/// One shard's contiguous slice of the global index range.
struct index_range {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool empty() const { return begin >= end; }
};

std::vector<index_range> split(std::size_t size, int shards)
{
    std::vector<index_range> ranges(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i) {
        ranges[static_cast<std::size_t>(i)].begin =
            size * static_cast<std::size_t>(i) / static_cast<std::size_t>(shards);
        ranges[static_cast<std::size_t>(i)].end =
            size * static_cast<std::size_t>(i + 1) / static_cast<std::size_t>(shards);
    }
    return ranges;
}

/// The shard's slice as an explicit point list; its local index `li`
/// is global index `range.begin + li`.
dse::space sub_space(const dse::space& s, const index_range& r)
{
    std::vector<synthesis_constraints> points;
    points.reserve(r.end - r.begin);
    for (std::size_t j = r.begin; j < r.end; ++j) points.push_back(s.at(j));
    return dse::list(std::move(points));
}

std::string shard_cache_path(const std::string& dir, int shard)
{
    return dir + "/shard" + std::to_string(shard) + ".phlscache";
}

/// Parent-side SIGPIPE suppression for the lifetime of a forked-worker
/// sweep: a job write racing a worker's death must surface as EPIPE
/// (-> wire_error -> the retry path), not kill the orchestrator.
struct sigpipe_guard {
    void (*previous)(int);
    sigpipe_guard() : previous(std::signal(SIGPIPE, SIG_IGN)) {}
    ~sigpipe_guard() { std::signal(SIGPIPE, previous); }
};

/// The global fold: every shard's reports land here under one lock, are
/// folded into one pareto_stream by *global* index, and fan out to the
/// caller's sink.  Folding is order-independent, so the final front
/// does not depend on shard interleaving.  Each index folds at most
/// once — a respawned worker re-evaluating points its predecessor
/// already streamed cannot double-count them — so the front and every
/// sink callback stay byte-identical to a fault-free run.
struct merge_state {
    std::mutex mutex;
    pareto_stream front;
    shard_summary summary;
    std::vector<char> delivered; ///< per global index: folded already?
    const dse::sink* sk = nullptr;

    void deliver(std::size_t global_index, const flow_report& report)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (delivered[global_index]) return; // replay from a retried worker
        delivered[global_index] = 1;
        ++summary.evaluated;
        if (report.st.ok()) ++summary.feasible;
        front_delta delta;
        front.add(global_index, report, &delta);
        if (sk->on_result) sk->on_result(global_index, report);
        if (delta.changed() && sk->on_front) sk->on_front(delta);
    }

    /// The shard's points not yet folded, ascending — what a respawned
    /// worker is handed.  Exact: a dead worker's pipe only reports EOF
    /// after every frame it managed to write has been drained.
    std::vector<std::size_t> undelivered_in(const index_range& r)
    {
        std::lock_guard<std::mutex> lock(mutex);
        std::vector<std::size_t> pending;
        for (std::size_t g = r.begin; g < r.end; ++g)
            if (!delivered[g]) pending.push_back(g);
        return pending;
    }

    void add_metric_served(std::size_t n)
    {
        std::lock_guard<std::mutex> lock(mutex);
        summary.metric_served += n;
    }

    void add_guided(const dse::guided_summary& sum)
    {
        std::lock_guard<std::mutex> lock(mutex);
        summary.metric_served += sum.metric_served;
        summary.computed += sum.computed;
        summary.skipped += sum.skipped;
        summary.verified += sum.verified;
    }

    void count_retry()
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++summary.worker_retries;
    }
};

/// The checkpoint manifest, rewritten atomically whenever a shard
/// completes — even a sweep that later throws leaves behind an exact
/// record of the ranges (and cache files) already done.
struct manifest_state {
    std::mutex mutex;
    std::string path; ///< empty = checkpointing off
    sweep_manifest m;

    void shard_done(const index_range& r, const std::string& cache_path)
    {
        if (path.empty()) return;
        std::lock_guard<std::mutex> lock(mutex);
        m.done_ranges.push_back({r.begin, r.end});
        std::sort(m.done_ranges.begin(), m.done_ranges.end(),
                  [](const sweep_manifest::range& a, const sweep_manifest::range& b) {
                      return a.begin < b.begin;
                  });
        if (!cache_path.empty()) {
            m.cache_files.push_back(cache_path);
            std::sort(m.cache_files.begin(), m.cache_files.end());
        }
        save_manifest(path, m);
    }
};

void run_shards_threads(const flow& prototype, const dse::space& s,
                        const std::vector<index_range>& ranges,
                        const shard_options& opts, merge_state& state,
                        manifest_state& manifest)
{
    struct worker {
        index_range range;
        dse::space sub = dse::list({});
        std::unique_ptr<dse::session> session;
        std::string cache_path;
        std::exception_ptr failure;
    };
    // Sessions (and their caches) are built up front on this thread, so
    // construction errors surface before anything runs.
    std::vector<worker> workers;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
        if (ranges[i].empty()) continue;
        worker w;
        w.range = ranges[i];
        w.sub = sub_space(s, ranges[i]);
        dse::session_options so;
        so.memo_limit = opts.memo_limit;
        w.session = std::make_unique<dse::session>(prototype, so);
        if (!opts.cache_dir.empty())
            w.cache_path = shard_cache_path(opts.cache_dir, static_cast<int>(i));
        workers.push_back(std::move(w));
    }

    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (worker& w : workers) {
        threads.emplace_back([&w, &opts, &state, &manifest] {
            try {
                dse::sink local;
                local.on_result = [&w, &state](std::size_t li, const flow_report& r) {
                    state.deliver(w.range.begin + li, r);
                };
                if (opts.guided) {
                    dse::guided_options go;
                    go.margin = opts.prune_margin;
                    go.eval_budget = opts.eval_budget;
                    const dse::guided_summary sum = w.session->explore_guided(
                        w.sub, go, local, opts.threads_per_shard);
                    state.add_guided(sum);
                } else {
                    const dse::explore_summary sum =
                        w.session->explore(w.sub, local, opts.threads_per_shard);
                    state.add_metric_served(sum.metric_served);
                }
                if (!w.cache_path.empty()) w.session->save(w.cache_path);
                manifest.shard_done(w.range, w.cache_path);
            } catch (...) {
                w.failure = std::current_exception();
            }
        });
    }
    for (std::thread& t : threads) t.join();
    for (worker& w : workers) {
        if (w.failure) std::rethrow_exception(w.failure);
        if (!w.cache_path.empty()) state.summary.cache_files.push_back(w.cache_path);
    }
}

// ------------------------------------------------- supervised processes

/// Parent-side ends of every live worker's pipes.  A child forked for
/// one shard must close the ends belonging to every *other* shard, or a
/// sibling's EOF (the parent's death-detection signal) would wait on
/// this child too.  Spawns run under the lock, so no fd can slip into a
/// concurrently-forked child unregistered.
struct fd_registry {
    std::mutex mutex;
    std::vector<int> fds;
};

struct proc_worker {
    index_range range;
    int shard = 0;
    pid_t pid = -1;
    int stream_read = -1; ///< child -> parent (registry bookkeeping)
    int job_write = -1;   ///< parent -> child (registry bookkeeping)
    /// Open channel over the two fds above.  Holds a value exactly
    /// while the fds are registered and the child is unreaped.
    std::optional<channel> ch;
    std::string cache_path;
    std::exception_ptr failure;
};

/// Forks one worker child for `w` and wires its pipes.  Safe to call
/// from a reader thread mid-sweep (a respawn): glibc's atfork handlers
/// make malloc usable in the child, the fault registry's handlers hand
/// it its lock unlocked, the child only runs serve code and _exit(),
/// and the fd registry lock is parent-only state it never takes.
void spawn_worker(fd_registry& reg, const shard_options& opts, proc_worker& w)
{
    std::lock_guard<std::mutex> lock(reg.mutex);
    int to_child[2];
    int to_parent[2];
    check(::pipe(to_child) == 0 && ::pipe(to_parent) == 0,
          "cannot create shard worker pipes");
    // Fault site: this spawn produces a dead-on-arrival worker.  The
    // verdict is decided parent-side before the fork, so respawned
    // children (which inherit the fault counters) cannot re-fire it.
    const bool doomed = fault_fire("shard.spawn.doom");
    const pid_t pid = ::fork();
    check(pid >= 0, "cannot fork shard worker");
    if (pid == 0) {
        if (doomed) ::_exit(137);
        // Child: drop every parent-side end -- ours and every other
        // live worker's, so a sibling's EOF is decided by the parent
        // alone -- and serve the pipe until the parent says bye.
        ::close(to_child[1]);
        ::close(to_parent[0]);
        for (const int fd : reg.fds) ::close(fd);
        int code = 0;
        try {
            channel ch(to_child[0], to_parent[1]);
            session_pool pool;
            serve_limits limits;
            limits.threads = opts.threads_per_shard;
            limits.memo_limit = opts.memo_limit;
            limits.allow_cache_save = true; // shard cache files
            serve_connection(ch, pool, limits);
        } catch (...) {
            code = 1;
        }
        ::_exit(code);
    }
    ::close(to_child[0]);
    ::close(to_parent[1]);
    w.pid = pid;
    w.stream_read = to_parent[0];
    w.job_write = to_child[1];
    w.ch.emplace(w.stream_read, w.job_write);
    reg.fds.push_back(w.stream_read);
    reg.fds.push_back(w.job_write);
}

/// Closes the worker's channel and deregisters its fds.  Deregister
/// first: a concurrent spawn must never hand its child a registered fd
/// number we have already closed (the number could be reused).
void release_channel(fd_registry& reg, proc_worker& w)
{
    {
        std::lock_guard<std::mutex> lock(reg.mutex);
        std::erase(reg.fds, w.stream_read);
        std::erase(reg.fds, w.job_write);
    }
    w.ch.reset(); // closes both fds
    w.stream_read = -1;
    w.job_write = -1;
}

/// One complete conversation with the worker's current child: submit
/// the shard's still-undelivered points, fold the reports until done.
/// Throws wire_error on any transport failure (the retryable class) and
/// plain error on a job rejection (not retryable — a respawn would be
/// rejected identically).
void converse(proc_worker& w, const flow& prototype, const dse::space& s,
              const shard_options& opts, merge_state& state)
{
    channel& ch = *w.ch;
    send_hello(ch);
    expect_hello(ch);
    // First attempt: the whole range, the same job a fault-free sweep
    // sends.  Respawns: only what the dead predecessor never delivered.
    const std::vector<std::size_t> pending = state.undelivered_in(w.range);
    std::vector<synthesis_constraints> points;
    points.reserve(pending.size());
    for (const std::size_t g : pending) points.push_back(s.at(g));
    job_request job = make_job(prototype, dse::list(std::move(points)));
    job.threads = opts.threads_per_shard;
    job.save_cache_path = w.cache_path;
    const auto fold = [&](std::size_t index, const flow_report& report) {
        state.deliver(pending[index], report);
        // Fault site: SIGKILL the worker after the nth report folded
        // across the sweep, and drop the conversation as a dead pipe
        // would: frames already in the pipe must not let the killed
        // worker complete, so the respawn path always runs.
        // Parent-side on purpose: forked children inherit the armed
        // counters, so a child-side site would re-fire inside every
        // respawn and recovery could never converge.
        if (fault_fire("shard.worker.kill")) {
            ::kill(w.pid, SIGKILL);
            throw wire_error("shard worker killed by an injected fault");
        }
    };
    state.add_metric_served(submit_job(ch, job, fold, "shard worker").metric_served);
    ch.send(frame_type::bye, "");
}

/// Runs one shard to completion, respawning its worker on transport
/// failures up to opts.max_retries times with capped doubling backoff.
void supervise(proc_worker& w, fd_registry& reg, const flow& prototype,
               const dse::space& s, const shard_options& opts, merge_state& state,
               manifest_state& manifest)
{
    int backoff = std::max(1, opts.retry_backoff_ms);
    int attempts = 0;
    for (;;) {
        try {
            converse(w, prototype, s, opts, state);
        } catch (const wire_error&) {
            // The worker is gone or its stream is garbage: tear it down
            // (kill is a no-op on an already-dead child) and respawn,
            // unless the retry budget is spent.
            release_channel(reg, w);
            ::kill(w.pid, SIGKILL);
            int wstatus = 0;
            ::waitpid(w.pid, &wstatus, 0);
            w.pid = -1;
            if (attempts >= opts.max_retries) throw;
            ++attempts;
            state.count_retry();
            std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
            backoff = std::min(backoff * 2, std::max(1, opts.retry_backoff_cap_ms));
            spawn_worker(reg, opts, w);
            continue;
        }
        // Clean completion: reap.  Supervised sweeps (max_retries > 0)
        // tolerate an abnormal exit *after* the protocol completed: the
        // done frame proves every point was delivered and the cache
        // saved, so a kill landing between the last buffered frame and
        // process exit changes nothing the parent consumed.  Fail-fast
        // sweeps keep the strict check — there a nonzero exit after done
        // is a real defect, not a recoverable fault.
        release_channel(reg, w);
        int wstatus = 0;
        ::waitpid(w.pid, &wstatus, 0);
        w.pid = -1;
        if ((!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) &&
            opts.max_retries == 0)
            throw wire_error("shard worker " + std::to_string(w.shard) +
                             " exited abnormally");
        manifest.shard_done(w.range, w.cache_path);
        return;
    }
}

void run_shards_processes(const flow& prototype, const dse::space& s,
                          const std::vector<index_range>& ranges,
                          const shard_options& opts, merge_state& state,
                          manifest_state& manifest)
{
    // A worker killed while the parent writes its job must cost EPIPE,
    // not the process.
    const sigpipe_guard no_sigpipe;

    // Fork every initial worker from this (still single-threaded)
    // process first; reader threads only start once all children exist.
    // Respawns later fork from reader threads — see spawn_worker().
    fd_registry reg;
    std::vector<proc_worker> workers;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
        if (ranges[i].empty()) continue;
        proc_worker w;
        w.range = ranges[i];
        w.shard = static_cast<int>(i);
        if (!opts.cache_dir.empty())
            w.cache_path = shard_cache_path(opts.cache_dir, w.shard);
        workers.push_back(std::move(w));
    }
    for (proc_worker& w : workers) spawn_worker(reg, opts, w);

    // One supervisor thread per worker: submit the shard's job, fold
    // every streamed report into the global front as it arrives, and
    // respawn the worker if it dies mid-job.
    std::vector<std::thread> readers;
    readers.reserve(workers.size());
    for (proc_worker& w : workers) {
        readers.emplace_back([&w, &reg, &prototype, &s, &opts, &state, &manifest] {
            try {
                supervise(w, reg, prototype, s, opts, state, manifest);
            } catch (...) {
                w.failure = std::current_exception();
                if (w.ch) { // converse threw a non-retryable error
                    release_channel(reg, w);
                    ::kill(w.pid, SIGKILL);
                    int wstatus = 0;
                    ::waitpid(w.pid, &wstatus, 0);
                    w.pid = -1;
                }
            }
        });
    }
    for (std::thread& t : readers) t.join();

    // Every child was reaped by its supervisor; report the first
    // failure, or collect the cache files of a fully-clean sweep.
    for (proc_worker& w : workers)
        if (w.failure) std::rethrow_exception(w.failure);
    for (const proc_worker& w : workers)
        if (!w.cache_path.empty()) state.summary.cache_files.push_back(w.cache_path);
}

} // namespace

shard_summary explore_sharded(const flow& prototype, const dse::space& s,
                              const shard_options& opts, const dse::sink& sk)
{
    check(opts.shards >= 1, "shard count must be >= 1");
    check(!s.adaptive(),
          "adaptive (refine) spaces cannot be sharded: subdivision decisions "
          "span the whole lattice -- evaluate them in one session");
    check(!(opts.guided && opts.processes),
          "guided sweeps cannot use forked shard workers: wire jobs are "
          "eager -- use in-process (threads) shards");
    check(opts.max_retries >= 0, "shard retry count must be >= 0");
    check(opts.retry_backoff_ms >= 0 && opts.retry_backoff_cap_ms >= 0,
          "shard retry backoff must be >= 0");
    check(opts.manifest_path.empty() || !opts.cache_dir.empty(),
          "a checkpoint manifest needs a cache directory: resume replays "
          "fronts from the per-shard cache files");
    const auto started = std::chrono::steady_clock::now();

    merge_state state;
    state.sk = &sk;
    state.summary.space_size = s.size();
    state.delivered.assign(s.size(), 0);

    manifest_state manifest;
    manifest.path = opts.manifest_path;
    if (!manifest.path.empty()) {
        manifest.m.problem_hash = manifest_problem_hash(prototype, s);
        manifest.m.space_size = s.size();
        // Written before anything runs: a sweep killed before its first
        // shard completes still leaves a valid (empty) manifest behind.
        save_manifest(manifest.path, manifest.m);
    }

    const std::vector<index_range> ranges = split(s.size(), opts.shards);
    if (opts.processes)
        run_shards_processes(prototype, s, ranges, opts, state, manifest);
    else
        run_shards_threads(prototype, s, ranges, opts, state, manifest);

    state.summary.front = state.front.front();
    state.summary.wall_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - started)
                                .count();
    return state.summary;
}

} // namespace phls::serve
