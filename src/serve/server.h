// The serving side of the distributed exploration service.
//
// Three nested layers, each usable on its own:
//
//   * session_pool — warm dse::sessions keyed by the full job
//     configuration (graph, library, strategies, options, stages).  Two
//     clients submitting the same problem share one session and
//     therefore one explore_cache: the second sweep is served from the
//     warm memo instead of resynthesising.
//   * serve_connection() — the per-connection protocol loop (handshake,
//     then jobs until bye/EOF) over any wire channel.  This is the whole
//     body of a fork/pipe worker (see shard.h) and of `phls serve
//     --stdio`; the socket server runs the same loop per client against
//     its shared pool.
//   * server — a long-lived listener (unix socket or loopback TCP) that
//     accepts concurrent clients, one thread each, against one shared
//     pool.  Failures degrade per client: a malformed frame or a
//     protocol violation closes that connection (after a best-effort
//     reject frame) and the server keeps serving everyone else.
//
// Job results stream while the sweep runs (one report frame per point,
// then a done summary); a client folds the front from the reports, so
// it renders partial fronts exactly like a local dse::session sink.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dse/session.h"
#include "serve/wire.h"

namespace phls::serve {

/// Evaluation policy of one serving endpoint (socket server, fork
/// worker, stdio worker).
struct serve_limits {
    /// Worker threads per job: the count a job gets when it does not
    /// ask for one (job_request::threads == 0), and the ceiling on what
    /// it may ask for; 0 = hardware concurrency.
    int threads = 1;
    /// Full-report and interval-design LRU bound for each pooled
    /// session (0 = unbounded).
    std::size_t memo_limit = 0;
    /// Honour job_request::save_cache_path.  Off by default for socket
    /// servers (a remote client choosing server-side file paths is a
    /// policy decision); shard workers turn it on for their per-shard
    /// cache files.
    bool allow_cache_save = false;
};

/// Warm exploration sessions shared across jobs and connections.  A
/// session is keyed by everything that makes two jobs "the same problem"
/// — the canonical job encoding minus the space, thread count and cache
/// path — so duplicate submissions reuse one cache.  Thread-safe; each
/// slot serialises its explorations (dse::session runs one explore() at
/// a time).
class session_pool {
public:
    /// One pooled session plus its run lock.
    struct slot {
        slot(const flow& prototype, const dse::session_options& opts)
            : session(prototype, opts)
        {
        }
        std::mutex run; ///< hold while exploring on this session
        dse::session session;
    };

    /// The slot for `job`'s configuration, created on first sight (which
    /// parses the job's graph/library and builds the cache — errors from
    /// a malformed job throw here, before anything is cached).
    std::shared_ptr<slot> acquire(const job_request& job, std::size_t memo_limit);

    /// Sessions created so far (the warm-reuse observability hook: two
    /// identical jobs leave this at 1).
    std::size_t sessions_created() const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<slot>> slots_;
};

/// Per-connection protocol counters (shared across connections when the
/// caller serves several).
struct serve_stats {
    std::atomic<std::size_t> jobs{0};    ///< jobs run to a done frame
    std::atomic<std::size_t> rejects{0}; ///< jobs refused with a reject frame
};

/// Runs one decoded job on `pool`'s session for it: streams a report
/// frame per evaluated point, then the done summary.  A job that cannot start (unparsable graph/library,
/// unknown strategy) is answered with a reject frame instead; the
/// connection stays usable.  Returns true iff the job ran.
/// @throws wire_error when the peer disappears mid-stream.
bool run_job(channel& ch, const job_request& job, session_pool& pool,
             const serve_limits& limits, serve_stats* stats = nullptr);

/// The per-connection serve loop: version handshake, then frames until
/// a bye or a clean EOF.  @throws wire_error on malformed traffic or
/// protocol violations — the caller owns the policy (a fork worker dies
/// with the connection, the socket server closes one client).
void serve_connection(channel& ch, session_pool& pool, const serve_limits& limits,
                      serve_stats* stats = nullptr);

/// Listener configuration: exactly one of socket_path / port.
struct server_options {
    /// Unix-domain listener path (takes precedence when non-empty).
    std::string socket_path;
    /// Loopback TCP port; 0 picks an ephemeral port (see server::port()),
    /// negative means "no TCP listener".
    int port = -1;
    /// Per-client receive AND send timeout; a client idle (or not
    /// draining its result stream) longer than this is disconnected
    /// (0 = wait forever).
    int client_timeout_ms = 30000;
    /// Concurrent client connections served; one past the bound is
    /// answered hello + a loud "server at capacity" reject and closed,
    /// instead of growing an unbounded thread per connection.
    int max_clients = 64;
    serve_limits limits; ///< evaluation policy for every client
};

/// The long-lived exploration server: accepts concurrent clients on a
/// unix or loopback-TCP listener, serves each on its own thread against
/// one shared session_pool.  Construction binds and listens (throwing
/// phls::error on failure); run() blocks until stop(), start() runs the
/// same loop on a background thread.
class server {
public:
    explicit server(const server_options& opts);
    ~server(); ///< stop()s and joins everything

    server(const server&) = delete;
    server& operator=(const server&) = delete;

    /// The resolved TCP port (after an ephemeral bind); -1 for unix.
    int port() const { return port_; }
    /// The unix listener path ("" for TCP).
    const std::string& socket_path() const { return opts_.socket_path; }

    /// Serves until stop() is called (from another thread or a signal
    /// handler via request_stop()).
    void run();
    /// run() on a background thread; returns once accepting.
    void start();
    /// Async-signal-safe stop request; run() notices within its accept
    /// poll interval.
    void request_stop() { stop_.store(true); }
    /// Full shutdown: stops accepting, disconnects remaining clients,
    /// joins every thread.  Idempotent.
    void stop();

    /// Observability counters (safe to read while serving).
    struct stats_snapshot {
        std::size_t clients = 0;         ///< connections accepted
        std::size_t jobs = 0;            ///< jobs run to completion
        std::size_t rejects = 0;         ///< jobs refused
        std::size_t protocol_errors = 0; ///< connections dropped on bad traffic
        std::size_t overloaded = 0;      ///< connections rejected at capacity
        std::size_t sessions = 0;        ///< distinct problems seen (pool size)
    };
    stats_snapshot stats() const;

private:
    /// One serving thread plus its completion flag (set as the thread's
    /// last act, so a true flag means the thread is safe to join).
    struct client_slot {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };

    void accept_loop();
    void client_loop(int fd, const std::shared_ptr<std::atomic<bool>>& done);
    /// Joins and drops every finished client thread (the accept loop
    /// calls this each round, so the thread list tracks *live* clients
    /// instead of growing for the server's lifetime).
    void reap_finished_clients();

    server_options opts_;
    int listen_fd_ = -1;
    int port_ = -1;
    std::atomic<bool> stop_{false};
    bool stopped_ = false;
    std::thread accept_thread_;
    std::mutex clients_mutex_;
    std::vector<client_slot> client_slots_;
    std::set<int> client_fds_; ///< open client sockets, for shutdown
    session_pool pool_;
    serve_stats serve_stats_;
    std::atomic<std::size_t> clients_{0};
    std::atomic<std::size_t> protocol_errors_{0};
    std::atomic<std::size_t> overloaded_{0};
};

} // namespace phls::serve
