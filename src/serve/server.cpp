#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "flow/strategy.h"
#include "support/errors.h"
#include "support/faultpoints.h"

namespace phls::serve {

namespace {

/// The pool key: the canonical job encoding with the per-call fields
/// (space, threads, cache path) neutralised, so two jobs collide iff
/// they describe the same problem + configuration.
std::string config_key(const job_request& job)
{
    job_request stripped = job;
    stripped.space = dse::list({});
    stripped.threads = 0;
    stripped.save_cache_path.clear();
    return encode_job(stripped);
}

/// bind() with a short doubling backoff on EADDRINUSE: CI restart loops
/// re-bind while the previous listener's socket is still draining, and
/// that is transient — anything else fails immediately.
int bind_with_retry(int fd, const sockaddr* addr, socklen_t len)
{
    int backoff_ms = 50;
    for (int attempt = 0;; ++attempt) {
        if (::bind(fd, addr, len) == 0) return 0;
        if (errno != EADDRINUSE || attempt >= 7) return -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2, 500);
    }
}

} // namespace

std::shared_ptr<session_pool::slot> session_pool::acquire(const job_request& job,
                                                          std::size_t memo_limit)
{
    const std::string key = config_key(job);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = slots_.find(key);
        if (it != slots_.end()) return it->second;
    }
    // Build the session outside the pool lock: parsing the graph and
    // building the cache is heavy, and a malformed job must not stall
    // other clients.  A racing duplicate builds twice and the first
    // insert wins — wasteful but correct, like the memo stores.
    dse::session_options opts;
    opts.memo_limit = memo_limit;
    auto fresh = std::make_shared<slot>(job_flow(job), opts);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = slots_.emplace(key, std::move(fresh));
    (void)inserted;
    return it->second;
}

std::size_t session_pool::sessions_created() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
}

bool run_job(channel& ch, const job_request& job, session_pool& pool,
             const serve_limits& limits, serve_stats* stats)
{
    std::shared_ptr<session_pool::slot> slot;
    try {
        // Strategy names degrade to per-point unsupported reports in a
        // local flow; a served job with an unknown name is a client
        // mistake and is refused whole instead of burning a sweep.
        if (strategy_registry::instance().synthesizer(job.synthesizer) == nullptr)
            throw error("unknown synthesizer strategy '" + job.synthesizer + "'");
        if (strategy_registry::instance().scheduler(job.scheduler) == nullptr)
            throw error("unknown scheduler strategy '" + job.scheduler + "'");
        slot = pool.acquire(job, limits.memo_limit);
    } catch (const std::exception& e) {
        if (stats) stats->rejects.fetch_add(1);
        ch.send(frame_type::reject, encode_reject(e.what()));
        return false;
    }

    std::lock_guard<std::mutex> run(slot->run);
    // Fault site: the connection dies mid-stream after the nth report.
    // The flag mutes every later frame (the evaluation itself finishes —
    // sinks must not throw into the executor) and run_job then raises a
    // plain error, not wire_error: the client_loop closes the socket
    // WITHOUT a reject frame, which is exactly what a crashed connection
    // looks like to the client — reconnect-and-retry territory, not
    // "job refused".
    bool dropped = false;
    dse::sink sk;
    sk.on_result = [&ch, &dropped](std::size_t index, const flow_report& r) {
        if (dropped) return;
        ch.send(frame_type::report, encode_report(index, metric_of(r)));
        if (fault_fire("serve.conn.drop")) dropped = true;
    };
    // limits.threads is the ceiling as well as the default: a job may
    // ask for fewer workers than the server allows, never for more.
    const int ceiling = limits.threads > 0
                            ? limits.threads
                            : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    const int threads = job.threads > 0 ? std::min(job.threads, ceiling) : ceiling;
    const dse::explore_summary sum = slot->session.explore(job.space, sk, threads);
    if (limits.allow_cache_save && !job.save_cache_path.empty())
        slot->session.save(job.save_cache_path);
    if (dropped) throw error("fault injected: connection dropped mid-stream");

    // Count the job before the done frame ships: a client holding its
    // summary must already see itself in the server's stats.
    if (stats) stats->jobs.fetch_add(1);
    ch.send(frame_type::done, encode_done(sum));
    return true;
}

void serve_connection(channel& ch, session_pool& pool, const serve_limits& limits,
                      serve_stats* stats)
{
    send_hello(ch);
    expect_hello(ch);
    while (const std::optional<channel::frame> f = ch.recv()) {
        if (f->type == frame_type::bye) return;
        if (f->type != frame_type::job)
            throw wire_error(std::string("protocol violation: expected job, got ") +
                             frame_type_name(f->type));
        run_job(ch, decode_job(f->payload), pool, limits, stats);
    }
}

// --------------------------------------------------------------- server

server::server(const server_options& opts) : opts_(opts)
{
    // A client vanishing mid-stream must degrade that connection only.
    // Socket sends already use MSG_NOSIGNAL (see channel::send_raw);
    // ignoring SIGPIPE process-wide is the belt to that suspender, and
    // what any process hosting a server wants anyway.
    std::signal(SIGPIPE, SIG_IGN);
    check(opts_.max_clients >= 1, "server max_clients must be >= 1");
    if (!opts_.socket_path.empty()) {
        if (opts_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path))
            throw error("unix socket path too long: " + opts_.socket_path);
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        check(listen_fd_ >= 0, "cannot create unix socket");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
                     sizeof addr.sun_path - 1);
        ::unlink(opts_.socket_path.c_str()); // a stale path from a dead server
        if (bind_with_retry(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            sizeof addr) != 0) {
            const std::string why = std::strerror(errno);
            ::close(listen_fd_);
            listen_fd_ = -1;
            throw error("cannot bind unix socket '" + opts_.socket_path + "': " + why);
        }
    } else if (opts_.port >= 0) {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        check(listen_fd_ >= 0, "cannot create TCP socket");
        const int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // never a public listener
        addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
        if (bind_with_retry(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            sizeof addr) != 0) {
            const std::string why = std::strerror(errno);
            ::close(listen_fd_);
            listen_fd_ = -1;
            throw error("cannot bind loopback port " + std::to_string(opts_.port) +
                        ": " + why);
        }
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
        port_ = static_cast<int>(ntohs(bound.sin_port));
    } else {
        throw error("server needs a unix socket path or a TCP port");
    }
    if (::listen(listen_fd_, 16) != 0) {
        const std::string why = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw error("cannot listen: " + why);
    }
}

server::~server() { stop(); }

void server::run() { accept_loop(); }

void server::start()
{
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void server::accept_loop()
{
    while (!stop_.load()) {
        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        // A short poll bounds the latency of noticing a stop request
        // (including one from a signal handler via request_stop()).
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (ready == 0) continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            break; // listener closed under us (stop())
        }
        if (opts_.client_timeout_ms > 0) {
            timeval tv{};
            tv.tv_sec = opts_.client_timeout_ms / 1000;
            tv.tv_usec = (opts_.client_timeout_ms % 1000) * 1000;
            ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
            // The same bound on sends: a client that stops draining its
            // result stream times the connection out (wire_error in the
            // serving thread) instead of blocking it forever.
            ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
        }
        reap_finished_clients();
        std::size_t active = 0;
        {
            std::lock_guard<std::mutex> lock(clients_mutex_);
            active = client_slots_.size();
        }
        if (active >= static_cast<std::size_t>(opts_.max_clients)) {
            // Back-pressure, loudly: a bounded thread pool that answers
            // "at capacity" beats one thread per connection silently
            // accumulating until the host keels over.
            overloaded_.fetch_add(1);
            channel ch(fd, fd);
            try {
                send_hello(ch);
                ch.send(frame_type::reject,
                        encode_reject("server at capacity (" +
                                      std::to_string(opts_.max_clients) +
                                      " clients); retry later"));
                // Drain until the peer closes (bounded by a short recv
                // timeout, since this runs on the accept thread):
                // closing a TCP socket with unread incoming bytes
                // raises RST, which could destroy the reject before the
                // client reads it.
                timeval tv{};
                tv.tv_sec = 1;
                ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
                while (ch.recv()) {
                }
            } catch (...) {
            }
            continue; // ch closes the socket
        }
        clients_.fetch_add(1);
        auto done = std::make_shared<std::atomic<bool>>(false);
        std::lock_guard<std::mutex> lock(clients_mutex_);
        client_fds_.insert(fd);
        client_slots_.push_back(
            {std::thread([this, fd, done] { client_loop(fd, done); }), done});
    }
}

void server::client_loop(int fd, const std::shared_ptr<std::atomic<bool>>& done)
{
    channel ch(fd, fd);
    try {
        serve_connection(ch, pool_, opts_.limits, &serve_stats_);
    } catch (const wire_error& e) {
        // One bad client must not take the process down: answer with a
        // best-effort reject (the peer may already be gone) and close
        // only this connection.
        protocol_errors_.fetch_add(1);
        try {
            ch.send(frame_type::reject, encode_reject(e.what()));
        } catch (...) {
        }
    } catch (const std::exception&) {
        protocol_errors_.fetch_add(1);
    }
    {
        // Deregister and close under the lock so stop() never shuts
        // down a recycled descriptor.
        std::lock_guard<std::mutex> lock(clients_mutex_);
        client_fds_.erase(fd);
        ch.close();
    }
    // Last act, after every lock is released: a true flag tells the
    // reaper this thread can be joined without blocking.
    done->store(true);
}

void server::reap_finished_clients()
{
    std::lock_guard<std::mutex> lock(clients_mutex_);
    std::vector<client_slot> live;
    live.reserve(client_slots_.size());
    for (client_slot& c : client_slots_) {
        if (c.done->load()) {
            if (c.thread.joinable()) c.thread.join();
        } else {
            live.push_back(std::move(c));
        }
    }
    client_slots_ = std::move(live);
}

void server::stop()
{
    if (stopped_) return;
    stopped_ = true;
    stop_.store(true);
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    {
        // Wake clients blocked in recv() so their threads can finish.
        std::lock_guard<std::mutex> lock(clients_mutex_);
        for (const int fd : client_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    // client_slots_ only grows under clients_mutex_ from the accept
    // loop, which is already joined — safe to walk unlocked.
    for (client_slot& c : client_slots_) {
        if (c.thread.joinable()) c.thread.join();
    }
    client_slots_.clear();
    if (!opts_.socket_path.empty()) ::unlink(opts_.socket_path.c_str());
}

server::stats_snapshot server::stats() const
{
    stats_snapshot s;
    s.clients = clients_.load();
    s.jobs = serve_stats_.jobs.load();
    s.rejects = serve_stats_.rejects.load();
    s.protocol_errors = protocol_errors_.load();
    s.overloaded = overloaded_.load();
    s.sessions = pool_.sessions_created();
    return s;
}

} // namespace phls::serve
