#include "serve/wire.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "cdfg/textio.h"
#include "library/library.h"
#include "support/codec.h"
#include "support/faultpoints.h"
#include "support/strings.h"

namespace phls::serve {

namespace {

// "PHLS" when the four bytes are written little-endian.
constexpr std::uint32_t frame_magic = 0x534C4850u;
// Frames larger than this are rejected before allocation: no real
// payload (the largest is a job carrying a materialised point list)
// comes close, so a bigger length is garbage, not data.
constexpr std::uint32_t max_payload = 1u << 30;
constexpr std::size_t header_size = 4 + 1 + 4; // magic + type + length
constexpr std::size_t checksum_size = 8;

bool known_frame_type(std::uint8_t t)
{
    return t >= static_cast<std::uint8_t>(frame_type::hello) &&
           t <= static_cast<std::uint8_t>(frame_type::bye);
}

/// Decodes a whole payload with `body`, which must consume every byte.
/// A codec failure becomes the wire_error every caller of the wire
/// handles, worded "malformed frame: ...".
template <class Decode>
auto decode_payload(const std::string& payload, Decode body)
{
    try {
        byte_reader r(payload);
        auto decoded = body(r);
        r.expect_end();
        return decoded;
    } catch (const decode_error& e) {
        throw wire_error(std::string("malformed frame: ") + e.what());
    }
}

void put_point(byte_writer& w, const front_point& p)
{
    w.u64(p.index);
    w.i32(p.latency_bound);
    w.f64(p.cap);
    w.f64(p.area);
    w.f64(p.peak);
    w.i32(p.latency);
    w.boolean(p.has_lifetime);
    w.f64(p.lifetime_seconds);
}

front_point get_point(byte_reader& r)
{
    front_point p;
    p.index = static_cast<std::size_t>(r.u64());
    p.latency_bound = r.i32();
    p.cap = r.f64();
    p.area = r.f64();
    p.peak = r.f64();
    p.latency = r.i32();
    p.has_lifetime = r.boolean();
    p.lifetime_seconds = r.f64();
    return p;
}

void put_points(byte_writer& w, const std::vector<front_point>& points)
{
    w.u32(static_cast<std::uint32_t>(points.size()));
    for (const front_point& p : points) put_point(w, p);
}

std::vector<front_point> get_points(byte_reader& r)
{
    // Each point costs >= 40 payload bytes.
    const std::size_t n = r.count(40, "point count");
    std::vector<front_point> points;
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) points.push_back(get_point(r));
    return points;
}

// Space payload: a list ships its points, a lattice its axes (plus the
// adaptive flag, so a refine() space survives the round trip as one).
constexpr std::uint8_t space_kind_list = 0;
constexpr std::uint8_t space_kind_lattice = 1;

void put_space(byte_writer& w, const dse::space& s)
{
    if (s.is_lattice()) {
        w.u8(space_kind_lattice);
        w.boolean(s.adaptive());
        const std::vector<int>& ts = s.latencies();
        const std::vector<double>& ps = s.caps();
        w.u32(static_cast<std::uint32_t>(ts.size()));
        for (const int t : ts) w.i32(t);
        w.u32(static_cast<std::uint32_t>(ps.size()));
        for (const double p : ps) w.f64(p);
        return;
    }
    // Lists and concatenations travel as an explicit point vector (a
    // concat of lazy lattices is materialised -- the wire cannot carry
    // an arbitrary composition tree, and jobs are finite by definition).
    w.u8(space_kind_list);
    const std::vector<synthesis_constraints> points = s.materialize();
    w.u32(static_cast<std::uint32_t>(points.size()));
    for (const synthesis_constraints& c : points) {
        w.i32(c.latency);
        w.f64(c.max_power);
    }
}

dse::space get_space(byte_reader& r)
{
    const std::uint8_t kind = r.u8();
    if (kind == space_kind_list) {
        const std::size_t n = r.count(12, "space point count");
        std::vector<synthesis_constraints> points;
        points.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            synthesis_constraints c;
            c.latency = r.i32();
            c.max_power = r.f64();
            points.push_back(c);
        }
        return dse::list(std::move(points));
    }
    if (kind == space_kind_lattice) {
        const bool adaptive = r.boolean();
        const std::size_t nt = r.count(4, "latency axis");
        std::vector<int> ts;
        ts.reserve(nt);
        for (std::size_t i = 0; i < nt; ++i) ts.push_back(r.i32());
        const std::size_t np = r.count(8, "cap axis");
        std::vector<double> ps;
        ps.reserve(np);
        for (std::size_t i = 0; i < np; ++i) ps.push_back(r.f64());
        if (ts.empty() || ps.empty()) throw decode_error("empty lattice axis");
        return adaptive ? dse::refine(std::move(ts), std::move(ps))
                        : dse::cross(std::move(ts), std::move(ps));
    }
    throw decode_error("unknown space kind " + std::to_string(kind));
}

} // namespace

const char* frame_type_name(frame_type t)
{
    switch (t) {
    case frame_type::hello: return "hello";
    case frame_type::job: return "job";
    case frame_type::report: return "report";
    case frame_type::front: return "front";
    case frame_type::done: return "done";
    case frame_type::reject: return "reject";
    case frame_type::bye: return "bye";
    }
    return "unknown";
}

// -------------------------------------------------------------- framing

std::string encode_frame(frame_type t, const std::string& payload)
{
    check(payload.size() <= max_payload, "wire payload too large");
    byte_writer w;
    w.u32(frame_magic);
    w.u8(static_cast<std::uint8_t>(t));
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.raw(payload);
    w.u64(fnv1a(payload));
    return w.take();
}

channel::channel(int read_fd, int write_fd) : read_fd_(read_fd), write_fd_(write_fd) {}

channel::channel(channel&& other) noexcept
    : read_fd_(other.read_fd_), write_fd_(other.write_fd_),
      send_is_socket_(other.send_is_socket_)
{
    other.read_fd_ = -1;
    other.write_fd_ = -1;
    other.send_is_socket_ = -1;
}

channel& channel::operator=(channel&& other) noexcept
{
    if (this != &other) {
        close();
        read_fd_ = other.read_fd_;
        write_fd_ = other.write_fd_;
        send_is_socket_ = other.send_is_socket_;
        other.read_fd_ = -1;
        other.write_fd_ = -1;
        other.send_is_socket_ = -1;
    }
    return *this;
}

channel::~channel() { close(); }

void channel::close()
{
    if (read_fd_ >= 0) ::close(read_fd_);
    if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
    read_fd_ = -1;
    write_fd_ = -1;
}

void channel::send_raw(const std::string& bytes)
{
    if (write_fd_ < 0) throw wire_error("send on a closed channel");
    if (fault_fire("wire.send.fail"))
        throw wire_error("fault injected: wire send failed");
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        ssize_t n;
        if (send_is_socket_ != 0) {
            // MSG_NOSIGNAL turns a vanished socket peer into EPIPE
            // instead of a process-killing SIGPIPE; pipes answer
            // ENOTSOCK once and fall back to ::write permanently.
            n = ::send(write_fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
            if (n < 0 && errno == ENOTSOCK) {
                send_is_socket_ = 0;
                continue;
            }
            if (send_is_socket_ < 0 && n >= 0) send_is_socket_ = 1;
        } else {
            n = ::write(write_fd_, bytes.data() + sent, bytes.size() - sent);
        }
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                throw wire_error("wire send timed out");
            if (errno == EPIPE)
                throw wire_error("wire send failed: peer closed the connection");
            throw wire_error(std::string("wire send failed: ") + std::strerror(errno));
        }
        sent += static_cast<std::size_t>(n);
    }
}

void channel::send(frame_type t, const std::string& payload)
{
    const std::string frame = encode_frame(t, payload);
    // Fault site: the peer observes EOF mid-payload — the "worker died
    // half-way through a frame" transport failure.
    if (fault_fire("wire.send.truncate")) {
        send_raw(frame.substr(0, frame.size() / 2));
        close();
        throw wire_error("fault injected: frame truncated mid-send");
    }
    send_raw(frame);
}

namespace {

/// Reads exactly `n` bytes into `out`.  Returns the bytes read, which is
/// short only at EOF; throws wire_error on errors and timeouts.
std::size_t read_exact(int fd, std::string& out, std::size_t n)
{
    out.resize(n);
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, out.data() + got, n - got);
        if (r < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                throw wire_error("wire receive timed out");
            throw wire_error(std::string("wire receive failed: ") +
                             std::strerror(errno));
        }
        if (r == 0) break; // EOF
        got += static_cast<std::size_t>(r);
    }
    out.resize(got);
    return got;
}

} // namespace

std::optional<channel::frame> channel::recv()
{
    if (read_fd_ < 0) throw wire_error("receive on a closed channel");
    if (fault_fire("wire.recv.fail"))
        throw wire_error("fault injected: wire receive failed");
    std::string header;
    const std::size_t got = read_exact(read_fd_, header, header_size);
    if (got == 0) return std::nullopt; // clean EOF at a frame boundary
    if (got < header_size) throw wire_error("truncated frame: EOF inside the header");

    byte_reader h(header);
    if (h.u32() != frame_magic) throw wire_error("malformed frame: bad magic");
    const std::uint8_t type = h.u8();
    if (!known_frame_type(type))
        throw wire_error("malformed frame: unknown type " + std::to_string(type));
    const std::uint32_t length = h.u32();
    if (length > max_payload)
        throw wire_error("malformed frame: declared payload of " +
                         std::to_string(length) + " bytes");

    std::string body;
    if (read_exact(read_fd_, body, length + checksum_size) != length + checksum_size)
        throw wire_error("truncated frame: EOF inside the payload");
    const std::uint64_t checksum = byte_reader(std::string_view(body).substr(length)).u64();
    body.resize(length);
    if (checksum != fnv1a(body)) throw wire_error("malformed frame: checksum mismatch");
    frame f;
    f.type = static_cast<frame_type>(type);
    f.payload = std::move(body);
    return f;
}

void send_hello(channel& ch)
{
    ch.send(frame_type::hello, encode_hello(wire_protocol_version));
}

std::uint32_t expect_hello(channel& ch)
{
    const std::optional<channel::frame> f = ch.recv();
    if (!f) throw wire_error("peer closed the connection before the handshake");
    if (f->type != frame_type::hello)
        throw wire_error(std::string("protocol violation: expected hello, got ") +
                         frame_type_name(f->type));
    const std::uint32_t version = decode_hello(f->payload);
    if (version != wire_protocol_version)
        throw wire_error("protocol version mismatch: peer speaks v" +
                         std::to_string(version) + ", this build speaks v" +
                         std::to_string(wire_protocol_version));
    return version;
}

// ------------------------------------------------------------- payloads

std::string encode_hello(std::uint32_t version)
{
    byte_writer w;
    w.u32(version);
    return w.take();
}

std::uint32_t decode_hello(const std::string& payload)
{
    return decode_payload(payload, [](byte_reader& r) { return r.u32(); });
}

job_request make_job(const flow& prototype, const dse::space& s)
{
    job_request job;
    job.graph_text = write_cdfg_string(prototype.design());
    job.library_text = write_library_string(prototype.library());
    job.synthesizer = prototype.synthesizer_name();
    job.scheduler = prototype.scheduler_name();
    job.options = prototype.synthesis_opts();
    job.exact = prototype.exact_opts();
    job.want_netlist = prototype.wants_netlist();
    job.want_lifetime = prototype.wants_lifetime();
    job.lifetime = prototype.lifetime();
    job.space = s;
    return job;
}

flow job_flow(const job_request& job)
{
    flow f = flow::on(parse_cdfg_string(job.graph_text));
    f.with_library(parse_library_string(job.library_text));
    f.synthesizer(job.synthesizer);
    f.scheduler(job.scheduler);
    f.options(job.options);
    f.exact_budget(job.exact);
    if (job.want_netlist) f.emit_netlist();
    if (job.want_lifetime) f.estimate_lifetime(job.lifetime);
    return f;
}

std::string encode_job(const job_request& job)
{
    byte_writer w;
    w.str(job.graph_text);
    w.str(job.library_text);
    put_flow_config(w, job.synthesizer, job.scheduler, job.options, job.exact,
                    job.want_netlist, job.want_lifetime, job.lifetime);
    put_space(w, job.space);
    w.i32(job.threads);
    w.str(job.save_cache_path);
    return w.take();
}

job_request decode_job(const std::string& payload)
{
    return decode_payload(payload, [](byte_reader& r) {
        job_request job;
        job.graph_text = r.str();
        job.library_text = r.str();
        job.synthesizer = r.str();
        job.scheduler = r.str();
        synthesis_options& o = job.options;
        const std::uint8_t policy = r.u8();
        if (policy > static_cast<std::uint8_t>(prospect_policy::cheapest_fit))
            throw decode_error("unknown prospect policy " + std::to_string(policy));
        o.policy = static_cast<prospect_policy>(policy);
        o.try_both_prospects = r.boolean();
        const std::uint8_t order = r.u8();
        if (order > static_cast<std::uint8_t>(pasap_order::critical_path))
            throw decode_error("unknown pasap order " + std::to_string(order));
        o.order = static_cast<pasap_order>(order);
        o.costs.register_area = r.f64();
        o.costs.mux_area_per_extra_input = r.f64();
        o.costs.include_interconnect = r.boolean();
        o.enable_backtrack_lock = r.boolean();
        o.lock_from_start = r.boolean();
        o.allow_cheapest_rebind = r.boolean();
        o.verify_result = r.boolean();
        o.max_merge_attempts = r.i32();
        exact_options& e = job.exact;
        e.max_operations = r.i32();
        e.node_limit = static_cast<long>(r.i64());
        e.costs.register_area = r.f64();
        e.costs.mux_area_per_extra_input = r.f64();
        e.costs.include_interconnect = r.boolean();
        job.want_netlist = r.boolean();
        job.want_lifetime = r.boolean();
        lifetime_spec& l = job.lifetime;
        l.voltage = r.f64();
        l.cycle_seconds = r.f64();
        l.idle_cycles = r.i32();
        l.beta = r.f64();
        l.alpha = r.f64();
        l.max_seconds = r.f64();
        job.space = get_space(r);
        job.threads = r.i32();
        job.save_cache_path = r.str();
        return job;
    });
}

std::string encode_report(std::uint64_t index, const metric_record& metrics)
{
    byte_writer w;
    w.u64(index);
    put_metric_record(w, metrics);
    return w.take();
}

report_frame decode_report(const std::string& payload)
{
    return decode_payload(payload, [](byte_reader& r) {
        report_frame f;
        f.index = r.u64();
        f.metrics = get_metric_record(r);
        return f;
    });
}

std::string encode_front(const front_delta& delta)
{
    byte_writer w;
    w.u64(delta.index);
    put_points(w, delta.entered);
    put_points(w, delta.left);
    return w.take();
}

front_delta decode_front(const std::string& payload)
{
    return decode_payload(payload, [](byte_reader& r) {
        front_delta delta;
        delta.index = static_cast<std::size_t>(r.u64());
        delta.entered = get_points(r);
        delta.left = get_points(r);
        return delta;
    });
}

std::string encode_done(const done_frame& done)
{
    byte_writer w;
    w.u64(done.space_size);
    w.u64(done.evaluated);
    w.u64(done.feasible);
    w.u64(done.metric_served);
    w.i64(done.counters.hits);
    w.i64(done.counters.misses);
    w.i64(done.counters.committed_hits);
    w.i64(done.counters.committed_misses);
    w.i64(done.counters.report_hits);
    w.i64(done.counters.report_misses);
    w.i64(done.counters.metric_hits);
    put_points(w, done.front);
    return w.take();
}

done_frame decode_done(const std::string& payload)
{
    return decode_payload(payload, [](byte_reader& r) {
        done_frame done;
        done.space_size = r.u64();
        done.evaluated = r.u64();
        done.feasible = r.u64();
        done.metric_served = r.u64();
        done.counters.hits = static_cast<long>(r.i64());
        done.counters.misses = static_cast<long>(r.i64());
        done.counters.committed_hits = static_cast<long>(r.i64());
        done.counters.committed_misses = static_cast<long>(r.i64());
        done.counters.report_hits = static_cast<long>(r.i64());
        done.counters.report_misses = static_cast<long>(r.i64());
        done.counters.metric_hits = static_cast<long>(r.i64());
        done.front = get_points(r);
        return done;
    });
}

std::string encode_reject(const std::string& message)
{
    byte_writer w;
    w.str(message);
    return w.take();
}

reject_frame decode_reject(const std::string& payload)
{
    return decode_payload(payload, [](byte_reader& r) { return reject_frame{r.str()}; });
}

} // namespace phls::serve
