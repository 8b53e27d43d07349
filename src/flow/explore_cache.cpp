#include "flow/explore_cache.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <list>
#include <sstream>
#include <vector>

#include "cdfg/textio.h"
#include "flow/flow.h"
#include "support/codec.h"
#include "support/errors.h"
#include "support/faultpoints.h"
#include "support/strings.h"

namespace phls {

namespace {

/// Validates the problem before any derived structure is built, so a
/// malformed graph fails with the validate() diagnostic.
const graph& checked(const graph& g, const module_library& lib)
{
    g.validate();
    lib.check_covers(g);
    return g;
}

/// The metric projection stored beside every report-memo entry.
metric_record project(const flow_report& r)
{
    metric_record m;
    m.st = r.st;
    m.strategy = r.strategy;
    m.constraints = r.constraints;
    m.has_design = r.has_design;
    m.optimal = r.optimal;
    m.note = r.note;
    m.area = r.area;
    m.peak = r.peak;
    m.latency = r.latency;
    m.has_lifetime = r.has_lifetime;
    m.lifetime_seconds = r.lifetime_seconds;
    m.battery_alpha = r.battery_alpha;
    return m;
}

/// Cache files.  Version 4 holds the (graph, library) identity and the
/// metric records only; a file of any other version is rejected as
/// `version_mismatch`.
const checksummed_format cache_file_format{
    .magic = "phls-explore-cache",
    .version = 4,
    .sites = "cache",
    .noun = "cache file",
    .header = "cache-file header",
    .foreign = "not a phls cache file",
    .temporary = "temporary file",
};

/// The problem identity and the metric records, in file order.
struct parsed_cache_file {
    std::string graph_text;
    std::string lib_text;
    std::vector<std::pair<std::string, metric_record>> metrics;
};

/// Atomically writes one cache file holding `records`, (fingerprint,
/// metric record) pairs.
template <class Records>
void write_cache_file(const std::string& path, const std::string& graph_text,
                      const std::string& lib_text, const Records& records)
{
    byte_writer w;
    w.str(graph_text);
    w.str(lib_text);
    w.u32(static_cast<std::uint32_t>(records.size()));
    for (const auto& [fp, m] : records) {
        w.str(fp);
        put_metric_record(w, m);
    }
    write_checksummed_file(path, cache_file_format, w.bytes());
}

/// Reads and fully validates one cache file, classifying every way it
/// can be unusable (see cache_file_error::failure).  The identity check
/// against a particular (graph, library) is the caller's.
parsed_cache_file parse_cache_file(const std::string& path)
{
    // The smallest record: an empty fingerprint and a metric record
    // with empty strings.
    static const std::size_t min_record_bytes = [] {
        byte_writer w;
        w.str("");
        put_metric_record(w, metric_record{});
        return w.bytes().size();
    }();
    parsed_cache_file parsed;
    read_checksummed_file(path, cache_file_format, [&](byte_reader& r) {
        parsed.graph_text = r.str();
        parsed.lib_text = r.str();
        const std::size_t n = r.count(min_record_bytes, "record count");
        parsed.metrics.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            std::string fp = r.str();
            parsed.metrics.emplace_back(std::move(fp), get_metric_record(r));
        }
    });
    return parsed;
}

} // namespace

cache_file_error::cache_file_error(failure kind, std::string path,
                                   const std::string& detail)
    : error("cache file '" + path + "': " + detail + " [" + kind_name(kind) + "]"),
      kind_(kind), path_(std::move(path))
{
}

const char* cache_file_error::kind_name(failure kind)
{
    switch (kind) {
    case failure::missing: return "missing";
    case failure::truncated: return "truncated";
    case failure::corrupt: return "corrupt";
    case failure::version_mismatch: return "version-mismatch";
    case failure::problem_mismatch: return "problem-mismatch";
    case failure::io: return "io";
    }
    return "unknown";
}

void write_checksummed_file(const std::string& path, const checksummed_format& format,
                            std::string_view body)
{
    using failure = cache_file_error::failure;
    const std::string sites = format.sites;
    byte_writer w;
    w.u64(std::string_view(format.magic).size());
    w.raw(format.magic);
    w.i64(format.version);
    w.i64(static_cast<std::int64_t>(body.size()));
    w.raw(body);
    w.u64(fnv1a(body));
    std::string bytes = w.take();

    // Fault site: silent on-disk corruption — a body byte flipped after
    // the checksum was computed, so the save "succeeds" but every later
    // load rejects the file as corrupt instead of misreading it.
    if (fault_fire((sites + ".save.corrupt").c_str()) && !body.empty())
        bytes[bytes.size() - 8 - body.size() + body.size() / 2] ^= 0x40;

    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw cache_file_error(failure::io, path, std::string("cannot write ") +
                                                          format.temporary + " '" + tmp + "'");
        // Fault site: a crash halfway through the temporary file.  The
        // rename below never runs, so `path` keeps its previous complete
        // contents — this is the atomicity the tmp+rename scheme buys.
        if (fault_fire((sites + ".save.tear").c_str())) {
            os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
            os.flush();
            throw cache_file_error(failure::io, path,
                                   "fault injected: crash during " + sites + " save");
        }
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        os.flush();
        if (!os) {
            os.close();
            std::remove(tmp.c_str());
            throw cache_file_error(failure::io, path, std::string("failed writing ") +
                                                          format.temporary + " '" + tmp + "'");
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw cache_file_error(failure::io, path, "cannot rename '" + tmp + "' into place");
    }
}

void read_checksummed_file(const std::string& path, const checksummed_format& format,
                           const std::function<void(byte_reader&)>& decode)
{
    using failure = cache_file_error::failure;

    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw cache_file_error(failure::missing, path, std::string("cannot open ") + format.noun);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    std::string content = buffer.str();

    // Fault site: in-memory corruption of what was read — exercises the
    // checksum rejection without touching the on-disk file.
    if (fault_fire((std::string(format.sites) + ".load.corrupt").c_str()) && !content.empty())
        content[content.size() / 2] ^= 0x40;

    // Header: magic, version and the declared body length are outside
    // the checksum, so they classify a damaged file precisely.  A header
    // field cut off by the end of the file is `truncated`.
    byte_reader header(content);
    const auto header_field = [&](auto read) {
        try {
            return read();
        } catch (const decode_error&) {
            throw cache_file_error(failure::truncated, path,
                                   std::string("shorter than the ") + format.header);
        }
    };
    const std::string_view magic = header_field([&] { return header.raw(header.u64()); });
    if (magic != format.magic) throw cache_file_error(failure::corrupt, path, format.foreign);
    const std::int64_t version = header_field([&] { return header.i64(); });
    const std::int64_t body_size = header_field([&] { return header.i64(); });
    if (version != format.version)
        throw cache_file_error(failure::version_mismatch, path,
                               "format version " + std::to_string(version) +
                                   " (this build reads version " +
                                   std::to_string(format.version) + ")");
    if (body_size < 0)
        throw cache_file_error(failure::corrupt, path, "negative body length");
    const std::size_t body_bytes = static_cast<std::size_t>(body_size);
    if (header.remaining() < body_bytes + sizeof(std::uint64_t))
        throw cache_file_error(failure::truncated, path,
                               "body cut short (declared " +
                                   std::to_string(body_bytes) + " bytes, " +
                                   std::to_string(header.remaining()) + " remain)");
    if (header.remaining() > body_bytes + sizeof(std::uint64_t))
        throw cache_file_error(failure::corrupt, path, "trailing bytes after the body");
    const std::string_view body = header.raw(body_bytes);
    if (header.u64() != fnv1a(body))
        throw cache_file_error(failure::corrupt, path, "checksum mismatch");

    // The checksum held, so any decode failure below is real corruption
    // (or an encoder bug), never mere truncation.
    try {
        byte_reader r(body);
        decode(r);
        if (r.remaining() != 0) throw decode_error("trailing bytes inside the body");
    } catch (const error& e) {
        throw cache_file_error(failure::corrupt, path, e.what());
    }
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

flow_report metric_report(const metric_record& m)
{
    flow_report r;
    r.st = m.st;
    r.strategy = m.strategy;
    r.constraints = m.constraints;
    r.has_design = m.has_design;
    r.optimal = m.optimal;
    r.note = m.note;
    r.area = m.area;
    r.peak = m.peak;
    r.latency = m.latency;
    r.has_lifetime = m.has_lifetime;
    r.lifetime_seconds = m.lifetime_seconds;
    r.battery_alpha = m.battery_alpha;
    return r;
}

metric_record metric_of(const flow_report& r) { return project(r); }

void restamp_point(flow_report& r, const graph& g, const synthesis_constraints& c)
{
    r.constraints = c;
    r.dp.name = design_name(g, c);
    if (r.has_netlist) r.nl.design_name = r.dp.name;
}

/// The report memo.  Lives behind a pimpl so explore_cache.h does not
/// pull in flow.h (the flow layer sits above this one).  It has its own
/// lock, held only to find, insert or unlink an entry: reports are
/// shared and immutable, so a lookup copies the pointer under the lock
/// and the report (datapath, netlist, note strings) outside it, and
/// workers queued on the shared mutex_ for the invariants never wait
/// for either.
///
/// Every entry carries the metric projection of its report at the
/// entry's own point; the report itself is optional — LRU eviction
/// under a configured capacity and cache-file loads leave metric-only
/// entries behind, which keep serving metric_lookup() while
/// report_lookup() falls through to a recompute.
struct explore_cache::report_memo {
    struct entry {
        /// null = metric-only entry.  Possibly shared with the interval
        /// table and computed at another point of its span.
        std::shared_ptr<const flow_report> full;
        metric_record metrics; ///< at the point this entry answers for
        /// Position in `lru`; meaningful only while `full` is held.
        std::list<const std::string*>::iterator lru_pos;
    };

    std::mutex mutex;
    /// Entries are never erased, so `lru` can point at their keys.
    std::map<std::string, entry> entries;
    std::list<const std::string*> lru; ///< keys holding reports; front = MRU
    std::size_t capacity = 0;   ///< max entries holding reports; 0 = unbounded
    std::size_t full_count = 0; ///< entries currently holding a report

    /// Drops least-recently-used reports, leaving their entries' metric
    /// records, until the capacity bound holds (with the lock held).
    void evict_over_capacity()
    {
        while (capacity > 0 && full_count > capacity) {
            entries.find(*lru.back())->second.full.reset();
            lru.pop_back();
            --full_count;
        }
    }
};

/// The interval table.  Per (fingerprint without the cap, bucket), the
/// stored spans are disjoint, so they are keyed by their lower end and
/// the one span that can hold a limit is the last starting at or below
/// it.  Reports are shared and immutable, so a lookup hands out the
/// pointer it copied under the lock.
struct explore_cache::interval_table {
    struct entry {
        cap_interval span;
        std::shared_ptr<const flow_report> report;
        std::list<std::pair<std::string, double>>::iterator lru_pos;
    };
    using spans = std::map<double, entry>; ///< by the span's lower end

    std::mutex mutex;
    std::map<std::string, spans> keys;
    /// (key, lower end) of every entry; front = MRU.
    std::list<std::pair<std::string, double>> lru;
    std::size_t capacity = 0; ///< max entries; 0 = unbounded

    /// The entry of `s` whose span holds `limit`, or s.end().
    static spans::iterator holding(spans& s, double limit)
    {
        auto it = s.upper_bound(limit);
        if (it == s.begin()) return s.end();
        --it;
        return it->second.span.contains(limit) ? it : s.end();
    }

    /// Drops least-recently-used entries until the bound holds (with
    /// the lock held).
    void evict_over_capacity()
    {
        while (capacity > 0 && lru.size() > capacity) {
            const auto victim = keys.find(lru.back().first);
            victim->second.erase(lru.back().second);
            if (victim->second.empty()) keys.erase(victim);
            lru.pop_back();
        }
    }
};

explore_cache::explore_cache(const graph& g, const module_library& lib)
    : g_(g), lib_(lib), reach_(checked(g_, lib_)),
      graph_text_(write_cdfg_string(g_)), lib_text_(write_library_string(lib_)),
      reports_(new report_memo), intervals_(new interval_table)
{
    misses_.store(1, std::memory_order_relaxed); // the eager reachability build

    kind_buckets_.assign(static_cast<std::size_t>(op_kind_count), {});
    for (node_id v : g_.node_ids())
        kind_buckets_[static_cast<std::size_t>(op_kind_index(g_.kind(v)))].push_back(v);

    for (const fu_module& m : lib_.modules()) power_levels_.push_back(m.power);
    std::sort(power_levels_.begin(), power_levels_.end());
    power_levels_.erase(std::unique(power_levels_.begin(), power_levels_.end()),
                        power_levels_.end());
}

explore_cache::~explore_cache() = default;

bool explore_cache::compatible(const graph& g, const module_library& lib) const
{
    return write_cdfg_string(g) == graph_text_ && write_library_string(lib) == lib_text_;
}

int explore_cache::bucket(double cap) const
{
    // Selection queries exclude a module iff m.power > cap, so the result
    // depends on cap only through the count of power levels <= cap.
    return static_cast<int>(
        std::upper_bound(power_levels_.begin(), power_levels_.end(), cap) -
        power_levels_.begin());
}

prospect_result explore_cache::prospect(prospect_policy policy, double cap) const
{
    const std::pair<int, int> key{static_cast<int>(policy), bucket(cap)};
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = prospects_.find(key);
        if (it != prospects_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    // Computed outside the lock; concurrent misses compute the same value.
    // The insert decides who counts the miss: exactly one racing thread
    // wins the emplace and counts it, every loser counts a hit, so the
    // counters are exact on multicore (hits + misses == lookups).
    prospect_result result = make_prospect(g_, lib_, policy, cap);
    if (result.ok) {
        const std::lock_guard<std::mutex> lock(mutex_);
        const bool inserted = prospects_.emplace(key, result).second;
        (inserted ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
    } else {
        // Failures are not memoised: their reason text embeds the exact
        // cap, which varies within one admissible-module bucket.  Every
        // failing computation is a genuine miss.
        misses_.fetch_add(1, std::memory_order_relaxed);
    }
    return result;
}

module_assignment explore_cache::fastest(double cap) const
{
    const int key = bucket(cap);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = fastest_.find(key);
        if (it != fastest_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    module_assignment result = fastest_assignment(g_, lib_, cap);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const bool inserted = fastest_.emplace(key, result).second;
        (inserted ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
    }
    return result;
}

bool explore_cache::report_lookup(const std::string& fingerprint, flow_report* out) const
{
    std::shared_ptr<const flow_report> full;
    synthesis_constraints point;
    {
        const std::lock_guard<std::mutex> lock(reports_->mutex);
        const auto it = reports_->entries.find(fingerprint);
        if (it == reports_->entries.end() || !it->second.full) return false;
        // Touch: a served report moves to the front of the eviction order.
        reports_->lru.splice(reports_->lru.begin(), reports_->lru, it->second.lru_pos);
        full = it->second.full;
        point = it->second.metrics.constraints;
    }
    report_hits_.fetch_add(1, std::memory_order_relaxed);
    *out = *full;
    // A span's report answering for another cap of the span.  Compared
    // bit for bit: an entry's own report carries its point's exact bits.
    if (full->constraints.latency != point.latency ||
        std::bit_cast<std::uint64_t>(full->constraints.max_power) !=
            std::bit_cast<std::uint64_t>(point.max_power))
        restamp_point(*out, g_, point);
    return true;
}

void explore_cache::report_store(const std::string& fingerprint,
                                 std::shared_ptr<const flow_report> report,
                                 const synthesis_constraints& point) const
{
    // Projected before taking the lock, so workers storing at once
    // queue only for the insert.
    metric_record metrics = project(*report);
    metrics.constraints = point;
    const std::lock_guard<std::mutex> lock(reports_->mutex);
    const auto [it, inserted] = reports_->entries.try_emplace(fingerprint);
    report_memo::entry& e = it->second;
    if (!inserted && e.full) {
        // A concurrent computation of the same key won the insert race;
        // this store is the loser and counts the hit.
        report_hits_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    // Fresh key, or a metric-only entry (evicted or loaded from a cache
    // file) whose report was genuinely recomputed: either way a real
    // computation happened, so it counts as the miss.
    e.full = std::move(report);
    e.metrics = std::move(metrics);
    reports_->lru.push_front(&it->first);
    e.lru_pos = reports_->lru.begin();
    ++reports_->full_count;
    report_misses_.fetch_add(1, std::memory_order_relaxed);
    reports_->evict_over_capacity();
}

void explore_cache::report_store(const std::string& fingerprint,
                                 const flow_report& report) const
{
    report_store(fingerprint, std::make_shared<const flow_report>(report), report.constraints);
}

bool explore_cache::metric_lookup(const std::string& fingerprint,
                                  metric_record* out) const
{
    const std::lock_guard<std::mutex> lock(reports_->mutex);
    const auto it = reports_->entries.find(fingerprint);
    if (it == reports_->entries.end()) return false;
    metric_hits_.fetch_add(1, std::memory_order_relaxed);
    *out = it->second.metrics;
    return true;
}

bool explore_cache::interval_lookup(const std::string& key, double cap,
                                    std::shared_ptr<const flow_report>* out) const
{
    const std::string full_key = interval_key(key, cap);
    {
        const std::lock_guard<std::mutex> lock(intervals_->mutex);
        const auto k = intervals_->keys.find(full_key);
        if (k == intervals_->keys.end()) return false;
        const auto it = interval_table::holding(k->second, cap_test(cap).limit());
        if (it == k->second.end()) return false;
        intervals_->lru.splice(intervals_->lru.begin(), intervals_->lru,
                               it->second.lru_pos);
        *out = it->second.report;
    }
    interval_served_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void explore_cache::interval_store(const std::string& key, double cap,
                                   const cap_interval& span,
                                   std::shared_ptr<const flow_report> report) const
{
    std::string full_key = interval_key(key, cap);
    const std::lock_guard<std::mutex> lock(intervals_->mutex);
    interval_table::spans& spans = intervals_->keys[full_key];
    if (interval_table::holding(spans, cap_test(cap).limit()) != spans.end()) {
        // A racing worker stored this span first.
        interval_served_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const auto [it, inserted] =
        spans.try_emplace(span.below, interval_table::entry{span, std::move(report), {}});
    if (!inserted) return;
    intervals_->lru.emplace_front(std::move(full_key), span.below);
    it->second.lru_pos = intervals_->lru.begin();
    intervals_->evict_over_capacity();
}

std::string explore_cache::interval_key(const std::string& key, double cap) const
{
    byte_writer full(key);
    full.i32(bucket(cap));
    return full.take();
}

std::size_t explore_cache::interval_size() const
{
    const std::lock_guard<std::mutex> lock(intervals_->mutex);
    return intervals_->lru.size();
}

void explore_cache::set_report_capacity(std::size_t max_full_reports)
{
    {
        const std::lock_guard<std::mutex> lock(reports_->mutex);
        reports_->capacity = max_full_reports;
        reports_->evict_over_capacity();
    }
    const std::lock_guard<std::mutex> lock(intervals_->mutex);
    intervals_->capacity = max_full_reports;
    intervals_->evict_over_capacity();
}

std::size_t explore_cache::report_capacity() const
{
    const std::lock_guard<std::mutex> lock(reports_->mutex);
    return reports_->capacity;
}

std::size_t explore_cache::report_full_size() const
{
    const std::lock_guard<std::mutex> lock(reports_->mutex);
    return reports_->full_count;
}

std::size_t explore_cache::report_metric_size() const
{
    const std::lock_guard<std::mutex> lock(reports_->mutex);
    return reports_->entries.size() - reports_->full_count;
}

void explore_cache::each_metric(
    const std::function<void(const std::string&, const metric_record&)>& fn) const
{
    // Snapshot under the lock, call back outside it: the visitor may
    // probe (or store into) this cache without deadlocking.  std::map
    // iteration makes the order the canonical fingerprint order.
    std::vector<std::pair<std::string, metric_record>> snapshot;
    {
        const std::lock_guard<std::mutex> lock(reports_->mutex);
        snapshot.reserve(reports_->entries.size());
        for (const auto& [fp, e] : reports_->entries)
            snapshot.emplace_back(fp, e.metrics);
    }
    for (const auto& [fp, m] : snapshot) fn(fp, m);
}

// ------------------------------------------------------------ persistence

std::size_t explore_cache::save(const std::string& path) const
{
    // Every entry's metric record: full datapaths and netlists are
    // deliberately not persisted — a warm start answers metric queries
    // instantly and recomputes designs on demand.
    std::vector<std::pair<std::string, metric_record>> metrics;
    {
        const std::lock_guard<std::mutex> lock(reports_->mutex);
        metrics.reserve(reports_->entries.size());
        for (const auto& [fp, e] : reports_->entries) metrics.emplace_back(fp, e.metrics);
    }
    write_cache_file(path, graph_text_, lib_text_, metrics);
    return metrics.size();
}

std::size_t explore_cache::load(const std::string& path)
{
    const parsed_cache_file parsed = parse_cache_file(path);
    if (parsed.graph_text != graph_text_ || parsed.lib_text != lib_text_)
        throw cache_file_error(cache_file_error::failure::problem_mismatch, path,
                               "saved for a different graph or library");

    std::size_t loaded = 0;
    const std::lock_guard<std::mutex> lock(reports_->mutex);
    for (const auto& [fp, m] : parsed.metrics) {
        // Existing entries win: a live full report is strictly more
        // informative than a loaded metric record.
        const auto [it, inserted] = reports_->entries.try_emplace(fp);
        if (!inserted) continue;
        it->second.metrics = m;
        ++loaded;
    }
    return loaded;
}

std::size_t explore_cache::merge(const std::string& path)
{
    // load() already has union semantics (present keys win, novel keys
    // insert); merge() is the documented name for doing that to a warm
    // cache.
    return load(path);
}

cache_merge_stats explore_cache::merge_files(const std::string& out,
                                             const std::vector<std::string>& inputs,
                                             bool skip_bad)
{
    check(!inputs.empty(), "cache merge needs at least one input file");

    cache_merge_stats stats;
    std::string graph_text;
    std::string lib_text;
    std::string identity_path; ///< the first good input, the problem anchor
    bool have_identity = false;
    // std::map keeps the merged records in sorted key order, the same
    // order save() writes, so merged files are deterministic whatever
    // the input order (only first-wins value choice depends on it).
    std::map<std::string, metric_record> metrics;

    for (std::size_t i = 0; i < inputs.size(); ++i) {
        cache_merge_stats::input in;
        in.path = inputs[i];
        try {
            const parsed_cache_file parsed = parse_cache_file(inputs[i]);
            if (!have_identity) {
                graph_text = parsed.graph_text;
                lib_text = parsed.lib_text;
                identity_path = inputs[i];
                have_identity = true;
            } else if (parsed.graph_text != graph_text ||
                       parsed.lib_text != lib_text) {
                throw cache_file_error(cache_file_error::failure::problem_mismatch,
                                       inputs[i],
                                       "saved for a different graph or library than '" +
                                           identity_path + "'");
            }
            in.metrics = parsed.metrics.size();
            for (const auto& [fp, m] : parsed.metrics)
                in.new_metrics += metrics.emplace(fp, m).second ? 1 : 0;
        } catch (const cache_file_error& e) {
            if (!skip_bad) throw;
            in.skipped = true;
            in.skip_reason = cache_file_error::kind_name(e.kind());
            ++stats.skipped_inputs;
        }
        stats.inputs.push_back(std::move(in));
    }
    // Every input bad is still an error — an empty merged file would
    // silently launder total data loss into a "successful" merge.
    check(have_identity, "cache merge: every input file was rejected");

    write_cache_file(out, graph_text, lib_text, metrics);
    stats.metric_total = metrics.size();
    return stats;
}

} // namespace phls
