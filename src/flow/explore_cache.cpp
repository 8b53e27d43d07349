#include "flow/explore_cache.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <list>
#include <sstream>
#include <vector>

#include "cdfg/textio.h"
#include "flow/flow.h"
#include "support/errors.h"
#include "support/faultpoints.h"
#include "support/memo_key.h"
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

/// Cache-file identity and integrity framing.  The header declares the
/// body length outside the checksum, so a torn tail is reported as
/// `truncated` while a flipped byte is `corrupt`.  Version 3 holds the
/// metric records only; a file of any other version is rejected as
/// `version_mismatch`.
constexpr const char* cache_file_magic = "phls-explore-cache";
constexpr long cache_file_version = 3;

/// The encoded size of a metric record with empty strings: ten
/// key_int fields (four of them string length prefixes) and five
/// doubles.  A declared record count larger than the body divided by
/// this cannot be genuine.
constexpr std::size_t min_metric_record_bytes = 10 * sizeof(long) + 5 * sizeof(double);

/// The problem identity and the metric records, in file order.
struct parsed_cache_file {
    std::string graph_text;
    std::string lib_text;
    std::vector<std::pair<std::string, metric_record>> metrics;
};

void append_metric_record(std::string& body, const std::string& fp,
                          const metric_record& m)
{
    key_str(body, fp);
    key_int(body, static_cast<long>(m.st.code));
    key_str(body, m.st.message);
    key_str(body, m.strategy);
    key_int(body, m.constraints.latency);
    key_double(body, m.constraints.max_power);
    key_int(body, m.has_design ? 1 : 0);
    key_int(body, m.optimal ? 1 : 0);
    key_str(body, m.note);
    key_double(body, m.area);
    key_double(body, m.peak);
    key_int(body, m.latency);
    key_int(body, m.has_lifetime ? 1 : 0);
    key_double(body, m.lifetime_seconds);
    key_double(body, m.battery_alpha);
}

/// Serialises and atomically writes one cache file: the bytes go to
/// `path + ".tmp"` in the same directory, then rename() — which POSIX
/// guarantees atomic — replaces `path`, so a reader (or a crash) never
/// sees a torn file.
void write_cache_file(const std::string& path, const std::string& graph_text,
                      const std::string& lib_text,
                      const std::vector<std::pair<std::string, metric_record>>& metrics)
{
    std::string body;
    key_str(body, graph_text);
    key_str(body, lib_text);
    key_int(body, static_cast<long>(metrics.size()));
    for (const auto& [fp, m] : metrics) append_metric_record(body, fp, m);

    std::string payload;
    key_str(payload, cache_file_magic);
    key_int(payload, cache_file_version);
    key_int(payload, static_cast<long>(body.size()));
    payload += body;
    // The checksum frame is a fixed 8-byte field on both sides (not
    // key_int, whose width is sizeof(long) and ABI-dependent).
    const std::uint64_t sum = fnv1a(body);
    char sum_bytes[sizeof sum];
    std::memcpy(sum_bytes, &sum, sizeof sum);
    payload.append(sum_bytes, sizeof sum);

    // Fault site: silent on-disk corruption — a body byte flipped after
    // the checksum was computed, so the save "succeeds" but every later
    // load rejects the file as corrupt instead of misreading it.
    if (fault_fire("cache.save.corrupt") && !body.empty()) {
        const std::size_t body_at = payload.size() - sizeof sum - body.size();
        payload[body_at + body.size() / 2] ^= 0x40;
    }

    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) throw cache_file_error(cache_file_error::failure::io, path,
                                        "cannot write temporary file '" + tmp + "'");
        // Fault site: a crash halfway through the temporary file.  The
        // rename below never runs, so `path` keeps its previous complete
        // contents — this is the atomicity the tmp+rename scheme buys.
        if (fault_fire("cache.save.tear")) {
            os.write(payload.data(), static_cast<std::streamsize>(payload.size() / 2));
            os.flush();
            throw cache_file_error(cache_file_error::failure::io, path,
                                   "fault injected: crash during cache save");
        }
        os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
        os.flush();
        if (!os) {
            os.close();
            std::remove(tmp.c_str());
            throw cache_file_error(cache_file_error::failure::io, path,
                                   "failed writing temporary file '" + tmp + "'");
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw cache_file_error(cache_file_error::failure::io, path,
                               "cannot rename '" + tmp + "' into place");
    }
}

/// Reads and fully validates one cache file, classifying every way it
/// can be unusable (see cache_file_error::failure).  The identity check
/// against a particular (graph, library) is the caller's.
parsed_cache_file parse_cache_file(const std::string& path)
{
    using failure = cache_file_error::failure;

    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw cache_file_error(failure::missing, path, "cannot open cache file");
    std::ostringstream buffer;
    buffer << is.rdbuf();
    std::string content = buffer.str();

    // Fault site: in-memory corruption of what was read — exercises the
    // checksum rejection without touching the on-disk file.
    if (fault_fire("cache.load.corrupt") && !content.empty())
        content[content.size() / 2] ^= 0x40;

    // Header: magic, version and the declared body length are outside
    // the checksum, so they classify a damaged file precisely.
    key_reader header(content);
    std::string magic;
    long version = 0;
    long body_size = 0;
    try {
        magic = header.read_str();
    } catch (const error&) {
        throw cache_file_error(failure::truncated, path,
                               "shorter than the cache-file header");
    }
    if (magic != cache_file_magic)
        throw cache_file_error(failure::corrupt, path, "not a phls cache file");
    try {
        version = header.read_int();
        body_size = header.read_int();
    } catch (const error&) {
        throw cache_file_error(failure::truncated, path,
                               "shorter than the cache-file header");
    }
    if (version != cache_file_version)
        throw cache_file_error(failure::version_mismatch, path,
                               "format version " + std::to_string(version) +
                                   " (this build reads version " +
                                   std::to_string(cache_file_version) + ")");
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

    const std::string body =
        content.substr(content.size() - header.remaining(), body_bytes);
    std::uint64_t stored_sum = 0;
    std::memcpy(&stored_sum, content.data() + content.size() - sizeof stored_sum,
                sizeof stored_sum);
    if (stored_sum != fnv1a(body))
        throw cache_file_error(failure::corrupt, path, "checksum mismatch");

    // The checksum held, so any decode failure below is real corruption
    // (or an encoder bug), never mere truncation.
    try {
        parsed_cache_file parsed;
        key_reader r(body);
        parsed.graph_text = r.read_str();
        parsed.lib_text = r.read_str();
        const std::size_t n_metrics = r.read_count(min_metric_record_bytes);
        parsed.metrics.reserve(n_metrics);
        for (std::size_t i = 0; i < n_metrics; ++i) {
            std::string fp = r.read_str();
            metric_record m;
            m.st.code = static_cast<status_code>(r.read_int());
            m.st.message = r.read_str();
            m.strategy = r.read_str();
            m.constraints.latency = static_cast<int>(r.read_int());
            m.constraints.max_power = r.read_double();
            m.has_design = r.read_int() != 0;
            m.optimal = r.read_int() != 0;
            m.note = r.read_str();
            m.area = r.read_double();
            m.peak = r.read_double();
            m.latency = static_cast<int>(r.read_int());
            m.has_lifetime = r.read_int() != 0;
            m.lifetime_seconds = r.read_double();
            m.battery_alpha = r.read_double();
            parsed.metrics.emplace_back(std::move(fp), std::move(m));
        }
        check(r.remaining() == 0, "trailing bytes inside the body");
        return parsed;
    } catch (const cache_file_error&) {
        throw;
    } catch (const error& e) {
        throw cache_file_error(failure::corrupt, path, e.what());
    }
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

/// The report memo.  Lives behind a pimpl so explore_cache.h does not
/// pull in flow.h (the flow layer sits above this one).  It has its own
/// lock: copying a whole flow_report (datapath, netlist, note strings)
/// in or out is far heavier than the invariant lookups, and must not
/// stall workers queued on the shared mutex_ for those.
///
/// Every entry carries the metric projection of its report; the full
/// report itself is optional — LRU eviction under a configured capacity
/// and cache-file loads leave metric-only entries behind, which keep
/// serving metric_lookup() while report_lookup() falls through to a
/// recompute.
struct explore_cache::report_memo {
    struct entry {
        std::unique_ptr<flow_report> full; ///< null = metric-only entry
        metric_record metrics;
        /// Position in `lru`; meaningful only while `full` is held.
        std::list<std::string>::iterator lru_pos;
    };

    std::mutex mutex;
    std::map<std::string, entry> entries;
    std::list<std::string> lru; ///< keys holding full reports; front = MRU
    std::size_t capacity = 0;   ///< max full reports; 0 = unbounded
    std::size_t full_count = 0; ///< entries currently holding a full report

    /// Installs `full` as `it`'s full report and makes it MRU.
    void install(std::map<std::string, entry>::iterator it, std::unique_ptr<flow_report> full)
    {
        it->second.metrics = project(*full);
        it->second.full = std::move(full);
        lru.push_front(it->first);
        it->second.lru_pos = lru.begin();
        ++full_count;
    }

    /// Drops least-recently-used full reports down to their metric
    /// records until the capacity bound holds (with the lock held).
    void evict_over_capacity()
    {
        while (capacity > 0 && full_count > capacity) {
            const auto victim = entries.find(lru.back());
            victim->second.full.reset();
            lru.pop_back();
            --full_count;
        }
    }
};

/// The interval table.  Per (fingerprint without the cap, bucket), the
/// stored spans are disjoint, so they are keyed by their lower end and
/// the one span that can hold a limit is the last starting at or below
/// it.  Reports are shared, immutable copies, so a lookup copies the
/// pointer under the lock and the report outside it.
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
    const std::lock_guard<std::mutex> lock(reports_->mutex);
    const auto it = reports_->entries.find(fingerprint);
    if (it == reports_->entries.end() || !it->second.full) return false;
    report_hits_.fetch_add(1, std::memory_order_relaxed);
    // Touch: a served report moves to the front of the eviction order.
    reports_->lru.splice(reports_->lru.begin(), reports_->lru, it->second.lru_pos);
    it->second.lru_pos = reports_->lru.begin();
    *out = *it->second.full;
    return true;
}

void explore_cache::report_store(const std::string& fingerprint,
                                 const flow_report& report) const
{
    // Copied before taking the lock, so workers storing at once queue
    // only for the insert.
    auto full = std::make_unique<flow_report>(report);
    const std::lock_guard<std::mutex> lock(reports_->mutex);
    const auto [it, inserted] = reports_->entries.try_emplace(fingerprint);
    if (!inserted && it->second.full) {
        // A concurrent computation of the same key won the insert race;
        // this store is the loser and counts the hit.
        report_hits_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    // Fresh key, or a metric-only entry (evicted or loaded from a cache
    // file) whose full report was genuinely recomputed: either way a
    // real computation happened, so it counts as the miss.
    reports_->install(it, std::move(full));
    report_misses_.fetch_add(1, std::memory_order_relaxed);
    reports_->evict_over_capacity();
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
                                    flow_report* out) const
{
    const std::string full_key = interval_key(key, cap);
    std::shared_ptr<const flow_report> served;
    {
        const std::lock_guard<std::mutex> lock(intervals_->mutex);
        const auto k = intervals_->keys.find(full_key);
        if (k == intervals_->keys.end()) return false;
        const auto it = interval_table::holding(k->second, cap_test(cap).limit());
        if (it == k->second.end()) return false;
        intervals_->lru.splice(intervals_->lru.begin(), intervals_->lru,
                               it->second.lru_pos);
        served = it->second.report;
    }
    interval_served_.fetch_add(1, std::memory_order_relaxed);
    *out = *served;
    return true;
}

void explore_cache::interval_store(const std::string& key, double cap,
                                   const cap_interval& span,
                                   const flow_report& report) const
{
    std::string full_key = interval_key(key, cap);
    auto stored = std::make_shared<const flow_report>(report);
    const std::lock_guard<std::mutex> lock(intervals_->mutex);
    interval_table::spans& spans = intervals_->keys[full_key];
    if (interval_table::holding(spans, cap_test(cap).limit()) != spans.end()) {
        // A racing worker stored this span first.
        interval_served_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const auto [it, inserted] =
        spans.try_emplace(span.below, interval_table::entry{span, std::move(stored), {}});
    if (!inserted) return;
    intervals_->lru.emplace_front(std::move(full_key), span.below);
    it->second.lru_pos = intervals_->lru.begin();
    intervals_->evict_over_capacity();
}

std::string explore_cache::interval_key(const std::string& key, double cap) const
{
    std::string full = key;
    key_int(full, bucket(cap));
    return full;
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

    write_cache_file(out, graph_text, lib_text, {metrics.begin(), metrics.end()});
    stats.metric_total = metrics.size();
    return stats;
}

} // namespace phls
