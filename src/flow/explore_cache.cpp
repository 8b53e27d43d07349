#include "flow/explore_cache.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "flow/flow.h"
#include "support/codec.h"
#include "support/errors.h"

namespace phls {

namespace {

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

void restamp_point(flow_report& r, const graph& g, const synthesis_constraints& c)
{
    r.constraints = c;
    r.dp.name = design_name(g, c);
    if (r.has_netlist) r.nl.design_name = r.dp.name;
}

/// The report memo.  Lives behind a pimpl so explore_cache.h does not
/// pull in flow.h (flow_report is incomplete there).  It has its own
/// lock, held only to find, insert or unlink an entry: reports are
/// shared and immutable, so a lookup copies the pointer under the lock
/// and the report (datapath, netlist, note strings) outside it, and
/// workers queued on the problem tables' lock never wait for either.
/// Entries are hashed by fingerprint: fingerprints of one configuration
/// share all but their last bytes, which an ordered map compares again
/// at every level of its search.
///
/// Every entry carries the metric record of its report at the entry's
/// own point; the report itself is optional — LRU eviction under a
/// configured capacity and cache-file loads leave metric-only entries
/// behind, which answer report_lookup() at the metric level only.
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
    /// Entries are never erased, and a rehash moves no node, so `lru`
    /// can point at their keys.
    std::unordered_map<std::string, entry> entries;
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

    /// Every entry's (fingerprint, metric record), in fingerprint order,
    /// copied under the lock (and sorted outside it) so the caller may
    /// use the memo meanwhile.
    std::vector<std::pair<std::string, metric_record>> snapshot()
    {
        std::vector<std::pair<std::string, metric_record>> out;
        {
            const std::lock_guard<std::mutex> lock(mutex);
            out.reserve(entries.size());
            for (const auto& [fp, e] : entries) out.emplace_back(fp, e.metrics);
        }
        std::sort(out.begin(), out.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        return out;
    }
};

/// The interval table.  Per (fingerprint without the cap, bucket), the
/// stored spans are disjoint, so they are keyed by their lower end and
/// the one span that can hold a limit is the last starting at or below
/// it.  The outer keys are hashed, as the report memo's are.  Reports
/// are shared and immutable, so a lookup hands out the pointer it
/// copied under the lock.
struct explore_cache::interval_table {
    struct entry {
        cap_interval span;
        std::shared_ptr<const flow_report> report;
        std::list<std::pair<std::string, double>>::iterator lru_pos;
    };
    using spans = std::map<double, entry>; ///< by the span's lower end

    std::mutex mutex;
    std::unordered_map<std::string, spans> keys;
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

/// The lifetime memo: the battery stage's answer per (power profile,
/// lifetime spec).  Its lock is held only to find or insert; the
/// integration runs outside it, and racing workers that integrate the
/// same key compute the same answer.
struct explore_cache::lifetime_memo {
    std::mutex mutex;
    std::unordered_map<std::string, lifetime_estimate> answers;
};

explore_cache::explore_cache(const graph& g, const module_library& lib)
    : problem_tables(g, lib), reports_(new report_memo), intervals_(new interval_table),
      lifetimes_(new lifetime_memo)
{
}

explore_cache::~explore_cache() = default;

bool explore_cache::report_lookup(const std::string& fingerprint, flow_report* out,
                                  bool* metric_only) const
{
    std::shared_ptr<const flow_report> full;
    synthesis_constraints point;
    {
        const std::lock_guard<std::mutex> lock(reports_->mutex);
        const auto it = reports_->entries.find(fingerprint);
        if (it == reports_->entries.end()) return false;
        report_memo::entry& e = it->second;
        if (!e.full) {
            if (metric_only == nullptr) return false;
            *out = metric_report(e.metrics);
            *metric_only = true;
            metric_hits_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        // Touch: a served report moves to the front of the eviction order.
        reports_->lru.splice(reports_->lru.begin(), reports_->lru, e.lru_pos);
        full = e.full;
        point = e.metrics.constraints;
    }
    if (metric_only != nullptr) *metric_only = false;
    report_hits_.fetch_add(1, std::memory_order_relaxed);
    *out = *full;
    // A span's report answering for another cap of the span.  Compared
    // bit for bit: an entry's own report carries its point's exact bits.
    if (full->constraints.latency != point.latency ||
        std::bit_cast<std::uint64_t>(full->constraints.max_power) !=
            std::bit_cast<std::uint64_t>(point.max_power))
        restamp_point(*out, design(), point);
    return true;
}

void explore_cache::report_store(const std::string& fingerprint,
                                 std::shared_ptr<const flow_report> report,
                                 const synthesis_constraints& point) const
{
    // Projected before taking the lock, so workers storing at once
    // queue only for the insert.
    metric_record metrics = metric_of(*report);
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

void explore_cache::lifetime(const power_profile& profile, const lifetime_spec& spec,
                             lifetime_estimate& out) const
{
    byte_writer key;
    key.u32(static_cast<std::uint32_t>(profile.values().size()));
    for (const double p : profile.values()) key.f64(p);
    key.f64(spec.voltage);
    key.f64(spec.cycle_seconds);
    key.i32(spec.idle_cycles);
    key.f64(spec.beta);
    key.f64(spec.alpha);
    key.f64(spec.max_seconds);
    {
        const std::lock_guard<std::mutex> lock(lifetimes_->mutex);
        const auto it = lifetimes_->answers.find(key.bytes());
        if (it != lifetimes_->answers.end()) {
            out = it->second;
            return;
        }
    }
    battery_lifetime(profile, spec, out);
    const std::lock_guard<std::mutex> lock(lifetimes_->mutex);
    lifetimes_->answers.try_emplace(key.take(), out);
}

std::size_t explore_cache::lifetime_size() const
{
    const std::lock_guard<std::mutex> lock(lifetimes_->mutex);
    return lifetimes_->answers.size();
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
    // The visitor runs outside the lock, so it may probe (or store into)
    // this cache without deadlocking.
    for (const auto& [fp, m] : reports_->snapshot()) fn(fp, m);
}

// ------------------------------------------------------------ persistence

std::size_t explore_cache::save(const std::string& path) const
{
    // Every entry's metric record: full datapaths and netlists are
    // deliberately not persisted — a warm start answers metric queries
    // instantly and recomputes designs on demand.
    const auto records = reports_->snapshot();
    write_cache_file(path, graph_text(), library_text(), records);
    return records.size();
}

std::size_t explore_cache::load(const std::string& path)
{
    parsed_cache_file parsed = parse_cache_file(path);
    if (parsed.graph_text != graph_text() || parsed.lib_text != library_text())
        throw cache_file_error(cache_file_error::failure::problem_mismatch, path,
                               "saved for a different graph or library");

    std::size_t loaded = 0;
    const std::lock_guard<std::mutex> lock(reports_->mutex);
    for (auto& [fp, m] : parsed.metrics) {
        // Existing entries win: a live full report is strictly more
        // informative than a loaded metric record.
        const auto [it, inserted] = reports_->entries.try_emplace(std::move(fp));
        if (!inserted) continue;
        it->second.metrics = std::move(m);
        ++loaded;
    }
    return loaded;
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
            parsed_cache_file parsed = parse_cache_file(inputs[i]);
            if (!have_identity) {
                graph_text = std::move(parsed.graph_text);
                lib_text = std::move(parsed.lib_text);
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
            // A key already merged keeps its first value, and the
            // record is dropped unmoved.
            for (auto& [fp, m] : parsed.metrics)
                in.new_metrics += metrics.try_emplace(std::move(fp), std::move(m)).second ? 1 : 0;
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
