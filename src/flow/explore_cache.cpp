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

/// Bytes a record takes in a cache-file body: its fingerprint with the
/// length prefix, then put_metric_record()'s fields, three of them
/// strings.
std::uint64_t record_bytes(std::string_view fingerprint, const metric_record& m)
{
    static const std::size_t empty_record = [] {
        byte_writer w;
        put_metric_record(w, metric_record{});
        return w.bytes().size();
    }();
    return 4 + fingerprint.size() + empty_record + m.st.message.size() + m.strategy.size() +
           m.note.size();
}

/// Takes the next record of a cache file being written.
using record_sink =
    std::function<void(std::string_view fingerprint, const metric_record& record)>;

/// Atomically writes a cache file for the (graph, library) identity
/// whose body holds `count` records taking `records_bytes` bytes:
/// `write_records` passes them to its sink in fingerprint order, and
/// each is encoded into one reused buffer and written as it arrives.
void write_cache_file(const std::string& path, std::string_view graph_text,
                      std::string_view lib_text, std::size_t count,
                      std::uint64_t records_bytes,
                      const std::function<void(const record_sink& put)>& write_records)
{
    byte_writer head;
    head.str(graph_text);
    head.str(lib_text);
    head.u32(static_cast<std::uint32_t>(count));
    write_checksummed_file(
        path, cache_file_format, head.bytes().size() + records_bytes,
        [&](const body_sink& put) {
            put(head.bytes());
            byte_writer record;
            write_records([&](std::string_view fingerprint, const metric_record& m) {
                record.clear();
                record.str(fingerprint);
                put_metric_record(record, m);
                put(record.bytes());
            });
        });
}

/// One record of a cache file, as views into the file's buffer.
struct record_view {
    std::string_view fingerprint;
    std::string_view encoded; ///< the bytes put_metric_record() wrote
};

/// A read and fully validated cache file: the buffer holding it, and
/// views into that buffer of its (graph, library) identity and of every
/// record, in file order.  Moving it keeps the views valid.
struct cache_file_view {
    std::vector<char> buffer;
    std::string_view graph_text;
    std::string_view lib_text;
    std::vector<record_view> records;
};

/// Reads and fully validates one cache file, decoding every record
/// once, and classifies every way it can be unusable (see
/// cache_file_error::failure).  The identity check against a particular
/// (graph, library) is the caller's.
cache_file_view read_cache_file(const std::string& path)
{
    cache_file_view file;
    file.buffer = read_checksummed_file(path, cache_file_format, [&](byte_reader& r) {
        file.graph_text = r.str_view();
        file.lib_text = r.str_view();
        // The smallest record: an empty fingerprint and a metric record
        // with empty strings.
        const std::size_t n = r.count(record_bytes({}, metric_record{}), "record count");
        file.records.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::string_view fingerprint = r.str_view();
            byte_reader record = r;
            get_metric_record(record);
            file.records.push_back({fingerprint, r.raw(r.remaining() - record.remaining())});
        }
    });
    return file;
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
    std::uint64_t bytes = 0;
    for (const auto& [fp, m] : records) bytes += record_bytes(fp, m);
    write_cache_file(path, graph_text(), library_text(), records.size(), bytes,
                     [&](const record_sink& put) {
                         for (const auto& [fp, m] : records) put(fp, m);
                     });
    return records.size();
}

std::size_t explore_cache::load(const std::string& path)
{
    // The whole file is validated before the first insert, so a failed
    // load changes nothing.
    const cache_file_view file = read_cache_file(path);
    if (file.graph_text != graph_text() || file.lib_text != library_text())
        throw cache_file_error(cache_file_error::failure::problem_mismatch, path,
                               "saved for a different graph or library");

    std::size_t loaded = 0;
    const std::lock_guard<std::mutex> lock(reports_->mutex);
    for (const auto& [fp, encoded] : file.records) {
        // Existing entries win: a live full report is strictly more
        // informative than a loaded metric record.
        const auto [it, inserted] = reports_->entries.try_emplace(std::string(fp));
        if (!inserted) continue;
        byte_reader r(encoded);
        it->second.metrics = get_metric_record(r);
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
    /// Every good input with its index in `inputs`; the first is the
    /// problem anchor.
    std::vector<std::pair<std::size_t, cache_file_view>> files;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        cache_merge_stats::input in;
        in.path = inputs[i];
        try {
            cache_file_view file = read_cache_file(inputs[i]);
            if (!files.empty() && (file.graph_text != files.front().second.graph_text ||
                                   file.lib_text != files.front().second.lib_text))
                throw cache_file_error(cache_file_error::failure::problem_mismatch,
                                       inputs[i],
                                       "saved for a different graph or library than '" +
                                           inputs[files.front().first] + "'");
            in.metrics = file.records.size();
            files.emplace_back(i, std::move(file));
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
    check(!files.empty(), "cache merge: every input file was rejected");

    /// A record of a good input and the input's index.
    struct input_record {
        record_view record;
        std::size_t input;
    };
    std::vector<input_record> records;
    std::size_t total = 0;
    for (const auto& [i, file] : files) total += file.records.size();
    records.reserve(total);
    for (auto& [i, file] : files) {
        // Each file's own views die as they are copied.
        const std::vector<record_view> views = std::move(file.records);
        for (const record_view& r : views) records.push_back({r, i});
    }

    // The first occurrence of a key wins, inputs in order and each file
    // in its own order: the stable sort keeps that order within each run
    // of one fingerprint, and unique() keeps the first of each run.  The
    // merged records are in fingerprint order, as save() writes them, so
    // merged files are deterministic whatever the input order (only the
    // choice among a key's records depends on it).
    std::stable_sort(records.begin(), records.end(),
                     [](const input_record& a, const input_record& b) {
                         return a.record.fingerprint < b.record.fingerprint;
                     });
    records.erase(std::unique(records.begin(), records.end(),
                              [](const input_record& a, const input_record& b) {
                                  return a.record.fingerprint == b.record.fingerprint;
                              }),
                  records.end());
    std::uint64_t bytes = 0;
    for (const input_record& r : records) {
        ++stats.inputs[r.input].new_metrics;
        bytes += 4 + r.record.fingerprint.size() + r.record.encoded.size();
    }
    // Each kept record is decoded and put again, so the merged file
    // holds canonical fields (one NaN) whatever an input held.
    const cache_file_view& anchor = files.front().second;
    write_cache_file(out, anchor.graph_text, anchor.lib_text, records.size(), bytes,
                     [&](const record_sink& put) {
                         for (const input_record& r : records) {
                             byte_reader encoded(r.record.encoded);
                             put(r.record.fingerprint, get_metric_record(encoded));
                         }
                     });
    stats.metric_total = records.size();
    return stats;
}

} // namespace phls
