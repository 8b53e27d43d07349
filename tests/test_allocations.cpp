// Allocation gates: a passing check() and the per-merge window recompute
// must not allocate per node (a warm window engine allocates nothing),
// a point the interval table serves copies its report once, a
// checksummed file is read into one buffer and written without a copy
// of its body, and cache-file merges and saves hold no second copy of
// their records.
// A replaced global operator new counts the calls made on the measuring
// thread inside a measured scope only, the bytes they ask for and, with
// glibc's malloc_usable_size, the peak of the bytes live on that thread.
//
// ASan and TSan own operator new, so the replacement is compiled out under
// them and the gates skip; the live-byte gates also skip without glibc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "cdfg/random_dag.h"
#include "flow/explore_cache.h"
#include "sched/mobility.h"
#include "serve/shard.h"
#include "support/checksummed_file.h"
#include "support/codec.h"
#include "support/errors.h"
#include "sweep_util.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PHLS_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PHLS_COUNT_ALLOCATIONS 0
#endif
#endif
#ifndef PHLS_COUNT_ALLOCATIONS
#define PHLS_COUNT_ALLOCATIONS 1
#endif
#if PHLS_COUNT_ALLOCATIONS && defined(__GLIBC__)
#include <malloc.h>
#define PHLS_COUNT_LIVE_BYTES 1
#else
#define PHLS_COUNT_LIVE_BYTES 0
#endif

namespace {
/// operator new calls on this thread; negative while not counting.
thread_local long counted_allocations = -1;
/// Bytes those calls asked for.
thread_local std::size_t counted_bytes = 0;
/// Usable bytes of the blocks those calls returned, less those of the
/// blocks freed on this thread while counting, and the peak it reached.
thread_local long live_bytes = 0;
thread_local long peak_live_bytes = 0;
} // namespace

#if PHLS_COUNT_ALLOCATIONS
// The standard library's array and nothrow forms forward to these.
void* operator new(std::size_t size)
{
    void* p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr) throw std::bad_alloc();
    if (counted_allocations >= 0) {
        ++counted_allocations;
        counted_bytes += size;
#if PHLS_COUNT_LIVE_BYTES
        live_bytes += static_cast<long>(malloc_usable_size(p));
        peak_live_bytes = std::max(peak_live_bytes, live_bytes);
#endif
    }
    return p;
}

namespace {
void release(void* p) noexcept
{
#if PHLS_COUNT_LIVE_BYTES
    if (p != nullptr && counted_allocations >= 0)
        live_bytes -= static_cast<long>(malloc_usable_size(p));
#endif
    std::free(p);
}
} // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
#endif

namespace phls {
namespace {

/// operator new calls made on this thread while `f` runs.
template <typename F>
long allocations_in(F&& f)
{
    counted_allocations = 0;
    f();
    const long n = counted_allocations;
    counted_allocations = -1;
    return n;
}

/// Bytes operator new handed out on this thread while `f` runs.
template <typename F>
std::size_t bytes_allocated_in(F&& f)
{
    counted_bytes = 0;
    allocations_in(f);
    return counted_bytes;
}

/// The most heap bytes live on this thread at once while `f` runs,
/// above those live when it starts.
template <typename F>
double peak_live_bytes_in(F&& f)
{
    live_bytes = 0;
    peak_live_bytes = 0;
    allocations_in(f);
    return static_cast<double>(peak_live_bytes);
}

TEST(allocations, passing_checks_allocate_nothing)
{
    if (!PHLS_COUNT_ALLOCATIONS) GTEST_SKIP() << "the sanitizer runtime owns operator new";
    const long n = allocations_in([] {
        for (int i = 0; i < 100; ++i)
            check(i >= 0, "a message longer than the small-string buffer");
    });
    EXPECT_EQ(n, 0);
}

/// Allocations of one window recompute as the clique partitioner makes
/// it: a warm window_engine writing into the spare of two time_windows
/// that take turns holding the current windows, every other operation
/// committed at its pasap start.
long window_recompute_allocations(int operations)
{
    const graph g = random_dag({operations, operations / 12, 10, 0.0, 0.05, 0.8}, 7);
    const module_library lib = table1_library();
    const double cap = 10.0;
    const module_assignment a = fastest_assignment(g, lib, cap);
    window_engine engine(g, lib);
    const pasap_result free_run = engine.pasap(a, cap, {});
    EXPECT_TRUE(free_run.feasible) << free_run.reason;
    std::vector<int> fixed(static_cast<std::size_t>(g.node_count()), -1);
    for (node_id v : g.node_ids())
        if (v.index() % 2 == 0) fixed[v.index()] = free_run.sched.start(v);

    time_windows current, next;
    for (int warm = 0; warm < 2; ++warm) {
        engine.windows(a, cap, 1000, fixed, next);
        std::swap(current, next);
    }
    const long n = allocations_in([&] { engine.windows(a, cap, 1000, fixed, next); });
    EXPECT_TRUE(next.feasible) << next.reason;
    EXPECT_EQ(next.s_min, current.s_min);
    return n;
}

TEST(allocations, window_recompute_does_not_allocate_per_node)
{
    if (!PHLS_COUNT_ALLOCATIONS) GTEST_SKIP() << "the sanitizer runtime owns operator new";
    const long small = window_recompute_allocations(100); // 134 nodes
    const long large = window_recompute_allocations(400); // 543 nodes
    RecordProperty("allocations_134_nodes", static_cast<int>(small));
    RecordProperty("allocations_543_nodes", static_cast<int>(large));
    // A warm engine reuses every buffer of a feasible recompute.
    constexpr long pinned = 0;
    EXPECT_LE(small, pinned);
    EXPECT_LE(large, pinned);
    EXPECT_LE(large, small + 8) << "small " << small << ", large " << large;
}

/// Allocations of a one-point, one-thread explore at hal T=17, Pmax =
/// 9.01 on a session over `f` that explored Pmax = 9.0, whose span
/// serves it.
long served_point_allocations(const flow& f)
{
    dse::session s(f);
    s.explore(dse::list({{17, 9.0}}), {}, 1);
    const dse::space point = dse::list({{17, 9.01}});
    const long n = allocations_in([&] { s.explore(point, {}, 1); });
    EXPECT_EQ(s.cache()->stats().interval_served, 1);
    return n;
}

TEST(allocations, a_served_point_copies_its_report_once)
{
    if (!PHLS_COUNT_ALLOCATIONS) GTEST_SKIP() << "the sanitizer runtime owns operator new";
    const long plain = served_point_allocations(hal17());
    const long netlist = served_point_allocations(hal17().emit_netlist());
    RecordProperty("allocations_served_point", static_cast<int>(plain));
    RecordProperty("allocations_served_point_netlist", static_cast<int>(netlist));
    // The point's memo entry shares its span's report, so the report is
    // copied once, for the caller.  Storing a copy of it as well took 82
    // and 114 allocations.
    EXPECT_LE(plain, 67);
    EXPECT_LE(netlist, 83);
}

const checksummed_format test_file_format{
    .magic = "phls-allocation-test",
    .version = 1,
    .sites = "allocations",
    .noun = "test file",
    .header = "test-file header",
    .foreign = "not a test file",
    .temporary = "temporary test file",
};

TEST(allocations, reading_a_checksummed_file_holds_it_once)
{
    if (!PHLS_COUNT_ALLOCATIONS) GTEST_SKIP() << "the sanitizer runtime owns operator new";
    const checksummed_format& format = test_file_format;
    const std::string path = std::string(::testing::TempDir()) + "allocations_1mib.bin";
    write_checksummed_file(path, format, std::string(std::size_t{1} << 20, 'x'));
    const std::size_t file_size = std::filesystem::file_size(path);
    const std::size_t bytes = bytes_allocated_in([&] {
        read_checksummed_file(path, format, [](byte_reader& r) { r.raw(r.remaining()); });
    });
    std::remove(path.c_str());
    RecordProperty("bytes_reading_1mib", static_cast<int>(bytes));
    // One buffer sized from the file.  Streaming it through an
    // ostringstream and copying it out with str() allocated 5.0x.
    EXPECT_LT(static_cast<double>(bytes), 1.1 * static_cast<double>(file_size))
        << bytes << " bytes allocated to read a " << file_size << "-byte file";
}

TEST(allocations, writing_a_checksummed_file_copies_no_body)
{
    if (!PHLS_COUNT_ALLOCATIONS) GTEST_SKIP() << "the sanitizer runtime owns operator new";
    const std::string path = std::string(::testing::TempDir()) + "allocations_write_1mib.bin";
    const std::string body(std::size_t{1} << 20, 'x');
    const std::size_t bytes =
        bytes_allocated_in([&] { write_checksummed_file(path, test_file_format, body); });
    std::remove(path.c_str());
    RecordProperty("bytes_writing_1mib", static_cast<int>(bytes));
    // The header, the stream's buffer and the names.  Framing the body
    // in one string before writing it allocated 3.0x the body.
    EXPECT_LT(static_cast<double>(bytes), 0.1 * static_cast<double>(body.size()))
        << bytes << " bytes allocated to write a " << body.size() << "-byte body";
}

/// hal's plane at T 17-26, 200 caps each, in lattice order.
std::vector<synthesis_constraints> hal_plane()
{
    std::vector<synthesis_constraints> plane;
    for (int T = 17; T < 27; ++T)
        for (double cap : hal17().power_grid(200)) plane.push_back({T, cap});
    return plane;
}

TEST(allocations, merging_cache_files_holds_each_input_once)
{
    if (!PHLS_COUNT_LIVE_BYTES) GTEST_SKIP() << "live bytes are counted with glibc only";
    const std::string dir = std::string(::testing::TempDir()) + "allocations_merge";
    std::filesystem::create_directories(dir);
    serve::shard_options opts;
    opts.shards = 4;
    opts.cache_dir = dir;
    const serve::shard_summary sum = serve::explore_sharded(hal17(), dse::list(hal_plane()), opts);
    ASSERT_EQ(sum.cache_files.size(), 4u);
    double input_bytes = 0.0;
    for (const std::string& path : sum.cache_files)
        input_bytes += static_cast<double>(std::filesystem::file_size(path));

    const std::string out = dir + "/merged.phlscache";
    const double peak =
        peak_live_bytes_in([&] { explore_cache::merge_files(out, sum.cache_files); });
    std::filesystem::remove_all(dir);
    RecordProperty("merge_peak_live_bytes", static_cast<int>(peak));
    RecordProperty("merge_input_bytes", static_cast<int>(input_bytes));
    // The inputs' buffers, one view per record and the sort's buffer:
    // 1.22x.  An ordered map of every record, the whole merged body and
    // its framed copy took 5.6x (6.6x on a 10^4-point plane).
    EXPECT_LE(peak, 1.5 * input_bytes)
        << peak << " bytes live to merge " << input_bytes << " bytes of cache files";
}

TEST(allocations, saving_a_cache_file_builds_no_second_body)
{
    if (!PHLS_COUNT_LIVE_BYTES) GTEST_SKIP() << "live bytes are counted with glibc only";
    dse::session s(hal17());
    s.explore(dse::list(hal_plane()), {}, 1);
    const std::string path = std::string(::testing::TempDir()) + "allocations_save.phlscache";
    const double peak = peak_live_bytes_in([&] { s.cache()->save(path); });
    const double file_bytes = static_cast<double>(std::filesystem::file_size(path));
    std::remove(path.c_str());
    RecordProperty("save_peak_live_bytes", static_cast<int>(peak));
    RecordProperty("save_file_bytes", static_cast<int>(file_bytes));
    // The sorted snapshot of the records: 1.5x.  Encoding the whole
    // body and framing a copy of it as well took 5.5x (6.5x at 10^4
    // records).
    EXPECT_LE(peak, 2.0 * file_bytes)
        << peak << " bytes live to save a " << file_bytes << "-byte cache file";
}

} // namespace
} // namespace phls
