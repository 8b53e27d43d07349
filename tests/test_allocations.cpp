// Allocation gates: a passing check() and the per-merge window recompute
// must not allocate per node (a warm window engine allocates nothing),
// a point the interval table serves copies its report once, and a
// checksummed file is read into one buffer.
// A replaced global operator new counts the calls made on the measuring
// thread inside a measured scope only, and the bytes they ask for.
//
// ASan and TSan own operator new, so the replacement is compiled out under
// them and the gates skip.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "cdfg/random_dag.h"
#include "sched/mobility.h"
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

namespace {
/// operator new calls on this thread; negative while not counting.
thread_local long counted_allocations = -1;
/// Bytes those calls asked for.
thread_local std::size_t counted_bytes = 0;
} // namespace

#if PHLS_COUNT_ALLOCATIONS
// The standard library's array and nothrow forms forward to these.
void* operator new(std::size_t size)
{
    if (counted_allocations >= 0) {
        ++counted_allocations;
        counted_bytes += size;
    }
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
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

TEST(allocations, reading_a_checksummed_file_holds_it_once)
{
    if (!PHLS_COUNT_ALLOCATIONS) GTEST_SKIP() << "the sanitizer runtime owns operator new";
    const checksummed_format format{
        .magic = "phls-allocation-test",
        .version = 1,
        .sites = "allocations",
        .noun = "test file",
        .header = "test-file header",
        .foreign = "not a test file",
        .temporary = "temporary test file",
    };
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

} // namespace
} // namespace phls
