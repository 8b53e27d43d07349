// Minimal deterministic fork/join helper (the task engine fans its
// per-task candidate sweeps out with it).
//
// The design constraint is determinism, not peak throughput: callers
// score independent work items into pre-sized result slots and then
// apply the results sequentially in item order, so the outcome is
// byte-identical for every thread count (including 1).  A static block
// partition keeps the item -> thread mapping a pure function of
// (count, threads); there is no work stealing and no shared mutable
// state beyond the disjoint result slots.
#pragma once

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

namespace phls {

/// Runs fn(i) for every i in [0, count), fanning out over `threads`
/// std::threads in contiguous index blocks (thread k owns one block).
/// fn must only write state private to item i (e.g. results[i]); it is
/// called exactly once per index.  threads <= 1 runs inline.  Joins all
/// workers before returning; exceptions escaping fn on a worker thread
/// terminate, so callers keep fallible work on the sequential path.
template <typename Fn> void parallel_for(std::size_t count, int threads, Fn&& fn)
{
    if (threads <= 1 || count < 2) {
        for (std::size_t i = 0; i < count; ++i) fn(i);
        return;
    }
    const std::size_t workers = std::min<std::size_t>(static_cast<std::size_t>(threads), count);
    const std::size_t chunk = (count + workers - 1) / workers;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t k = 0; k < workers; ++k) {
        const std::size_t lo = k * chunk;
        const std::size_t hi = std::min(count, lo + chunk);
        if (lo >= hi) break;
        pool.emplace_back([lo, hi, &fn] {
            for (std::size_t i = lo; i < hi; ++i) fn(i);
        });
    }
    for (std::thread& t : pool) t.join();
}

} // namespace phls
