// The benchmark's four workloads.
//
// Each workload generates its inputs from the seed (setup), runs the
// user-visible operation once per pass with its outputs checked, and in
// the traced run probes its layers by timing calls into their public
// functions.  See perfbench/README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// One output digest to compare against the committed expected file;
/// a mismatch fails `weight` operations.
struct check {
    std::string key;
    std::string digest;
    long weight = 1;
};

/// What one pass did.  wall_s/cpu_s cover the user-visible operation
/// only, not the correctness checks that follow it.
struct pass_outcome {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    long attempted = 0; ///< designs, points or tasks
    long failed = 0;    ///< failed before the digest comparison
    std::vector<check> checks;
    std::vector<std::string> problems;
};

struct workload_config {
    int threads = 1;      ///< worker threads / shard processes
    std::string work_dir; ///< scratch files (task graphs, cache files)
};

class workload {
public:
    virtual ~workload() = default;
    /// Generates the inputs for `seed`, writes them as text, parses them
    /// back and builds the state the next run() consumes (session or
    /// pool).  The harness calls it before every run().
    virtual void setup(std::uint64_t seed) = 0;
    /// One run of the workload on the state the last setup() built, with
    /// its outputs digested.  `tr` (nullable) records spans around the
    /// layer calls.  With `verify`, every design the run produces is
    /// also checked with verify_datapath.  A sweep does not keep its
    /// reports, so it checks them as they are delivered, inside its
    /// clock: the harness makes one verifying pass before the measured
    /// ones and discards its times.
    virtual pass_outcome run(tracer* tr, bool verify) = 0;
    /// Traced run only: per-layer probes, recorded as tracer counters
    /// named like the per-layer metrics.  `traced_passes` is how many
    /// run(tr) calls the tracer has seen.
    virtual void probe(tracer& tr, int traced_passes) = 0;
};

/// The workload names, in BENCHMARK.json order.
std::vector<std::string> workload_names();

/// Threads or shard processes workload `name` runs on when the host
/// allows `cap`.
int workload_threads(const std::string& name, int cap);

/// @throws phls::error for an unknown name.
std::unique_ptr<workload> make_workload(const std::string& name, const workload_config& cfg);

} // namespace perfbench
