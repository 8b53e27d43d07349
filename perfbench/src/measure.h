// Clocks, resource usage and statistics for the benchmark harness.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Monotonic seconds.
double now_s();

/// User + system CPU seconds of this process plus every waited-for child.
double cpu_s();

/// Peak resident set of this process and of its largest waited-for child
/// (getrusage RUSAGE_SELF / RUSAGE_CHILDREN), in MB.
double peak_rss_mb();

/// Current resident set of this process (/proc/self/statm), in MB.
double current_rss_mb();

/// The CPUs this process may run on (sched_getaffinity), ascending.
std::vector<int> allowed_cpus();

/// Binds the calling thread to CPU `cpu`; false when that is refused.
bool bind_to_cpu(int cpu);

/// Median of a non-empty sample.
double median(std::vector<double> v);

/// Nearest-rank percentile (0 < p <= 100) of a non-empty sample.
double percentile(std::vector<double> v, double p);

/// Size of a file in bytes; 0 when it does not exist.
double file_bytes(const std::string& path);

} // namespace perfbench
