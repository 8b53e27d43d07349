#include "measure.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_s()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

double seconds(const timeval& tv)
{
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

double cpu_s()
{
    double total = 0.0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        total += seconds(ru.ru_utime) + seconds(ru.ru_stime);
    }
    return total;
}

double peak_rss_mb()
{
    long peak_kb = 0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        peak_kb = std::max(peak_kb, ru.ru_maxrss);
    }
    return static_cast<double>(peak_kb) / 1024.0;
}

double current_rss_mb()
{
    std::ifstream statm("/proc/self/statm");
    long pages = 0, resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

std::vector<int> allowed_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set)) cpus.push_back(c);
    return cpus;
}

bool bind_to_cpu(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

double median(std::vector<double> v)
{
    if (v.empty()) throw std::invalid_argument("median of an empty sample");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p)
{
    if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
    return v[std::min(i, v.size() - 1)];
}

double file_bytes(const std::string& path)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(path, ec);
    return ec ? 0.0 : static_cast<double>(n);
}

} // namespace perfbench
