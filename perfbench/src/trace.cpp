#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "support/strings.h"

namespace perfbench {

namespace {

std::int64_t steady_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

tracer::tracer() : origin_ns_(steady_ns()) {}

int tracer::begin(const std::string& name)
{
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, steady_ns() - origin_ns_, -1, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
}

void tracer::end(int id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("tracer: spans must close innermost first");
    spans_[static_cast<std::size_t>(id)].end_ns = steady_ns() - origin_ns_;
    open_.pop_back();
}

void tracer::set(const std::string& name, double value) { counters_[name] = value; }

double tracer::self_ms(const std::string& name) const
{
    // Children of one span are sequential (one thread), so their
    // durations add up to the part of the parent they cover.
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const span& s : spans_)
        if (s.parent >= 0 && s.end_ns >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    std::int64_t ns = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name && spans_[i].end_ns >= 0)
            ns += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    return static_cast<double>(ns) / 1e6;
}

double tracer::counter(const std::string& name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

void tracer::write_chrome(const std::string& path) const
{
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write trace file '" + path + "'");
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    std::int64_t last_ns = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        if (s.end_ns < 0) continue;
        last_ns = std::max(last_ns, s.end_ns);
        os << (first ? "" : ",\n")
           << phls::strf("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"id\": %zu, \"parent\": %d}}",
                         s.name.c_str(), s.name.substr(0, s.name.find('.')).c_str(),
                         static_cast<double>(s.start_ns) / 1e3,
                         static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
        first = false;
    }
    for (const auto& [name, value] : counters_) {
        os << (first ? "" : ",\n")
           << phls::strf("{\"name\": \"%s\", \"ph\": \"C\", \"pid\": 1, \"tid\": 1, "
                         "\"ts\": %.3f, \"args\": {\"value\": %.17g}}",
                         name.c_str(), static_cast<double>(last_ns) / 1e3, value);
        first = false;
    }
    os << "\n]}\n";
}

} // namespace perfbench
