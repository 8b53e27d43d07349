// Span and counter recorder for the traced run.
//
// The harness opens a span around each call it makes into a phls layer
// (name, start, end, parent = the innermost open span), keeps every
// span in memory and writes them out once as Chrome trace-event JSON,
// which opens in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Counters record work done at the same boundaries.  Nothing inside the
// library is instrumented: a layer's time is the time of the calls the
// harness makes into it.  Single-threaded: only the harness thread
// opens spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class tracer {
public:
    tracer();

    /// Opens a span under the innermost open one; returns its id.
    int begin(const std::string& name);
    /// Closes span `id` (must be the innermost open span).
    void end(int id);

    /// Sets counter `name` to `value`.
    void set(const std::string& name, double value);

    /// Sum of the self times (duration minus the part covered by child
    /// spans) of every span called `name`, in ms.
    double self_ms(const std::string& name) const;
    /// Counter value; 0 when never recorded.
    double counter(const std::string& name) const;

    /// Writes every span and counter as Chrome trace-event JSON.
    void write_chrome(const std::string& path) const;

private:
    struct span {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = -1;
        int parent = -1;
    };
    std::int64_t origin_ns_;
    std::vector<span> spans_;
    std::vector<int> open_;
    std::map<std::string, double> counters_;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class scope {
public:
    scope(tracer* t, const std::string& name) : t_(t), id_(t ? t->begin(name) : -1) {}
    ~scope()
    {
        if (t_) t_->end(id_);
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

private:
    tracer* t_;
    int id_;
};

} // namespace perfbench
