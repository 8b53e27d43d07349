// Error types and precondition checks shared by every phls module.
//
// Policy (see DESIGN.md): malformed *inputs* (cyclic graphs, unknown
// operation names, negative areas, ...) throw phls::error; *infeasible*
// synthesis constraint combinations are expected outcomes and are reported
// through result objects, never through exceptions.
//
// Passing checks build nothing: a check() message is a string literal,
// which binds to the string_view without a copy.  A message that needs
// formatting is built only on the failure branch,
//     if (!cond) throw error("module '" + m.name + "' ...");
// so the passing path costs one branch.  The ctest case
// lint.check_messages_are_literals enforces this over src/.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace phls {

/// Base class of every exception thrown by the library.
class error : public std::runtime_error {
public:
    explicit error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a text file (CDFG or module library) fails to parse.
class parse_error : public error {
public:
    parse_error(const std::string& what, int line)
        : error("line " + std::to_string(line) + ": " + what), line_(line) {}

    int line() const { return line_; }

private:
    int line_;
};

/// Throws phls::error with `what` unless `condition` holds.
inline void check(bool condition, std::string_view what)
{
    if (!condition) throw error(std::string(what));
}

} // namespace phls
