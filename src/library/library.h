// Functional-unit library container and selection queries, plus the
// paper's Table 1 as the default library and a text (de)serialisation.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cdfg/graph.h"
#include "library/module.h"
#include "support/errors.h"
#include "support/ids.h"

namespace phls {

/// An ordered collection of fu_module types.
class module_library {
public:
    module_library() = default;
    explicit module_library(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    /// Adds a validated module; names must be unique.
    module_id add(fu_module m);

    int size() const { return static_cast<int>(modules_.size()); }
    const fu_module& module(module_id id) const
    {
        check(id.valid() && id.index() < modules_.size(), "invalid module id");
        return modules_[id.index()];
    }
    const std::vector<fu_module>& modules() const { return modules_; }

    std::optional<module_id> find(const std::string& name) const;

    /// All module ids able to execute `k`, in library order.
    std::vector<module_id> candidates_for(op_kind k) const;

    /// Fastest module for `k` whose per-cycle power is <= max_power
    /// (ties: lower power, then lower area, then library order).
    /// Unconstrained when max_power is infinity.
    std::optional<module_id> fastest_for(op_kind k, double max_power) const;

    /// Cheapest-area module for `k` with power <= max_power
    /// (ties: lower power, then faster, then library order).
    std::optional<module_id> cheapest_for(op_kind k, double max_power) const;

    /// Smallest per-cycle power over all candidates for `k`; nullopt if
    /// the kind is not covered at all.
    std::optional<double> min_power_for(op_kind k) const;

    /// Throws phls::error if some operation of `g` has no candidate module.
    void check_covers(const graph& g) const;

private:
    std::string name_;
    std::vector<fu_module> modules_;
};

/// The paper's Table 1 functional-unit library:
///
///   add  {+}      area  87, 1 cycle,  P 2.5
///   sub  {-}      area  87, 1 cycle,  P 2.5
///   comp {>}      area   8, 1 cycle,  P 2.5
///   ALU  {+,-,>}  area  97, 1 cycle,  P 2.5
///   mult_ser {*}  area 103, 4 cycles, P 2.7
///   mult_par {*}  area 339, 2 cycles, P 8.1
///   input  {imp}  area  16, 1 cycle,  P 0.2
///   output {xpt}  area  16, 1 cycle,  P 1.7
module_library table1_library();

/// Parses the text form; throws phls::parse_error on bad input.
///
///   library date03
///   module ALU + - > area 97 cycles 1 power 2.5
module_library parse_library(std::istream& is);
module_library parse_library_string(std::string_view text);

/// Serialises in the format accepted by parse_library.
void write_library(const module_library& lib, std::ostream& os);
std::string write_library_string(const module_library& lib);

} // namespace phls
