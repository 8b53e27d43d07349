// Plain-text CDFG format, so benchmarks and regression inputs can live as
// data files:
//
//   cdfg hal
//   node x input
//   node t1 mult
//   node out output
//   edge x t1
//   edge t1 out
//
// Lines starting with '#' and blank lines are ignored.  Edges may appear
// before both endpoints are declared only if declared later in the file;
// the parser resolves labels after reading everything.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "cdfg/graph.h"

namespace phls {

/// Parses a graph; throws phls::parse_error with a line number on bad input.
graph parse_cdfg(std::istream& is);

/// Parses from a string; parse_cdfg reads its stream into one and
/// calls this.
graph parse_cdfg_string(std::string_view text);

/// Serialises in the format accepted by parse_cdfg.
void write_cdfg(const graph& g, std::ostream& os);

/// Serialises to a string.
std::string write_cdfg_string(const graph& g);

} // namespace phls
