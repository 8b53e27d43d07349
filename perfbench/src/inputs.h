// Seeded, text-born workload inputs.
//
// Every graph and task set a workload runs on is generated from the
// benchmark's --seed, written as text and parsed back before use, so
// the program sees exactly what a user feeding `.cdfg` / task-set files
// would.  A CDFG text round trip can reorder operands on its first pass
// (see perfbench/README.md, "Finding"), so canonical_text() iterates
// write -> parse until the text is a fixed point.
//
// synth-dag and tasks-mix draw one of a finite family of variants
// (seed % variants) so that every variant's expected output can be
// committed; the sweep workloads shuffle the point order of one fixed
// plane, whose results do not depend on the order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdfg/graph.h"
#include "library/library.h"
#include "synth/synthesizer.h"

namespace perfbench {

/// Variants of synth-dag and tasks-mix with committed expected outputs.
inline constexpr int input_variants = 16;

/// The variant a seed selects.
int variant_of(std::uint64_t seed);

/// write_cdfg_string(g), iterated through parse until the text is its
/// own round trip.  @throws phls::error when no fixed point is reached
/// within a few passes.
std::string canonical_text(const phls::graph& g);

/// FNV-1a 64-bit digest, as 16 hex digits.
std::string digest(const std::string& bytes);

/// synth-dag: ALU random DAGs from bench_kernels' family, each with its
/// (T, Pmax) point: Pmax = 2.5 x the hungriest module, T = the pasap
/// latency under that cap + 4.
struct dag_input {
    std::string text;               ///< canonical CDFG text
    phls::graph g;                  ///< parsed back from `text`
    phls::synthesis_constraints c;  ///< the design point
};

inline constexpr int synth_dag_ops = 100;
inline constexpr int synth_dag_count = 48;

/// The DAG texts of one synth-dag variant (generation + canonicalisation
/// only; parse_dags() turns them into inputs).
std::vector<std::string> synth_dag_texts(int variant);

/// Parses the texts and derives each design point.
std::vector<dag_input> parse_dags(const std::vector<std::string>& texts,
                                  const phls::module_library& lib);

/// sweep-plane / sweep-sharded: hal over T 17..36 x 500 caps in [2, 20],
/// in a seeded order.
struct plane_input {
    std::string text;  ///< canonical CDFG text of hal
    phls::graph g;     ///< parsed back from `text`
    std::vector<phls::synthesis_constraints> points; ///< shuffled plane
};

plane_input make_plane_input(std::uint64_t seed);

/// tasks-mix: 28 tasks cycling the 7 built-in kernels with staggered
/// releases, 1-3 iterations and per-iteration deadline budgets, under
/// envelope 12.  The kernels are written as `.cdfg` files into `dir`
/// (which must exist) and the task set refers to them by path.
struct tasks_input {
    std::vector<std::string> graph_files; ///< the written .cdfg paths
    std::string set_text;                 ///< task-set text
};

inline constexpr int tasks_count = 28;

tasks_input write_tasks_input(int variant, const std::string& dir);

/// Reads a whole file; @throws phls::error when it cannot be opened.
std::string read_file(const std::string& path);

} // namespace perfbench
