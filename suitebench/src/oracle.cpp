#include "oracle.h"

namespace suitebench {

using symcolor::Graph;
using symcolor::OptStatus;

std::string check_answer(const Graph& graph, const Expectation& expect,
                         const Answer& answer) {
  if (answer.wall_tripped) return "safety wall limit tripped";
  const bool has_coloring = !answer.coloring.empty();
  if (has_coloring) {
    if (static_cast<int>(answer.coloring.size()) != graph.num_vertices() ||
        !graph.is_proper_coloring(answer.coloring)) {
      return "improper coloring";
    }
    if (Graph::count_colors(answer.coloring) != answer.num_colors) {
      return "reported color count disagrees with the coloring";
    }
    if (answer.max_colors > 0 && answer.num_colors > answer.max_colors) {
      return "coloring uses more colors than the encoding allows";
    }
    if (answer.num_colors < expect.chi_floor) {
      return "coloring beats a proven lower bound";
    }
  }
  const bool chi_known = expect.chi > 0;
  switch (answer.status) {
    case OptStatus::Optimal:
      if (!has_coloring) return "optimal claim without a coloring";
      if (chi_known && answer.num_colors != expect.chi) {
        return "wrong chromatic number " + std::to_string(answer.num_colors) +
               " (expected " + std::to_string(expect.chi) + ")";
      }
      return {};
    case OptStatus::Infeasible:
      if (answer.max_colors <= 0) return "infeasible claim without a bound";
      if (chi_known && expect.chi <= answer.max_colors) {
        return "infeasible claim but chi " + std::to_string(expect.chi) +
               " <= K " + std::to_string(answer.max_colors);
      }
      return {};
    case OptStatus::Feasible:
    case OptStatus::Unknown:
      if (chi_known && answer.lower_bound > expect.chi) {
        return "lower bound " + std::to_string(answer.lower_bound) +
               " above chi " + std::to_string(expect.chi);
      }
      if (has_coloring && answer.lower_bound > answer.num_colors) {
        return "lower bound above the incumbent";
      }
      return {};
  }
  return "unknown status";
}

}  // namespace suitebench
