#pragma once
// Serialization of formulas to OPB (pseudo-Boolean competition format),
// the natural format for the paper's 0-1 ILP instances including the
// objective. A matching OPB reader supports round-trip tests and external
// tooling.

#include <iosfwd>
#include <string>

#include "cnf/formula.h"

namespace symcolor {

/// Write OPB: objective ("min: ..."), then one line per constraint.
/// Clauses are emitted as cardinality >= 1 constraints.
void write_opb(std::ostream& out, const Formula& formula);
std::string write_opb_string(const Formula& formula);

/// Parse OPB produced by write_opb (plus common syntactic variations).
Formula read_opb(std::istream& in);
Formula read_opb_string(const std::string& text);

}  // namespace symcolor
