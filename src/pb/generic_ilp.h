#pragma once
// Generic branch-and-bound 0-1 ILP solver — the CPLEX stand-in.
//
// The paper contrasts its CDCL-based academic solvers with CPLEX 7.0, a
// *generic* ILP solver whose search has no conflict learning and whose
// behaviour on symmetry-breaking predicates is qualitatively different
// (it is slowed down by them). We model that class of solver with a
// depth-first branch and bound that
//   * propagates units over clauses and PB constraints (counter-based),
//   * prunes on the objective incumbent,
//   * branches by a static most-occurrences order computed once from the
//     full constraint matrix — added SBP constraints therefore *distort*
//     the branching order, reproducing the paper's observation that SBPs
//     hamper the generic solver,
//   * learns nothing and never restarts.
// It reproduces that qualitative contrast only: there is no LP relaxation,
// no cut generation and no presolve, and PB constraints must be
// cardinality constraints.

#include "cnf/formula.h"
#include "pb/optimizer.h"
#include "util/budget.h"
#include "util/timer.h"

namespace symcolor {

/// Minimize the formula's objective (or just decide satisfiability when no
/// objective is present). Stats fields for learning stay zero. The budget's
/// wall clock and interrupt() are polled on the decision cadence; conflict/
/// propagation caps are not enforced here (this solver models a generic
/// ILP engine, whose "conflicts" are not comparable). A budgeted exit
/// degrades gracefully: Feasible with the incumbent, Unknown without one.
OptResult solve_generic_ilp(const Formula& formula, const SolveBudget& budget);

}  // namespace symcolor
