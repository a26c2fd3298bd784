#pragma once
// Named solver personalities mirroring the paper's experimental line-up.
//
// The paper runs four solvers: the academic 0-1 ILP solvers PBS (original),
// PBS II, Galena and Pueblo — all DLL/CDCL-based, differing in learning and
// search heuristics — plus the commercial generic ILP solver CPLEX. We
// reproduce the academic solvers as configurations of one CDCL-PB engine
// (src/sat) whose knobs cover the axes those solvers differ on (restart
// policy, activity decay, learned-clause minimization, diversification),
// and CPLEX as a separate learning-free branch-and-bound (generic_ilp).

#include <optional>
#include <string>
#include <string_view>

#include "sat/cdcl.h"

namespace symcolor {

enum class SolverKind {
  PbsOriginal,  ///< PBS (ICCAD'02): conservative geometric restarts, no
                ///< learned-clause minimization.
  PbsII,        ///< PBS II with PB learning: the reference configuration.
  Galena,       ///< Cutting-planes PB learning: geometric restarts,
                ///< stronger decay, PbAnalysis::CuttingPlanes.
  Pueblo,       ///< hybrid-learning flavour: aggressive Luby restarts.
  GenericIlp,   ///< CPLEX stand-in: see generic_ilp.h.
};

/// Engine configuration for a CDCL-based personality. Must not be called
/// with SolverKind::GenericIlp (which does not run on the CDCL engine).
SolverConfig profile_config(SolverKind kind);

/// Display name used in benchmark tables ("PBS II", "CPLEX*", ...).
std::string solver_name(SolverKind kind);

/// The personality named `name` by the front ends' `solver` value: pbs |
/// pbs2 | galena | pueblo | generic; nullopt for any other name.
std::optional<SolverKind> parse_solver(std::string_view name);

/// All personalities in the paper's Table 3/4 column order.
inline constexpr SolverKind kTableSolvers[] = {
    SolverKind::PbsII, SolverKind::GenericIlp, SolverKind::Galena,
    SolverKind::Pueblo};

}  // namespace symcolor
