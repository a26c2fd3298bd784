#include "pb/solver_profiles.h"

#include <stdexcept>

namespace symcolor {

SolverConfig profile_config(SolverKind kind) {
  SolverConfig config;
  switch (kind) {
    case SolverKind::PbsOriginal:
      config.restart_scheme = RestartScheme::Geometric;
      config.restart_base = 200;
      config.restart_growth = 2.0;
      config.var_decay = 0.95;
      config.minimize_learned = false;
      config.random_seed = 0x1B5;
      return config;
    case SolverKind::PbsII:
      config.restart_scheme = RestartScheme::Luby;
      config.restart_base = 100;
      config.var_decay = 0.95;
      config.minimize_learned = true;
      config.random_seed = 0x1B52;
      return config;
    case SolverKind::Galena:
      config.restart_scheme = RestartScheme::Geometric;
      config.restart_base = 100;
      config.restart_growth = 1.5;
      config.var_decay = 0.92;
      config.minimize_learned = true;
      config.random_branch_freq = 0.02;
      config.random_seed = 0x6A1E;
      // Galena's defining feature: native pseudo-Boolean learning via
      // cutting planes rather than weakening PB conflicts to clauses.
      config.pb_analysis = PbAnalysis::CuttingPlanes;
      return config;
    case SolverKind::Pueblo:
      config.restart_scheme = RestartScheme::Luby;
      config.restart_base = 32;
      config.var_decay = 0.98;
      config.minimize_learned = true;
      config.random_branch_freq = 0.01;
      config.random_seed = 0x9EB1;
      return config;
    case SolverKind::GenericIlp:
      break;
  }
  throw std::invalid_argument("profile_config: not a CDCL personality");
}

std::optional<SolverKind> parse_solver(std::string_view name) {
  if (name == "pbs") return SolverKind::PbsOriginal;
  if (name == "pbs2") return SolverKind::PbsII;
  if (name == "galena") return SolverKind::Galena;
  if (name == "pueblo") return SolverKind::Pueblo;
  if (name == "generic") return SolverKind::GenericIlp;
  return std::nullopt;
}

std::string solver_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::PbsOriginal: return "PBS";
    case SolverKind::PbsII: return "PBS II";
    case SolverKind::Galena: return "Galena";
    case SolverKind::Pueblo: return "Pueblo";
    case SolverKind::GenericIlp: return "GenericILP";
  }
  return "?";
}

}  // namespace symcolor
