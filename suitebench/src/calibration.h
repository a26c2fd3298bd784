#pragma once
// Machine-speed calibration in the spirit of the DIMACS challenge's dfmax
// benchmark: a fixed maximum-clique search on a fixed random graph, written
// here and independent of the library under test. The host's speed drifts
// by tens of percent within minutes on a shared machine; the benchmark runs
// this search between solves and scales every time by how fast it ran
// then, so its figures read as seconds at one fixed reference speed.

namespace suitebench {

/// CPU seconds the reference search takes at the reference speed. A
/// measured time t becomes t * kReferenceSeconds / (the search's CPU time
/// measured alongside t).
inline constexpr double kReferenceSeconds = 0.007;

/// Runs the reference search once and returns its CPU seconds.
double reference_sample();

}  // namespace suitebench
