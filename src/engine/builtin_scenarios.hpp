#pragma once

/// \file builtin_scenarios.hpp
/// The paper's experiments as registered engine scenarios — the one
/// implementation of every figure and ablation (docs/cli.md lists them):
///
///   * `fig2` … `fig6`, `abl1` … `abl7` — Figures 2–6 and the seven
///     ablations.  Each keeps the seed derivation of the deleted legacy
///     binary it replaced byte for byte (pinned against `harness::sweeps`
///     and inline replicas by tests/engine_test.cpp), so its numbers
///     equal that binary's for the same seed.  `abl7` is one instance per
///     n, deterministic per (seed, n): exactly one job per cell
///     regardless of the requested repetitions.  Figure 7 (overlap) is
///     the `overlap` series of a greedy-only `fig6` run.
///   * `fixed_m` — fixed-m reconstruction with any registered solver
///     (default greedy) over an m-grid placed relative to the Theorem 1
///     bound, reporting exact-success rate and overlap.
///   * `solver_sweep`, `phase_atlas` — solver-generic grids over
///     (n, m, channel) and (design × solver × channel × n × m_frac).
///
/// `fixed_m`, `solver_sweep` and `phase_atlas` use the engine's
/// canonical (seed, scenario, cell, rep) stream derivation.

#include "engine/scenario.hpp"

namespace npd::engine {

/// Register every built-in scenario listed above.
void register_builtin_scenarios(ScenarioRegistry& registry);

}  // namespace npd::engine
