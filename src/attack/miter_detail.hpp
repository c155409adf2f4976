#pragma once
// Internal plumbing shared by the oracle-guided attacks (sat_attack,
// double_dip, appsat). Not part of the stable public API.
//
// The single-DIP refinement loop lives here: sat_attack *is* this loop, and
// Double DIP falls back to it (seeded with its phase-1 observations) once no
// 2-DIP remains. Both budget dimensions — wall clock and the deterministic
// cumulative-conflict cap of AttackOptions::max_conflicts — are applied on
// every solve through the one shared budget helper, and every solver is
// constructed through the sat::SolverBackend registry so attacks run
// unchanged on the in-tree CDCL ("internal") or an external DIMACS solver
// ("dimacs").

#include <memory>
#include <optional>
#include <vector>

#include "attack/attack_result.hpp"
#include "attack/oracle.hpp"
#include "camo/key.hpp"
#include "common/timer.hpp"
#include "netlist/netlist.hpp"
#include "sat/backend.hpp"
#include "sat/encoder.hpp"

namespace gshe::attack::detail {

/// Recorded oracle I/O observations.
struct History {
    std::vector<std::vector<bool>> inputs;
    std::vector<std::vector<bool>> outputs;

    std::size_t size() const { return inputs.size(); }
    /// True when the exact pair is already recorded. The same input with a
    /// *different* output is not a duplicate — a stochastic oracle answering
    /// inconsistently is an observation the attacks must keep.
    bool contains(const std::vector<bool>& x, const std::vector<bool>& y) const {
        for (std::size_t i = 0; i < inputs.size(); ++i)
            if (inputs[i] == x && outputs[i] == y) return true;
        return false;
    }
    /// Records the pair unless it is an exact duplicate (AppSAT's random
    /// reinforcement can re-draw a pattern across settlement rounds, which
    /// would emit its agreement CNF a second time).
    /// Returns whether the pair was new.
    bool add(std::vector<bool> x, std::vector<bool> y) {
        if (contains(x, y)) return false;
        inputs.push_back(std::move(x));
        outputs.push_back(std::move(y));
        return true;
    }
};

/// Constructs the solver an attack will run on: the backend named by
/// AttackOptions::solver_backend, configured with its solver options.
/// Throws std::invalid_argument (listing the registered backends) for
/// unknown names.
std::unique_ptr<sat::SolverBackend> make_attack_solver(
    const AttackOptions& options);

/// Restricts a freshly built miter to the key support: pins every shared
/// primary-input variable whose gate is outside Netlist::key_support() to
/// constant 0 (unit clauses). Inputs outside the support cannot influence
/// any key-dependent output, so the restricted miter distinguishes exactly
/// the same key classes while the solver stops enumerating DIPs that differ
/// only off-support. The single-DIP loop and AppSAT apply it; Double DIP's
/// 2-DIP phase keeps the full input space.
void pin_off_support_inputs(sat::SolverBackend& solver,
                            const netlist::Netlist& camo_nl,
                            const std::vector<sat::Var>& pis);

/// Copies the backend's portfolio telemetry (width, last decisive winner)
/// into the result — applied wherever solver_stats is captured, so the
/// engine's portfolio_winner/portfolio_width columns ride every attack.
void capture_solver_identity(AttackResult& res,
                             const sat::SolverBackend& solver);

/// The per-solve budget every attack applies: the wall-clock remainder of
/// the attack's timeout plus the deterministic conflict cap. This is the
/// single point where AttackOptions turns into a sat::SolverBudget — the
/// attacks contain no ad-hoc budget math.
void set_remaining_budget(sat::SolverBackend& solver,
                          const AttackOptions& options, const Timer& timer);

/// Reads the model values of `vars` from a SAT backend.
std::vector<bool> model_values(const sat::SolverBackend& solver,
                               const std::vector<sat::Var>& vars);

/// Key extraction on the live miter solver: solves under {~guard} — which
/// relaxes the guarded difference constraint while every agreement, learned
/// clause and inprocessing fact persists — and reads the model of `keys` as
/// a key consistent with every recorded observation. The solve shares the
/// miter solver's cumulative conflict allowance. Returns the key,
/// std::nullopt on inconsistency; sets *timed_out when the budget (wall
/// clock or `max_conflicts`) ran out before an answer.
std::optional<camo::Key> extract_key(sat::SolverBackend& solver,
                                     const std::vector<sat::Var>& keys,
                                     sat::Lit guard,
                                     const AttackOptions& options,
                                     const Timer& timer, bool* timed_out);

/// Finishes an Unsat miter for run_single_dip_loop and appsat_attack:
/// extracts a consistent key and sets res.status / res.key.
void finish_by_extraction(AttackResult& res, sat::SolverBackend& solver,
                          const std::vector<sat::Var>& keys, sat::Lit guard,
                          const AttackOptions& options, const Timer& timer);

/// Runs the classic single-DIP refinement loop to completion: build the
/// two-copy miter, replay `history` as agreement constraints, then iterate
/// solve → oracle query → constrain until UNSAT (key extraction follows) or
/// a budget runs out. New observations are appended to `history`;
/// `prior_iterations` seeds the iteration counter (Double DIP's phase 1).
/// The returned result has status, key, iterations and solver_stats set —
/// callers finish it with finalize_result().
AttackResult run_single_dip_loop(const netlist::Netlist& camo_nl,
                                 Oracle& oracle, const AttackOptions& options,
                                 const Timer& timer, History& history,
                                 std::size_t prior_iterations);

/// Fills the post-run fields common to every attack: wall time, oracle cost,
/// and — on Success — the a-posteriori key check against the defender's
/// ground truth.
void finalize_result(AttackResult& res, const netlist::Netlist& nl,
                     const Oracle& oracle, const AttackOptions& options,
                     const Timer& timer);

}  // namespace gshe::attack::detail
