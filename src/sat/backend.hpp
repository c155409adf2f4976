#pragma once
// The pluggable SAT-backend layer.
//
// Every SAT consumer in the repo — the oracle-guided attacks, the
// equivalence checker, the CNF encoder — programs against the abstract
// SolverBackend interface below instead of a concrete solver class. Two
// backends ship in-tree:
//
//   "internal"  the CDCL solver of sat/solver.hpp (MiniSat-architecture,
//               incremental, deterministic — the default, and the baseline
//               of the campaign engine's byte-identical reproducibility
//               contract);
//   "dimacs"    a subprocess adapter (sat/dimacs_backend.hpp) that shells
//               out to any MiniSat/CryptoMiniSat-compatible binary via
//               DIMACS export + model parse, for paper-scale runs on an
//               industrial solver.
//
// Backends are looked up by name through a string-keyed registry that
// mirrors the attack::Attack registry, so "which solver" is campaign data
// exactly like "which attack": AttackOptions::solver_backend →
// engine::JobSpec → run_campaign --solver=<name>.
//
// The option/budget/stat structs were extracted from the concrete
// sat::Solver (which keeps nested aliases for source compatibility) so this
// header depends only on sat/types.hpp.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace gshe::sat {

/// Outcome of a solve call. Unknown = a resource budget ran out first
/// (the "t-o" semantics of the paper's Table IV).
enum class SolveResult { Sat, Unsat, Unknown };

/// Solver configuration. Fully honoured by the "internal" CDCL backend;
/// external backends ignore it (a subprocess solver has its own
/// heuristics). The search heuristics themselves (VSIDS and clause-activity
/// decay, the Luby restart schedule, learnt-DB growth and glue bound) are
/// fixed constants in sat/solver.cpp.
struct SolverOptions {
    // Feature toggles for the solver-ablation bench (bench/ablation_solver).
    bool use_vsids = true;        ///< false: pick lowest-index unassigned var
    bool use_restarts = true;     ///< false: never restart
    bool use_learning = true;     ///< false: backtrack one level, no learnt DB
    bool use_phase_saving = true; ///< false: always decide the false phase

    /// Learnt clauses before the first learnt-DB reduction (the interval
    /// then grows by half each time).
    std::uint64_t reduce_interval = 4096;

    // Inprocessing passes (internal backend; sat/solver.cpp inprocess()).
    // All run at deterministic root-level points scheduled by conflict
    // count, so any fixed configuration keeps the campaign byte-identity
    // contract. All default off: the historical search trajectory — and the
    // golden CSVs — are reproduced bit for bit unless a pass is enabled.
    bool use_vivification = false;  ///< assume-and-propagate clause shortening
    bool use_xor_recovery = false;  ///< CNF XOR detection + GF(2) elimination
    bool use_bve = false;           ///< bounded variable elimination
    std::uint64_t inprocess_interval = 8192;  ///< conflicts between rounds
};

/// Per-backend resource budget. Conflict/propagation caps are cumulative
/// over the backend's lifetime (matching the deterministic
/// AttackOptions::max_conflicts contract); wall clock is per solve call.
struct SolverBudget {
    double max_seconds = std::numeric_limits<double>::infinity();
    std::uint64_t max_conflicts = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_propagations = std::numeric_limits<std::uint64_t>::max();
};

/// Cumulative solver work counters. The "internal" backend counts its own
/// search; the "dimacs" backend accumulates whatever counters the external
/// solver reports in its output (zeros when it reports none).
struct SolverStats {
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learnt_clauses = 0;
    std::uint64_t removed_clauses = 0;
    // Inprocessing / clause-arena telemetry (internal backend; zero when
    // the passes are off or the backend has no arena).
    std::uint64_t inprocessings = 0;     ///< inprocessing rounds run
    std::uint64_t gc_runs = 0;           ///< clause-arena compactions
    std::uint64_t vivified_lits = 0;     ///< literals removed by vivification
    std::uint64_t xors_recovered = 0;    ///< XOR rows recovered from the CNF
    std::uint64_t eliminated_vars = 0;   ///< variables eliminated by BVE
};

/// Abstract SAT solver: problem construction, solve-with-assumptions,
/// model access, budget and stats. Implementations may be incremental
/// (internal CDCL) or re-encode per solve (DIMACS subprocess); callers must
/// not assume either.
class SolverBackend {
public:
    virtual ~SolverBackend() = default;

    // ---- problem construction ----------------------------------------------
    virtual Var new_var() = 0;
    virtual int num_vars() const = 0;

    /// Adds a clause. Returns false once the formula is known unsatisfiable
    /// at the root level.
    virtual bool add_clause(Clause c) = 0;
    bool add_clause(Lit a) { return add_clause(Clause{a}); }
    bool add_clause(Lit a, Lit b) { return add_clause(Clause{a, b}); }
    bool add_clause(Lit a, Lit b, Lit c) { return add_clause(Clause{a, b, c}); }

    virtual std::size_t num_clauses() const = 0;

    // ---- solving -----------------------------------------------------------
    virtual SolveResult solve(const std::vector<Lit>& assumptions) = 0;
    SolveResult solve() { return solve({}); }

    /// Model value after SolveResult::Sat (Undef for never-assigned vars).
    virtual LBool model_value(Var v) const = 0;
    bool model_bool(Var v) const { return model_value(v) == LBool::True; }

    /// Value of `l` when the formula alone fixes it (the internal solver:
    /// assigned at decision level 0), else Undef. The CNF encoder folds such
    /// literals to constants. The default, kept by the "dimacs" backend,
    /// knows of no fixed literal, which is always sound.
    virtual LBool fixed_value(Lit l) const {
        (void)l;
        return LBool::Undef;
    }

    // ---- budget / stats / identity -----------------------------------------
    virtual void set_budget(const SolverBudget& b) = 0;
    /// Convenience used by the attack loops: remaining wall clock plus the
    /// deterministic cumulative-conflict cap, in one call (the one budget
    /// helper every attack shares).
    void set_budget(double remaining_seconds, std::uint64_t max_conflicts) {
        SolverBudget b;
        b.max_seconds = remaining_seconds;
        b.max_conflicts = max_conflicts;
        set_budget(b);
    }

    virtual const SolverStats& stats() const = 0;
    virtual const SolverOptions& options() const = 0;

    /// Registry key of the backend this instance came from ("internal" or
    /// "dimacs").
    virtual const std::string& backend_name() const = 0;
};

// ---- registry ---------------------------------------------------------------
// String-keyed backend registry, mirroring the attack::Attack registry.

/// One registered backend kind.
class BackendFactory {
public:
    virtual ~BackendFactory() = default;

    /// Registry key ("internal", "dimacs").
    virtual const std::string& name() const = 0;
    /// Human-readable description for --list style output.
    virtual const std::string& label() const = 0;
    /// False when the backend needs configuration that is absent (the
    /// "dimacs" backend without GSHE_DIMACS_SOLVER set); create() then
    /// throws. Tests and CI use this to auto-skip.
    virtual bool available() const = 0;

    virtual std::unique_ptr<SolverBackend> create(
        const SolverOptions& opts) const = 0;
};

/// Registry lookup; nullptr for unknown names.
const BackendFactory* find_backend(const std::string& name);

/// Throwing lookup; the error message lists every registered backend.
const BackendFactory& backend_by_name(const std::string& name);

/// The registered backend names, in registration order.
std::vector<std::string> backend_names();

/// Creates a backend instance by registry name (throwing lookup).
std::unique_ptr<SolverBackend> make_backend(const std::string& name,
                                            const SolverOptions& opts = {});

/// Environment variable naming the external solver command for the
/// "dimacs" backend (the one deliberate environment read in library code:
/// it configures a host binary that cannot come from a JobSpec).
inline constexpr const char* kDimacsSolverEnv = "GSHE_DIMACS_SOLVER";

}  // namespace gshe::sat
