#pragma once
// The pluggable SAT-backend layer.
//
// Every SAT consumer in the repo — the oracle-guided attacks, the
// equivalence checker, the CNF encoder — programs against the abstract
// SolverBackend interface below instead of a concrete solver class. Three
// backends ship in-tree:
//
//   "internal"  the CDCL solver of sat/solver.hpp (MiniSat-architecture,
//               incremental, deterministic — the default, and the baseline
//               of the campaign engine's byte-identical reproducibility
//               contract);
//   "portfolio" K diversified internal-CDCL workers per solve
//               (sat/portfolio_backend.hpp): deterministic in the
//               conflict-budgeted tier (lowest-index winner), wall-clock
//               racing with bounded clause exchange in the declared
//               non-deterministic race tier;
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

/// Search-heuristic configuration. Fully honoured by the "internal" CDCL
/// backend; external backends treat these as best-effort hints (a
/// subprocess solver has its own heuristics).
struct SolverOptions {
    bool use_vsids = true;        ///< false: pick lowest-index unassigned var
    bool use_restarts = true;     ///< restarts per restart_base/restart_luby
    bool use_learning = true;     ///< false: backtrack one level, no learnt DB
    bool use_phase_saving = true; ///< false: always decide default_phase
    double var_decay = 0.95;
    double clause_decay = 0.999;

    // Restart / branching diversification (the portfolio backend varies
    // these per worker; defaults reproduce the historical hard-coded
    // behavior bit for bit).
    std::uint64_t restart_base = 128;  ///< conflicts before the first restart
    bool restart_luby = true;          ///< false: power-of-two geometric growth
    bool default_phase = false;        ///< decision polarity with no saved phase
    double random_branch_freq = 0.0;   ///< P(random decision var); 0 = off
    std::uint64_t seed = 0;            ///< seeds the random-branching stream

    // Learnt-DB reduction knobs (formerly constants in reduce_learnt_db).
    std::uint64_t reduce_interval = 4096;  ///< learnt clauses before 1st reduce
    double reduce_growth = 1.5;            ///< reduce-interval growth factor
    std::int32_t glue_keep_lbd = 2;        ///< keep every clause with LBD <= this

    // Inprocessing passes (internal backend; sat/solver.cpp inprocess()).
    // All run at deterministic root-level points scheduled by conflict
    // count, so any fixed configuration keeps the campaign byte-identity
    // contract. All default off: the historical search trajectory — and the
    // golden CSVs — are reproduced bit for bit unless a pass is enabled.
    bool use_vivification = false;  ///< assume-and-propagate clause shortening
    bool use_xor_recovery = false;  ///< CNF XOR detection + GF(2) elimination
    bool use_bve = false;           ///< bounded variable elimination
    std::uint64_t inprocess_interval = 8192;  ///< conflicts between rounds

    // Portfolio-backend configuration (sat/portfolio_backend.hpp; other
    // backends ignore these).
    int portfolio_width = 4;      ///< worker count K
    bool portfolio_race = false;  ///< true: wall-clock race tier (declared
                                  ///< non-deterministic, clause exchange on)
    std::int32_t share_lbd_max = 2;            ///< clause-exchange LBD bound
    std::uint64_t share_bytes_max = 1u << 20;  ///< clause-exchange pool byte cap
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

    /// Registry key of the backend this instance came from ("internal",
    /// "dimacs", ...).
    virtual const std::string& backend_name() const = 0;

    // ---- portfolio introspection -------------------------------------------
    /// Worker count for portfolio-style backends; 0 for single-engine
    /// backends (the CSV "internal fallback" idiom: reports render 0 / -1
    /// for non-portfolio rows).
    virtual int portfolio_width() const { return 0; }
    /// Index of the worker that decided the most recent Sat/Unsat solve;
    /// -1 when no solve has been decisive (or for single-engine backends).
    virtual int portfolio_last_winner() const { return -1; }
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
