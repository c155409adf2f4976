#pragma once
// Conflict-driven clause-learning (CDCL) SAT solver.
//
// This is the engine underneath the paper's security study: the oracle-
// guided SAT attack [8]/[37], Double DIP [12] and our SAT-based equivalence
// checker all run on it. Architecture follows MiniSat: two-watched-literal
// propagation, first-UIP conflict analysis with clause minimization, VSIDS
// decision heuristic with phase saving, Luby restarts, and activity/LBD-
// driven learnt-clause database reduction. The heuristic constants (decay
// factors, restart unit, reduction growth, glue bound) are fixed in
// solver.cpp.
//
// Additions for this project:
//  * solve() takes assumptions, enabling the incremental DIP loop without
//    re-encoding the miter each iteration.
//  * A resource budget (wall-clock seconds / conflicts / propagations);
//    exceeding it returns Result::Unknown — exactly the "t-o" semantics of
//    Table IV.
//  * Feature toggles (VSIDS / restarts / learning / phase saving) for the
//    solver-ablation benchmark.
//  * An inprocessing pipeline (clause vivification, XOR recovery with GF(2)
//    elimination, bounded variable elimination with model reconstruction),
//    scheduled at root-level points by conflict count and gated per pass by
//    SolverOptions, on top of a compacting clause arena (garbage_collect).
//  * A cache-lean core. Clauses live inline in one flat uint32 arena (layout
//    below), so a watcher visit is one load rather than two dependent
//    pointer hops; assignment values are kept per literal; each VSIDS heap
//    entry carries its variable's activity. The search takes exactly the
//    steps of the earlier clause-per-vector layout (same watcher order,
//    literal swaps, heap ties and compaction order), so every counter and
//    golden CSV is unchanged. Measured on the perfbench scaled_matrix
//    workload (shared 4-core box, medians of 10 alternating pairs):
//    campaign_s 16.0 -> 11.8 s, peak RSS 131 -> 112 MB, traced propagation
//    throughput 4.1 -> 7.1 M/s.
//
// Solver implements the abstract sat::SolverBackend interface and is
// registered as backend "internal" (sat/backend.hpp). The nested
// Options/Budget/Stats/Result names are aliases for the extracted
// backend-layer types, so historical sat::Solver::Options spellings keep
// compiling.

#include <cstdint>
#include <limits>
#include <vector>

#include "common/timer.hpp"
#include "sat/backend.hpp"
#include "sat/types.hpp"

namespace gshe::sat {

class Solver final : public SolverBackend {
public:
    using Result = SolveResult;
    using Options = SolverOptions;
    using Budget = SolverBudget;
    using Stats = SolverStats;

    Solver() : Solver(Options{}) {}
    explicit Solver(Options opts) : opts_(opts) {}

    // ---- problem construction ----------------------------------------------
    Var new_var() override;
    int num_vars() const override { return static_cast<int>(level_.size()); }

    /// Adds a clause. Returns false if the formula is already unsatisfiable
    /// at the root level (empty clause or conflicting units).
    bool add_clause(Clause c) override;
    using SolverBackend::add_clause;

    std::size_t num_clauses() const override {
        return clause_slots_ - tombstones_;
    }

    // ---- solving -----------------------------------------------------------
    Result solve(const std::vector<Lit>& assumptions) override;
    using SolverBackend::solve;

    /// Model value after Result::Sat (Undef for never-assigned vars).
    LBool model_value(Var v) const override {
        return model_.at(static_cast<std::size_t>(v));
    }

    /// Root-level (decision level 0) value of `l`, else Undef. Between
    /// solve calls the solver always sits at the root, fully propagated.
    LBool fixed_value(Lit l) const override {
        const auto v = static_cast<std::size_t>(l.var());
        if (v >= level_.size() || level_[v] != 0) return LBool::Undef;
        return value(l);
    }

    void set_budget(const Budget& b) override { budget_ = b; }
    using SolverBackend::set_budget;
    const Stats& stats() const override { return stats_; }
    const Options& options() const override { return opts_; }
    const std::string& backend_name() const override;

private:
    // Clause arena: every clause lives inline in arena_, addressed by the
    // word offset of its header (ClauseRef).
    //   word 0       size (bits 0-29) | kDeletedBit | kLearntBit
    //   words 1..n   the literals, as Lit::code() values
    //   learnt only  LBD word, then the activity double in two words (a
    //                float would reorder reduce_learnt_db's sort)
    // A clause that vivification shrinks pads its freed words with a
    // deleted pseudo-clause, so arena walks always find the next header.
    using ClauseRef = std::uint32_t;
    static constexpr ClauseRef kNoReason = std::numeric_limits<ClauseRef>::max();
    static constexpr std::uint32_t kLearntBit = 1u << 31;
    static constexpr std::uint32_t kDeletedBit = 1u << 30;
    static constexpr std::uint32_t kSizeMask = kDeletedBit - 1;
    static constexpr std::uint32_t kLearntTrailer = 3;  // LBD + activity

    struct Watcher {
        ClauseRef cref;
        Lit blocker;
    };

    std::uint32_t clause_size(ClauseRef cr) const { return arena_[cr] & kSizeMask; }
    bool clause_learnt(ClauseRef cr) const { return (arena_[cr] & kLearntBit) != 0; }
    bool clause_deleted(ClauseRef cr) const { return (arena_[cr] & kDeletedBit) != 0; }
    bool clause_live_irredundant(ClauseRef cr) const {
        return (arena_[cr] & (kDeletedBit | kLearntBit)) == 0;
    }
    Lit clause_lit(ClauseRef cr, std::uint32_t i) const {
        return Lit::from_code(static_cast<std::int32_t>(arena_[cr + 1 + i]));
    }
    Clause clause_lits(ClauseRef cr) const;
    /// Arena words from cr to the next header.
    std::uint32_t clause_words(ClauseRef cr) const {
        return 1 + clause_size(cr) + (clause_learnt(cr) ? kLearntTrailer : 0);
    }
    std::int32_t clause_lbd(ClauseRef cr) const {
        return static_cast<std::int32_t>(arena_[cr + 1 + clause_size(cr)]);
    }
    double clause_activity(ClauseRef cr) const;
    void set_clause_activity(ClauseRef cr, double a);

    // Assignment / trail. Values are kept per literal, so value(Lit) is
    // one load with no branch on the sign.
    LBool value(Lit l) const { return values_[static_cast<std::size_t>(l.code())]; }
    LBool value(Var v) const { return value(Lit(v, false)); }
    int level_of(Var v) const { return level_[static_cast<std::size_t>(v)]; }
    int current_level() const { return static_cast<int>(trail_lim_.size()); }

    void enqueue(Lit l, ClauseRef reason) {
        const auto v = static_cast<std::size_t>(l.var());
        values_[static_cast<std::size_t>(l.code())] = LBool::True;
        values_[static_cast<std::size_t>((~l).code())] = LBool::False;
        reason_[v] = reason;
        level_[v] = current_level();
        trail_.push_back(l);
    }
    ClauseRef propagate();
    void new_decision_level() { trail_lim_.push_back(static_cast<int>(trail_.size())); }
    void backtrack_to(int level);

    // Conflict analysis.
    void analyze(ClauseRef conflict, Clause& learnt, int& backtrack_level);
    bool literal_redundant(Lit l, std::uint32_t abstract_levels);
    std::int32_t compute_lbd(const Clause& c);

    // Shared root-level simplification behind add_clause and the
    // inprocessing passes. Sorts, drops false/duplicate literals,
    // detects tautologies, handles the unit/empty cases, and reintroduces
    // eliminated variables the clause mentions. `out` (optional) receives
    // the allocated ClauseRef, or kNoReason when no clause was stored.
    bool add_simplified(Clause c, ClauseRef* out = nullptr);

    // Decision heuristic.
    void bump_var(Var v);
    void decay_var_activity();
    void bump_clause(ClauseRef cr);
    void decay_clause_activity();
    Lit pick_branch_lit();
    void heap_insert(Var v);
    Var heap_pop();
    void heap_up(int i);
    void heap_down(int i);
    bool heap_contains(Var v) const { return heap_pos_[static_cast<std::size_t>(v)] >= 0; }

    // Clause management.
    /// Appends a clause to the arena (`lbd` is stored for learnt clauses
    /// only); throws std::length_error before an offset could reach
    /// kNoReason.
    ClauseRef alloc_clause(const Clause& lits, bool learnt, std::int32_t lbd);
    /// Rewrites an irredundant clause in place with `kept` (a subsequence
    /// of its literals) and pads the freed words.
    void shrink_clause(ClauseRef cr, const Clause& kept);
    void attach(ClauseRef cref);
    void detach(ClauseRef cref);
    void reduce_learnt_db();
    bool clause_locked(ClauseRef cref) const;

    // Clause arena: delete_clause detaches + tombstones (idempotent);
    // garbage_collect compacts arena_ and rewrites every stored ClauseRef
    // (watchers, reasons, learnts_). Only call GC from points that hold no
    // local ClauseRef.
    void delete_clause(ClauseRef cref);
    void garbage_collect();
    void maybe_gc();

    // Inprocessing (vivification / XOR recovery / BVE), run at root-level
    // points scheduled by stats_.conflicts against next_inprocess_.
    bool inprocessing_enabled() const {
        return opts_.use_vivification || opts_.use_xor_recovery ||
               opts_.use_bve;
    }
    void inprocess();
    void vivify();
    void recover_xors();
    void eliminate_variables();
    void reintroduce(Var v);
    void extend_model();

    bool is_assumption(Lit l) const {
        const auto code = static_cast<std::size_t>(l.code());
        return code < assume_mark_.size() && assume_mark_[code] != 0;
    }

    bool budget_exhausted() const;
    /// Luby sequence 1 1 2 1 1 2 4 ...: the restart-interval multiplier
    /// for the i-th restart (integer arithmetic, so the restart schedule is
    /// platform-identical).
    static std::uint64_t luby(std::uint64_t i);

    Options opts_;
    Budget budget_;
    Stats stats_;
    Timer solve_timer_;

    std::vector<std::uint32_t> arena_;
    std::vector<ClauseRef> learnts_;
    // Clauses allocated in the arena (tombstones included, padding not) and
    // deleted-but-not-yet-compacted ones; maybe_gc() reclaims the
    // tombstones once they dominate the arena.
    std::size_t clause_slots_ = 0;
    std::size_t tombstones_ = 0;

    std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::code()
    std::vector<LBool> values_;                  // indexed by Lit::code()
    std::vector<ClauseRef> reason_;
    std::vector<int> level_;
    std::vector<Lit> trail_;
    std::vector<int> trail_lim_;
    std::size_t qhead_ = 0;

    // VSIDS: activity_ is the per-var truth; each heap entry carries a copy
    // of its var's activity, so heap_up/heap_down compare adjacent memory.
    struct HeapEntry {
        double activity;
        Var var;
    };
    std::vector<double> activity_;
    std::vector<HeapEntry> heap_;  // binary max-heap of vars
    std::vector<int> heap_pos_;    // var -> index in heap_, -1 if absent
    std::vector<char> polarity_; // saved phase (1 = last assigned true)
    double var_inc_ = 1.0;
    double cla_inc_ = 1.0;

    // analyze() scratch.
    std::vector<char> seen_;
    std::vector<Lit> analyze_stack_;
    std::vector<Lit> analyze_clear_;

    // compute_lbd() scratch: per-decision-level stamps. A level is counted
    // once per call when its stamp is bumped to the current lbd_stamp_.
    std::vector<std::uint64_t> level_stamp_;
    std::uint64_t lbd_stamp_ = 0;

    // Assumption-literal marks for the current search (indexed by
    // Lit::code()), used by the mid-search assumption-conflict check and to
    // freeze assumption variables against BVE.
    std::vector<char> assume_mark_;
    std::vector<std::int32_t> assume_marked_codes_;

    // Bounded variable elimination: eliminated vars leave the clause DB and
    // the decision heuristic; their defining clauses live on this stack for
    // model reconstruction (extend_model) and reintroduction (a later
    // clause/assumption mentioning the var restores them).
    struct ElimEntry {
        Var v = kNoVar;
        std::vector<Clause> clauses;  // irredundant clauses removed with v
        bool live = true;
    };
    std::vector<ElimEntry> elim_stack_;
    std::vector<char> eliminated_;  // per-var: currently eliminated
    std::vector<int> elim_pos_;     // var -> live elim_stack_ index, -1
    std::uint64_t next_inprocess_ = 0;

    std::vector<LBool> model_;  // snapshot of the last satisfying assignment

    Result search(const std::vector<Lit>& assumptions);

    bool ok_ = true;  // false once root-level conflict is proven
};

}  // namespace gshe::sat
