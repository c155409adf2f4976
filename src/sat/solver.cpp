#include "sat/solver.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <map>
#include <stdexcept>

namespace gshe::sat {

namespace {

// Search-heuristic constants (MiniSat's defaults). Every counter pinned by
// PinnedTrajectory.* and every golden CSV depends on these exact values.
constexpr double kVarDecay = 0.95;          // VSIDS activity decay
constexpr double kClauseDecay = 0.999;      // learnt-clause activity decay
constexpr std::uint64_t kRestartBase = 128; // conflicts per Luby unit
constexpr bool kDefaultPhase = false;       // polarity with no saved phase
constexpr std::int32_t kGlueKeepLbd = 2;    // reduction keeps LBD <= this

}  // namespace

const std::string& Solver::backend_name() const {
    static const std::string name = "internal";
    return name;
}

Var Solver::new_var() {
    const Var v = static_cast<Var>(level_.size());
    values_.push_back(LBool::Undef);
    values_.push_back(LBool::Undef);
    reason_.push_back(kNoReason);
    level_.push_back(0);
    activity_.push_back(0.0);
    heap_pos_.push_back(-1);
    polarity_.push_back(kDefaultPhase ? 1 : 0);
    seen_.push_back(0);
    eliminated_.push_back(0);
    elim_pos_.push_back(-1);
    assume_mark_.push_back(0);
    assume_mark_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_insert(v);
    return v;
}

bool Solver::add_clause(Clause c) { return add_simplified(std::move(c)); }

bool Solver::add_simplified(Clause c, ClauseRef* out) {
    if (out != nullptr) *out = kNoReason;
    if (!ok_) return false;
    // A clause mentioning an eliminated variable reopens its elimination:
    // restore the stored clauses first so the new clause constrains a live
    // variable (BVE soundness for incremental use).
    if (!elim_stack_.empty())
        for (Lit l : c)
            if (eliminated_[static_cast<std::size_t>(l.var())] != 0)
                reintroduce(l.var());
    if (!ok_) return false;
    // Root-level simplification: drop false/duplicate lits, detect tautology.
    std::sort(c.begin(), c.end());
    Clause simplified;
    Lit prev = kUndefLit;
    for (Lit l : c) {
        if (l == prev) continue;
        if (prev != kUndefLit && l == ~prev) return true;  // tautology
        const LBool v = value(l);
        if (v == LBool::True && level_of(l.var()) == 0) return true;
        if (v == LBool::False && level_of(l.var()) == 0) {
            prev = l;
            continue;
        }
        simplified.push_back(l);
        prev = l;
    }
    if (simplified.empty()) {
        ok_ = false;
        return false;
    }
    if (simplified.size() == 1) {
        if (value(simplified[0]) == LBool::True) return true;
        if (value(simplified[0]) == LBool::False) {
            ok_ = false;
            return false;
        }
        enqueue(simplified[0], kNoReason);
        if (propagate() != kNoReason) {
            ok_ = false;
            return false;
        }
        return true;
    }
    const ClauseRef cref = alloc_clause(simplified, /*learnt=*/false, 0);
    attach(cref);
    if (out != nullptr) *out = cref;
    return true;
}

// ---- clause arena -----------------------------------------------------------

Solver::ClauseRef Solver::alloc_clause(const Clause& lits, bool learnt,
                                       std::int32_t lbd) {
    const std::size_t words = 1 + lits.size() + (learnt ? kLearntTrailer : 0);
    if (lits.size() > kSizeMask || arena_.size() + words > kNoReason)
        throw std::length_error("sat::Solver: clause arena exceeds 2^32-1 words");
    const auto cref = static_cast<ClauseRef>(arena_.size());
    arena_.push_back(static_cast<std::uint32_t>(lits.size()) |
                     (learnt ? kLearntBit : 0));
    for (Lit l : lits) arena_.push_back(static_cast<std::uint32_t>(l.code()));
    if (learnt) {
        arena_.push_back(static_cast<std::uint32_t>(lbd));
        arena_.resize(arena_.size() + 2);
        set_clause_activity(cref, 0.0);
    }
    ++clause_slots_;
    return cref;
}

void Solver::shrink_clause(ClauseRef cr, const Clause& kept) {
    const std::uint32_t old_size = clause_size(cr);
    const auto new_size = static_cast<std::uint32_t>(kept.size());
    for (std::uint32_t i = 0; i < new_size; ++i)
        arena_[cr + 1 + i] = static_cast<std::uint32_t>(kept[i].code());
    arena_[cr] = (arena_[cr] & ~kSizeMask) | new_size;
    // The freed words become one deleted pseudo-clause (a header whose size
    // covers the rest). It is not a tombstone: num_clauses() and maybe_gc()
    // never count it, and the next garbage_collect drops it.
    if (new_size < old_size)
        arena_[cr + 1 + new_size] = kDeletedBit | (old_size - new_size - 1);
}

Clause Solver::clause_lits(ClauseRef cr) const {
    Clause c(clause_size(cr));
    for (std::uint32_t i = 0; i < c.size(); ++i) c[i] = clause_lit(cr, i);
    return c;
}

double Solver::clause_activity(ClauseRef cr) const {
    double a;
    std::memcpy(&a, &arena_[cr + 2 + clause_size(cr)], sizeof a);
    return a;
}

void Solver::set_clause_activity(ClauseRef cr, double a) {
    std::memcpy(&arena_[cr + 2 + clause_size(cr)], &a, sizeof a);
}

void Solver::attach(ClauseRef cref) {
    const Lit l0 = clause_lit(cref, 0), l1 = clause_lit(cref, 1);
    watches_[static_cast<std::size_t>((~l0).code())].push_back({cref, l1});
    watches_[static_cast<std::size_t>((~l1).code())].push_back({cref, l0});
}

void Solver::detach(ClauseRef cref) {
    for (std::uint32_t i = 0; i < 2; ++i) {
        auto& ws = watches_[static_cast<std::size_t>((~clause_lit(cref, i)).code())];
        for (std::size_t j = 0; j < ws.size(); ++j)
            if (ws[j].cref == cref) {
                ws[j] = ws.back();
                ws.pop_back();
                break;
            }
    }
}

Solver::ClauseRef Solver::propagate() {
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        ++stats_.propagations;
        const auto not_p = static_cast<std::uint32_t>((~p).code());
        auto& ws = watches_[static_cast<std::size_t>(p.code())];
        Watcher* i = ws.data();
        Watcher* keep = i;
        Watcher* const end = i + ws.size();
        while (i != end) {
            const Watcher w = *i++;
            // Fast path: blocker already true.
            if (value(w.blocker) == LBool::True) {
                *keep++ = w;
                continue;
            }
            std::uint32_t* const header = arena_.data() + w.cref;
            std::uint32_t* const lits = header + 1;
            // Normalize: false watched literal at position 1.
            if (lits[0] == not_p) std::swap(lits[0], lits[1]);
            const Lit first = Lit::from_code(static_cast<std::int32_t>(lits[0]));
            if (value(first) == LBool::True) {
                *keep++ = {w.cref, first};
                continue;
            }
            // Find a new watch.
            const std::uint32_t size = *header & kSizeMask;
            bool found = false;
            for (std::uint32_t k = 2; k < size; ++k) {
                const Lit q = Lit::from_code(static_cast<std::int32_t>(lits[k]));
                if (value(q) != LBool::False) {
                    lits[k] = lits[1];
                    lits[1] = static_cast<std::uint32_t>(q.code());
                    watches_[static_cast<std::size_t>((~q).code())].push_back(
                        {w.cref, first});
                    found = true;
                    break;
                }
            }
            if (found) continue;  // watcher moved; do not keep here
            // Clause is unit or conflicting.
            *keep++ = {w.cref, first};
            if (value(first) == LBool::False) {
                // Conflict: restore untouched watchers and bail out.
                while (i != end) *keep++ = *i++;
                ws.resize(static_cast<std::size_t>(keep - ws.data()));
                qhead_ = trail_.size();
                return w.cref;
            }
            enqueue(first, w.cref);
        }
        ws.resize(static_cast<std::size_t>(keep - ws.data()));
    }
    return kNoReason;
}

void Solver::backtrack_to(int target_level) {
    if (current_level() <= target_level) return;
    const int first = trail_lim_[static_cast<std::size_t>(target_level)];
    for (int i = static_cast<int>(trail_.size()) - 1; i >= first; --i) {
        const Var v = trail_[static_cast<std::size_t>(i)].var();
        const auto vi = static_cast<std::size_t>(v);
        if (opts_.use_phase_saving)
            polarity_[vi] = value(v) == LBool::True ? 1 : 0;
        values_[2 * vi] = LBool::Undef;
        values_[2 * vi + 1] = LBool::Undef;
        reason_[vi] = kNoReason;
        if (!heap_contains(v)) heap_insert(v);
    }
    trail_.resize(static_cast<std::size_t>(first));
    trail_lim_.resize(static_cast<std::size_t>(target_level));
    qhead_ = trail_.size();
}

std::int32_t Solver::compute_lbd(const Clause& c) {
    // Number of distinct decision levels; small LBD = high-quality clause.
    // O(|c|) via per-level stamps: a level is counted the first time its
    // stamp is bumped to this call's lbd_stamp_; bumping the stamp value
    // resets every mark at once, so no per-call clearing pass is needed.
    ++lbd_stamp_;
    // Indexed by level_of(), which for the (currently unassigned) asserting
    // literal is its pre-backtrack level — so size by the level ceiling, the
    // variable count, not the current trail depth.
    const auto nv = static_cast<std::size_t>(num_vars());
    if (level_stamp_.size() <= nv) level_stamp_.resize(nv + 1, 0);
    std::int32_t lbd = 0;
    for (Lit l : c) {
        const int lv = level_of(l.var());
        if (lv == 0) continue;
        auto& stamp = level_stamp_[static_cast<std::size_t>(lv)];
        if (stamp != lbd_stamp_) {
            stamp = lbd_stamp_;
            ++lbd;
        }
    }
    return lbd;
}

void Solver::analyze(ClauseRef conflict, Clause& learnt, int& backtrack_level) {
    learnt.clear();
    learnt.push_back(kUndefLit);  // slot for the asserting literal

    int counter = 0;
    Lit p = kUndefLit;
    std::size_t index = trail_.size();
    ClauseRef reason = conflict;

    // First-UIP resolution walk over the trail.
    do {
        if (clause_learnt(reason)) bump_clause(reason);
        const std::uint32_t size = clause_size(reason);
        for (std::uint32_t j = (p == kUndefLit ? 0 : 1); j < size; ++j) {
            const Lit q = clause_lit(reason, j);
            const auto qv = static_cast<std::size_t>(q.var());
            if (seen_[qv] || level_of(q.var()) == 0) continue;
            seen_[qv] = 1;
            bump_var(q.var());
            if (level_of(q.var()) >= current_level())
                ++counter;
            else
                learnt.push_back(q);
        }
        // Next literal to resolve on.
        while (!seen_[static_cast<std::size_t>(trail_[index - 1].var())]) --index;
        p = trail_[--index];
        reason = reason_[static_cast<std::size_t>(p.var())];
        seen_[static_cast<std::size_t>(p.var())] = 0;
        --counter;
    } while (counter > 0);
    learnt[0] = ~p;

    // Clause minimization: drop literals whose reason is subsumed.
    analyze_clear_.assign(learnt.begin(), learnt.end());
    std::uint32_t abstract_levels = 0;
    for (std::size_t i = 1; i < learnt.size(); ++i)
        abstract_levels |= 1u << (level_of(learnt[i].var()) & 31);
    std::size_t out = 1;
    for (std::size_t i = 1; i < learnt.size(); ++i) {
        const auto v = static_cast<std::size_t>(learnt[i].var());
        if (reason_[v] == kNoReason || !literal_redundant(learnt[i], abstract_levels))
            learnt[out++] = learnt[i];
    }
    learnt.resize(out);
    for (Lit l : analyze_clear_) seen_[static_cast<std::size_t>(l.var())] = 0;
    analyze_clear_.clear();

    // Backtrack level = second-highest level in the learnt clause.
    if (learnt.size() == 1) {
        backtrack_level = 0;
    } else {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < learnt.size(); ++i)
            if (level_of(learnt[i].var()) > level_of(learnt[max_i].var())) max_i = i;
        std::swap(learnt[1], learnt[max_i]);
        backtrack_level = level_of(learnt[1].var());
    }
}

bool Solver::literal_redundant(Lit l, std::uint32_t abstract_levels) {
    analyze_stack_.clear();
    analyze_stack_.push_back(l);
    const std::size_t top = analyze_clear_.size();
    while (!analyze_stack_.empty()) {
        const Lit cur = analyze_stack_.back();
        analyze_stack_.pop_back();
        const auto cv = static_cast<std::size_t>(cur.var());
        const ClauseRef r = reason_[cv];
        if (r == kNoReason) continue;  // decision reached: handled by caller guard
        const std::uint32_t size = clause_size(r);
        for (std::uint32_t j = 1; j < size; ++j) {
            const Lit q = clause_lit(r, j);
            const auto qv = static_cast<std::size_t>(q.var());
            if (seen_[qv] || level_of(q.var()) == 0) continue;
            if (reason_[qv] == kNoReason ||
                ((1u << (level_of(q.var()) & 31)) & abstract_levels) == 0) {
                // Not removable: undo marks made during this check.
                for (std::size_t k = top; k < analyze_clear_.size(); ++k)
                    seen_[static_cast<std::size_t>(analyze_clear_[k].var())] = 0;
                analyze_clear_.resize(top);
                return false;
            }
            seen_[qv] = 1;
            analyze_clear_.push_back(q);
            analyze_stack_.push_back(q);
        }
    }
    return true;
}

void Solver::bump_var(Var v) {
    const auto vi = static_cast<std::size_t>(v);
    activity_[vi] += var_inc_;
    if (activity_[vi] > 1e100) {
        for (double& a : activity_) a *= 1e-100;
        for (HeapEntry& e : heap_) e.activity *= 1e-100;
        var_inc_ *= 1e-100;
    }
    if (heap_contains(v)) {
        const int i = heap_pos_[vi];
        heap_[static_cast<std::size_t>(i)].activity = activity_[vi];
        heap_up(i);
    }
}

void Solver::bump_clause(ClauseRef cr) {
    const double a = clause_activity(cr) + cla_inc_;
    set_clause_activity(cr, a);
    if (a > 1e20) {
        for (ClauseRef l : learnts_) set_clause_activity(l, clause_activity(l) * 1e-20);
        cla_inc_ *= 1e-20;
    }
}

void Solver::decay_var_activity() { var_inc_ /= kVarDecay; }

void Solver::decay_clause_activity() { cla_inc_ /= kClauseDecay; }

// ---- decision heap ---------------------------------------------------------

void Solver::heap_insert(Var v) {
    const auto vi = static_cast<std::size_t>(v);
    heap_pos_[vi] = static_cast<int>(heap_.size());
    heap_.push_back({activity_[vi], v});
    heap_up(static_cast<int>(heap_.size()) - 1);
}

void Solver::heap_up(int i) {
    const HeapEntry e = heap_[static_cast<std::size_t>(i)];
    while (i > 0) {
        const int parent = (i - 1) / 2;
        const HeapEntry& pe = heap_[static_cast<std::size_t>(parent)];
        if (pe.activity >= e.activity) break;
        heap_[static_cast<std::size_t>(i)] = pe;
        heap_pos_[static_cast<std::size_t>(pe.var)] = i;
        i = parent;
    }
    heap_[static_cast<std::size_t>(i)] = e;
    heap_pos_[static_cast<std::size_t>(e.var)] = i;
}

void Solver::heap_down(int i) {
    const HeapEntry e = heap_[static_cast<std::size_t>(i)];
    const int n = static_cast<int>(heap_.size());
    while (true) {
        int child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && heap_[static_cast<std::size_t>(child + 1)].activity >
                                 heap_[static_cast<std::size_t>(child)].activity)
            ++child;
        const HeapEntry& ce = heap_[static_cast<std::size_t>(child)];
        if (e.activity >= ce.activity) break;
        heap_[static_cast<std::size_t>(i)] = ce;
        heap_pos_[static_cast<std::size_t>(ce.var)] = i;
        i = child;
    }
    heap_[static_cast<std::size_t>(i)] = e;
    heap_pos_[static_cast<std::size_t>(e.var)] = i;
}

Var Solver::heap_pop() {
    const Var v = heap_[0].var;
    heap_pos_[static_cast<std::size_t>(v)] = -1;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heap_pos_[static_cast<std::size_t>(last.var)] = 0;
        heap_down(0);
    }
    return v;
}

Lit Solver::pick_branch_lit() {
    Var v = kNoVar;
    if (opts_.use_vsids) {
        while (!heap_.empty()) {
            v = heap_pop();
            if (value(v) == LBool::Undef &&
                eliminated_[static_cast<std::size_t>(v)] == 0)
                break;
            v = kNoVar;
        }
    } else {
        for (Var u = 0; u < num_vars(); ++u)
            if (value(u) == LBool::Undef &&
                eliminated_[static_cast<std::size_t>(u)] == 0) {
                v = u;
                break;
            }
    }
    if (v == kNoVar) return kUndefLit;
    const bool phase = opts_.use_phase_saving
                           ? polarity_[static_cast<std::size_t>(v)] != 0
                           : kDefaultPhase;
    return Lit(v, !phase);
}

// ---- learnt DB reduction ----------------------------------------------------

bool Solver::clause_locked(ClauseRef cref) const {
    const Lit first = clause_lit(cref, 0);
    return value(first) == LBool::True &&
           reason_[static_cast<std::size_t>(first.var())] == cref;
}

void Solver::reduce_learnt_db() {
    // Keep glue clauses (LBD <= kGlueKeepLbd) and the most active half of
    // the rest.
    std::vector<ClauseRef> candidates;
    for (ClauseRef cr : learnts_)
        if (!clause_deleted(cr) && clause_lbd(cr) > kGlueKeepLbd &&
            !clause_locked(cr))
            candidates.push_back(cr);
    std::sort(candidates.begin(), candidates.end(),
              [&](ClauseRef a, ClauseRef b) {
                  return clause_activity(a) < clause_activity(b);
              });
    const std::size_t remove = candidates.size() / 2;
    for (std::size_t i = 0; i < remove; ++i) delete_clause(candidates[i]);
    learnts_.erase(std::remove_if(learnts_.begin(), learnts_.end(),
                                  [&](ClauseRef cr) { return clause_deleted(cr); }),
                   learnts_.end());
}

// ---- clause deletion and compaction ------------------------------------------

void Solver::delete_clause(ClauseRef cref) {
    if (clause_deleted(cref)) return;
    detach(cref);
    arena_[cref] |= kDeletedBit;
    ++tombstones_;
    ++stats_.removed_clauses;
}

void Solver::garbage_collect() {
    if (tombstones_ == 0) return;
    // The inprocessing passes tombstone learnts without touching learnts_
    // bookkeeping; purge those entries before remapping.
    learnts_.erase(std::remove_if(learnts_.begin(), learnts_.end(),
                                  [&](ClauseRef cr) { return clause_deleted(cr); }),
                   learnts_.end());
    // Compact the arena in place (order-preserving, so watcher traversal and
    // reduce candidate order — and with them the search trajectory — are
    // unchanged), then rewrite every stored ClauseRef. The live clauses'
    // old offsets come out sorted, so a binary search maps old to new.
    std::vector<ClauseRef> old_refs, new_refs;
    std::size_t out = 0;
    for (std::size_t cr = 0; cr < arena_.size();) {
        const auto ref = static_cast<ClauseRef>(cr);
        const std::uint32_t words = clause_words(ref);
        if (!clause_deleted(ref)) {
            old_refs.push_back(ref);
            new_refs.push_back(static_cast<ClauseRef>(out));
            if (out != cr)
                std::copy(arena_.begin() + static_cast<std::ptrdiff_t>(cr),
                          arena_.begin() + static_cast<std::ptrdiff_t>(cr + words),
                          arena_.begin() + static_cast<std::ptrdiff_t>(out));
            out += words;
        }
        cr += words;
    }
    arena_.resize(out);
    const auto relocate = [&](ClauseRef cr) {
        const auto it = std::lower_bound(old_refs.begin(), old_refs.end(), cr);
        return it != old_refs.end() && *it == cr
                   ? new_refs[static_cast<std::size_t>(it - old_refs.begin())]
                   : kNoReason;
    };
    for (auto& ws : watches_)
        for (Watcher& w : ws) w.cref = relocate(w.cref);
    // Locked (reason) clauses are never deleted, so every live reason
    // relocates to a live clause; a root-level reason whose clause an
    // inprocessing pass deleted becomes kNoReason.
    for (ClauseRef& r : reason_)
        if (r != kNoReason) r = relocate(r);
    for (ClauseRef& cr : learnts_) cr = relocate(cr);
    clause_slots_ -= tombstones_;
    tombstones_ = 0;
    ++stats_.gc_runs;
}

void Solver::maybe_gc() {
    // Compact once tombstones dominate the arena; the absolute floor keeps
    // tiny problems from thrashing.
    if (tombstones_ >= 64 && tombstones_ * 2 >= clause_slots_) garbage_collect();
}

// ---- inprocessing -----------------------------------------------------------
//
// All passes run at the root level with a clean trail and are pure
// functions of the solver's own state, so any fixed configuration stays
// deterministic across thread counts, shards, and resume points. Work done
// here counts toward stats_.propagations (and thus the budget), never
// toward stats_.conflicts — temporary vivification conflicts must not
// perturb the restart/reduce/inprocess schedules.

namespace {

// Per-pass work bounds (constants, not options: they only cap pathological
// instances and are far above anything the test/bench corpus reaches).
constexpr std::uint64_t kVivifyPropBudget = 200000;  // propagations per pass
constexpr std::size_t kXorMaxArity = 4;              // clause width for XOR detection
constexpr std::size_t kBveMaxOccProduct = 100;       // |P|*|N| cap per candidate
constexpr std::size_t kBveMaxResolventLen = 16;      // resolvent length cap

}  // namespace

void Solver::inprocess() {
    // Root facts need no reasons (they are consequences of the formula
    // alone); clearing them unlocks every clause for deletion and GC.
    for (Lit l : trail_) reason_[static_cast<std::size_t>(l.var())] = kNoReason;
    ++stats_.inprocessings;
    if (opts_.use_vivification && ok_) vivify();
    if (opts_.use_xor_recovery && ok_) recover_xors();
    if (opts_.use_bve && ok_) eliminate_variables();
    maybe_gc();
}

void Solver::vivify() {
    // Assume-and-propagate shortening of long irredundant clauses: with the
    // clause detached, assume the negation of a growing prefix. A literal
    // already false under the prefix is redundant; a literal propagated true
    // (or a conflict) proves the prefix alone is an implied clause.
    std::vector<ClauseRef> candidates;
    for (ClauseRef cr = 0; cr < arena_.size(); cr += clause_words(cr))
        if (clause_live_irredundant(cr) && clause_size(cr) >= 3) candidates.push_back(cr);
    const std::uint64_t prop_limit = stats_.propagations + kVivifyPropBudget;
    for (ClauseRef cr : candidates) {
        if (!ok_ || stats_.propagations > prop_limit) return;
        if (clause_deleted(cr) || clause_size(cr) < 3) continue;
        const Clause original = clause_lits(cr);
        // Root-satisfied clauses are implied by unit facts: drop them.
        if (std::any_of(original.begin(), original.end(),
                        [&](Lit l) { return value(l) == LBool::True; })) {
            delete_clause(cr);
            continue;
        }
        detach(cr);
        Clause kept;
        for (Lit l : original) {
            const LBool v = value(l);
            if (v == LBool::False) continue;  // redundant under the prefix
            kept.push_back(l);
            if (v == LBool::True) break;  // prefix implies l: clause = kept
            new_decision_level();
            enqueue(~l, kNoReason);
            if (propagate() != kNoReason) break;  // prefix refuted: clause = kept
        }
        backtrack_to(0);
        if (kept.size() == original.size()) {
            attach(cr);
            continue;
        }
        stats_.vivified_lits += original.size() - kept.size();
        if (kept.empty()) {
            // Every literal false at the root: the formula is unsatisfiable.
            delete_clause(cr);
            ok_ = false;
            return;
        }
        if (kept.size() == 1) {
            delete_clause(cr);
            if (value(kept[0]) == LBool::False) {
                ok_ = false;
                return;
            }
            if (value(kept[0]) == LBool::Undef) {
                enqueue(kept[0], kNoReason);
                if (propagate() != kNoReason) {
                    ok_ = false;
                    return;
                }
            }
            continue;
        }
        shrink_clause(cr, kept);
        attach(cr);
    }
}

void Solver::recover_xors() {
    // A k-ary XOR constraint hides in the CNF as the 2^(k-1) clauses over
    // one variable set whose forbidden points share a parity. Recover those
    // rows, forward-eliminate them over GF(2), then harvest the reduction:
    // an inconsistent empty row refutes the formula, redundant rows delete
    // their source clauses, and rows the elimination shrank to <= 3 vars
    // re-encode as short clauses replacing their sources (units propagate
    // immediately, pairs become equivalences). Rows the elimination left
    // unchanged — or grew past the re-encode width — keep their original
    // clause encoding, so the system stays logically equivalent throughout.
    struct Row {
        std::vector<Var> vars;  // sorted
        bool rhs = false;
        std::vector<ClauseRef> sources;
    };
    struct Bucket {
        // mask bit i set = literal of the i-th (sorted) var is negated; the
        // clause forbids exactly the point assigning each var its mask bit.
        std::vector<std::pair<std::uint32_t, ClauseRef>> even, odd;
    };
    std::map<std::vector<Var>, Bucket> buckets;
    std::vector<Var> vars;
    Clause c;
    for (ClauseRef cr = 0; cr < arena_.size(); cr += clause_words(cr)) {
        if (!clause_live_irredundant(cr) || clause_size(cr) < 2 ||
            clause_size(cr) > kXorMaxArity)
            continue;
        c = clause_lits(cr);
        vars.clear();
        bool assigned = false;
        for (Lit l : c) {
            if (value(l) != LBool::Undef) {
                assigned = true;
                break;
            }
            vars.push_back(l.var());
        }
        if (assigned) continue;
        std::sort(vars.begin(), vars.end());
        std::uint32_t mask = 0;
        int parity = 0;
        for (Lit l : c) {
            if (!l.negated()) continue;
            const auto pos = std::lower_bound(vars.begin(), vars.end(), l.var());
            mask |= 1u << (pos - vars.begin());
            parity ^= 1;
        }
        Bucket& b = buckets[vars];
        (parity == 0 ? b.even : b.odd).emplace_back(mask, cr);
    }

    std::vector<Row> detected;
    for (auto& [key, bucket] : buckets) {
        const std::size_t need = std::size_t{1} << (key.size() - 1);
        for (int parity = 0; parity < 2; ++parity) {
            auto& entries = parity == 0 ? bucket.even : bucket.odd;
            if (entries.size() < need) continue;
            std::sort(entries.begin(), entries.end());
            entries.erase(std::unique(entries.begin(), entries.end(),
                                      [](const auto& a, const auto& b) {
                                          return a.first == b.first;
                                      }),
                          entries.end());
            if (entries.size() != need) continue;
            // All same-parity points forbidden: the satisfying points have
            // the opposite parity, i.e. XOR(vars) = parity ^ 1.
            Row row;
            row.vars = key;
            row.rhs = parity == 0;
            for (const auto& [mask, cr] : entries) row.sources.push_back(cr);
            detected.push_back(std::move(row));
            ++stats_.xors_recovered;
        }
    }
    if (detected.empty()) return;

    // Forward Gaussian elimination: reduce each row by the pivots found so
    // far (pivot = smallest var of its reduced row). Detection order is the
    // bucket-map order, so the whole pass is deterministic.
    const auto xor_into = [](Row& r, const Row& pivot) {
        std::vector<Var> merged;
        std::set_symmetric_difference(r.vars.begin(), r.vars.end(),
                                      pivot.vars.begin(), pivot.vars.end(),
                                      std::back_inserter(merged));
        r.vars = std::move(merged);
        r.rhs = r.rhs != pivot.rhs;
    };
    const auto encode_mask = [&](const Row& r, std::uint32_t mask) {
        Clause c;
        for (std::size_t i = 0; i < r.vars.size(); ++i)
            c.push_back(Lit(r.vars[i], (mask & (1u << i)) != 0));
        add_simplified(std::move(c));
    };
    std::vector<Row> pivots;
    std::map<Var, std::size_t> pivot_of;
    for (Row& row : detected) {
        Row reduced;
        reduced.vars = row.vars;
        reduced.rhs = row.rhs;
        while (!reduced.vars.empty()) {
            const auto it = pivot_of.find(reduced.vars.front());
            if (it == pivot_of.end()) break;
            xor_into(reduced, pivots[it->second]);
        }
        if (reduced.vars.empty()) {
            if (reduced.rhs) {
                ok_ = false;  // 1 = 0: the XOR system is inconsistent
                return;
            }
            // Redundant row: its sources are implied by earlier rows.
            for (ClauseRef cr : row.sources) delete_clause(cr);
            continue;
        }
        pivot_of[reduced.vars.front()] = pivots.size();
        const bool changed = reduced.vars != row.vars || reduced.rhs != row.rhs;
        if (changed && reduced.vars.size() <= 3) {
            for (ClauseRef cr : row.sources) delete_clause(cr);
            // Clauses of the reduced row: every sign mask whose parity is
            // rhs ^ 1 (its forbidden point has the wrong parity).
            const auto width = static_cast<std::uint32_t>(reduced.vars.size());
            for (std::uint32_t mask = 0; mask < (1u << width); ++mask) {
                if ((std::popcount(mask) & 1) == (reduced.rhs ? 1 : 0)) continue;
                encode_mask(reduced, mask);
                if (!ok_) return;
            }
        }
        pivots.push_back(std::move(reduced));
    }
}

void Solver::eliminate_variables() {
    // Bounded variable elimination by clause distribution: replace the
    // clauses containing v with their non-tautological v-resolvents when
    // that does not grow the clause count. Assumption variables of the
    // running search are frozen; root-assigned and unused vars are skipped.
    std::vector<std::vector<ClauseRef>> occ(watches_.size());
    for (ClauseRef cr = 0; cr < arena_.size(); cr += clause_words(cr)) {
        if (clause_deleted(cr)) continue;
        for (std::uint32_t i = 0; i < clause_size(cr); ++i)
            occ[static_cast<std::size_t>(clause_lit(cr, i).code())].push_back(cr);
    }
    std::vector<Clause> resolvents;
    for (Var v = 0; v < num_vars() && ok_; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        if (eliminated_[vi] != 0 || value(v) != LBool::Undef) continue;
        const Lit pos(v, false);
        const Lit neg(v, true);
        if (is_assumption(pos) || is_assumption(neg)) continue;
        std::vector<ClauseRef> p_refs, n_refs;
        for (ClauseRef cr : occ[static_cast<std::size_t>(pos.code())])
            if (clause_live_irredundant(cr)) p_refs.push_back(cr);
        for (ClauseRef cr : occ[static_cast<std::size_t>(neg.code())])
            if (clause_live_irredundant(cr)) n_refs.push_back(cr);
        if (p_refs.empty() && n_refs.empty()) continue;  // unused var
        if (p_refs.size() * n_refs.size() > kBveMaxOccProduct) continue;

        // Distribute: every P x N resolvent, tautologies dropped; bail out
        // if the result would outgrow the clauses it replaces.
        resolvents.clear();
        bool too_big = false;
        for (ClauseRef pr : p_refs) {
            for (ClauseRef nr : n_refs) {
                Clause r;
                for (std::uint32_t i = 0; i < clause_size(pr); ++i)
                    if (clause_lit(pr, i) != pos) r.push_back(clause_lit(pr, i));
                for (std::uint32_t i = 0; i < clause_size(nr); ++i)
                    if (clause_lit(nr, i) != neg) r.push_back(clause_lit(nr, i));
                std::sort(r.begin(), r.end());
                r.erase(std::unique(r.begin(), r.end()), r.end());
                bool taut = false;
                for (std::size_t i = 0; i + 1 < r.size(); ++i)
                    if (r[i] == ~r[i + 1]) {
                        taut = true;
                        break;
                    }
                if (taut) continue;
                if (r.size() > kBveMaxResolventLen) {
                    too_big = true;
                    break;
                }
                resolvents.push_back(std::move(r));
                if (resolvents.size() > p_refs.size() + n_refs.size()) {
                    too_big = true;
                    break;
                }
            }
            if (too_big) break;
        }
        if (too_big) continue;

        // Commit: stash the defining clauses for model reconstruction and
        // reintroduction, delete every clause containing v (learnts
        // included — they are implied, hence deletable), add the resolvents.
        ElimEntry entry;
        entry.v = v;
        for (ClauseRef cr : p_refs) entry.clauses.push_back(clause_lits(cr));
        for (ClauseRef cr : n_refs) entry.clauses.push_back(clause_lits(cr));
        for (const Lit l : {pos, neg})
            for (ClauseRef cr : occ[static_cast<std::size_t>(l.code())])
                delete_clause(cr);
        eliminated_[vi] = 1;
        elim_pos_[vi] = static_cast<int>(elim_stack_.size());
        elim_stack_.push_back(std::move(entry));
        ++stats_.eliminated_vars;
        for (Clause& r : resolvents) {
            ClauseRef added = kNoReason;
            if (!add_simplified(std::move(r), &added))
                return;  // root conflict: ok_ is false
            if (added != kNoReason)
                for (std::uint32_t i = 0; i < clause_size(added); ++i)
                    occ[static_cast<std::size_t>(clause_lit(added, i).code())]
                        .push_back(added);
        }
    }
}

void Solver::reintroduce(Var v) {
    // Restoring v's stored clauses may mention further eliminated vars:
    // collect the whole cascade first (clearing the flags so add_simplified
    // below does not recurse), then re-add every stored clause.
    std::vector<std::size_t> entries;
    std::vector<Var> work{v};
    while (!work.empty()) {
        const Var u = work.back();
        work.pop_back();
        const auto ui = static_cast<std::size_t>(u);
        if (eliminated_[ui] == 0) continue;
        eliminated_[ui] = 0;
        const auto pos = static_cast<std::size_t>(elim_pos_[ui]);
        elim_pos_[ui] = -1;
        elim_stack_[pos].live = false;
        entries.push_back(pos);
        for (const Clause& c : elim_stack_[pos].clauses)
            for (Lit l : c)
                if (eliminated_[static_cast<std::size_t>(l.var())] != 0)
                    work.push_back(l.var());
        if (!heap_contains(u) && value(u) == LBool::Undef) heap_insert(u);
    }
    std::sort(entries.begin(), entries.end());
    for (std::size_t pos : entries)
        for (Clause& c : elim_stack_[pos].clauses)
            if (!add_simplified(std::move(c)))
                return;  // ok_ is false
    // Dead tail entries can go; interior ones keep their stack positions.
    while (!elim_stack_.empty() && !elim_stack_.back().live)
        elim_stack_.pop_back();
}

void Solver::extend_model() {
    // Replay the elimination stack newest-first: by construction an entry's
    // stored clauses only mention vars that are live or were eliminated
    // later (and thus already have model values), so each v just needs to
    // satisfy whichever of its stored clauses the rest of the model does
    // not. BVE soundness (the resolvents stayed in the formula) guarantees
    // no two clauses force opposite values.
    for (auto it = elim_stack_.rbegin(); it != elim_stack_.rend(); ++it) {
        if (!it->live) continue;
        const auto vi = static_cast<std::size_t>(it->v);
        LBool val = LBool::False;
        for (const Clause& c : it->clauses) {
            bool satisfied = false;
            Lit vlit = kUndefLit;
            for (Lit l : c) {
                if (l.var() == it->v) {
                    vlit = l;
                    continue;
                }
                const LBool mv = model_[static_cast<std::size_t>(l.var())];
                if (mv == (l.negated() ? LBool::False : LBool::True)) {
                    satisfied = true;
                    break;
                }
            }
            if (!satisfied && vlit != kUndefLit)
                val = vlit.negated() ? LBool::False : LBool::True;
        }
        model_[vi] = val;
    }
}

// ---- main search ------------------------------------------------------------

std::uint64_t Solver::luby(std::uint64_t x) {
    // Luby sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... for x = 0, 1, 2, ...
    // (port of the MiniSat reference implementation with base 2).
    std::uint64_t size = 1, seq = 0;
    while (size < x + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        --seq;
        x %= size;
    }
    return 1ULL << seq;
}

bool Solver::budget_exhausted() const {
    if (stats_.conflicts > budget_.max_conflicts) return true;
    if (stats_.propagations > budget_.max_propagations) return true;
    // Wall-clock checks are throttled by the caller (every 1024 conflicts).
    return solve_timer_.seconds() > budget_.max_seconds;
}

Solver::Result Solver::solve(const std::vector<Lit>& assumptions) {
    if (!ok_) return Result::Unsat;
    solve_timer_.reset();
    const Result r = search(assumptions);
    // Always return at the root so the caller can add clauses incrementally.
    backtrack_to(0);
    return r;
}

Solver::Result Solver::search(const std::vector<Lit>& assumptions) {
    backtrack_to(0);
    // Mark this search's assumption literals (mid-search assumption-conflict
    // detection + BVE freezing) and reopen any eliminated assumption var.
    for (const std::int32_t code : assume_marked_codes_)
        assume_mark_[static_cast<std::size_t>(code)] = 0;
    assume_marked_codes_.clear();
    for (const Lit a : assumptions) {
        assume_mark_[static_cast<std::size_t>(a.code())] = 1;
        assume_marked_codes_.push_back(a.code());
        if (eliminated_[static_cast<std::size_t>(a.var())] != 0)
            reintroduce(a.var());
    }
    if (!ok_) return Result::Unsat;
    if (inprocessing_enabled() && stats_.conflicts >= next_inprocess_) {
        inprocess();
        if (!ok_) return Result::Unsat;
        next_inprocess_ = stats_.conflicts + opts_.inprocess_interval;
    }

    std::uint64_t restart_count = 0;
    // No-restart mode wants an unreachable threshold; compute the sentinel
    // directly instead of multiplying into a mod-2^64 wrap.
    std::uint64_t conflicts_until_restart =
        opts_.use_restarts ? kRestartBase * luby(restart_count)
                           : std::numeric_limits<std::uint64_t>::max();
    std::uint64_t conflicts_this_restart = 0;
    // Restarts at reduce_interval on every call while learnt_clauses is
    // cumulative (see SolverOptions::reduce_interval).
    std::uint64_t next_reduce = opts_.reduce_interval;
    std::uint64_t last_budget_check = 0;

    while (true) {
        const ClauseRef conflict = propagate();
        if (conflict != kNoReason) {
            ++stats_.conflicts;
            ++conflicts_this_restart;
            if (current_level() == 0) {
                // Root conflict: the formula itself is refuted (assumptions
                // live on decision levels >= 1). Latch ok_ so later
                // incremental calls stay Unsat — propagate() consumed the
                // conflicting queue (qhead_), so a fresh solve would not
                // rediscover it.
                ok_ = false;
                return Result::Unsat;
            }

            if (opts_.use_learning) {
                Clause learnt;
                int bt_level = 0;
                analyze(conflict, learnt, bt_level);
                // Never backtrack past the assumptions.
                const int assume_level =
                    std::min<int>(static_cast<int>(assumptions.size()), current_level() - 1);
                // A backtrack into the assumption prefix means the learnt
                // clause is falsified by earlier assumptions alone. Its
                // asserting literal still gets enqueued (it is implied by
                // that prefix), but if its negation IS one of the
                // assumptions, the assumption set is contradictory: answer
                // Unsat now instead of silently re-seeding and burning
                // budget until the re-seed loop trips over the false
                // assumption.
                const bool into_assumptions = bt_level < assume_level;
                backtrack_to(bt_level);
                if (learnt.size() == 1) {
                    if (value(learnt[0]) == LBool::False) {
                        // Learnt clauses are formula-implied (resolution over
                        // formula clauses only), so a learnt unit false at
                        // the root refutes the formula, not just the
                        // assumptions.
                        if (current_level() == 0) ok_ = false;
                        return Result::Unsat;
                    }
                    if (value(learnt[0]) == LBool::Undef) enqueue(learnt[0], kNoReason);
                    if (into_assumptions && is_assumption(~learnt[0]))
                        return Result::Unsat;
                } else {
                    const std::int32_t lbd = compute_lbd(learnt);
                    const ClauseRef cref = alloc_clause(learnt, /*learnt=*/true, lbd);
                    attach(cref);
                    learnts_.push_back(cref);
                    ++stats_.learnt_clauses;
                    enqueue(learnt[0], cref);
                    if (into_assumptions && is_assumption(~learnt[0]))
                        return Result::Unsat;
                }
                decay_var_activity();
                decay_clause_activity();
            } else {
                // Chronological backtracking without learning.
                if (current_level() <= static_cast<int>(assumptions.size())) {
                    if (current_level() == 0) ok_ = false;
                    return Result::Unsat;
                }
                const Lit flipped = trail_[static_cast<std::size_t>(
                    trail_lim_.back())];
                backtrack_to(current_level() - 1);
                if (value(~flipped) == LBool::Undef)
                    enqueue(~flipped, kNoReason);
                else
                    return Result::Unsat;
            }

            if (stats_.conflicts - last_budget_check >= 1024) {
                last_budget_check = stats_.conflicts;
                if (budget_exhausted()) return Result::Unknown;
            }
            if (opts_.use_restarts &&
                conflicts_this_restart >= conflicts_until_restart) {
                ++stats_.restarts;
                ++restart_count;
                conflicts_this_restart = 0;
                conflicts_until_restart = kRestartBase * luby(restart_count);
                backtrack_to(0);
                if (inprocessing_enabled() &&
                    stats_.conflicts >= next_inprocess_) {
                    inprocess();
                    if (!ok_) return Result::Unsat;
                    next_inprocess_ = stats_.conflicts + opts_.inprocess_interval;
                }
            }
            if (opts_.use_learning && stats_.learnt_clauses >= next_reduce) {
                next_reduce += std::max<std::uint64_t>(1, next_reduce / 2);
                reduce_learnt_db();
                maybe_gc();  // safe: no local ClauseRef survives to here
            }
            continue;
        }

        // No conflict: re-seed assumptions, then decide.
        if (current_level() < static_cast<int>(assumptions.size())) {
            const Lit a = assumptions[static_cast<std::size_t>(current_level())];
            const LBool v = value(a);
            if (v == LBool::True) {
                new_decision_level();  // already satisfied; dummy level
                continue;
            }
            if (v == LBool::False) return Result::Unsat;  // assumptions conflict
            new_decision_level();
            enqueue(a, kNoReason);
            continue;
        }

        const Lit next = pick_branch_lit();
        if (next == kUndefLit) {
            // Full model found; BVE-eliminated vars get their values from
            // the stored-clause replay.
            model_.resize(static_cast<std::size_t>(num_vars()));
            for (Var v = 0; v < num_vars(); ++v)
                model_[static_cast<std::size_t>(v)] = value(v);
            if (!elim_stack_.empty()) extend_model();
            backtrack_to(0);
            return Result::Sat;
        }
        ++stats_.decisions;
        new_decision_level();
        enqueue(next, kNoReason);
    }
}

}  // namespace gshe::sat
