#pragma once
// 64-way bit-parallel logic simulation.
//
// Each primary input carries a 64-bit word = 64 independent patterns, so one
// sweep evaluates 64 vectors at once. This is the workhorse for the attack
// oracle, for equivalence spot-checks, and for the stochastic-oracle study.
// Camouflaged gates evaluate their *true* function by default (the oracle
// view); pass per-camo-cell overrides for the attacker view.
//
// Sweeps execute the netlist's cached SimPlan (netlist/sim_plan.hpp): a
// levelized struct-of-arrays compilation of the topo order driven by a tight
// branch-free loop. The step order is a valid topological order, so every
// word is bit-identical to the reference per-gate walk (run_reference, kept
// as the executable spec). Multi-word sweeps (run_words*) evaluate W x 64
// patterns per pass, amortizing seed/gather setup; frontier sweeps
// (run_frontier_*) execute the cone-restricted sub-plan, touching only the
// steps needed to produce the key-cone frontier and the primary outputs.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace gshe::netlist {

class Simulator {
public:
    explicit Simulator(const Netlist& nl) : nl_(&nl) {}

    /// Evaluates 64 packed patterns. `pi_words[i]` is the word for
    /// nl.inputs()[i]; DFF outputs evaluate to `dff_words` (zeros if empty).
    /// Returns one word per primary output.
    std::vector<std::uint64_t> run(std::span<const std::uint64_t> pi_words,
                                   std::span<const std::uint64_t> dff_words = {}) const;

    /// As above but camo cell k computes `overrides[k]` instead of its true
    /// function (attacker view under a key guess).
    std::vector<std::uint64_t> run_with_functions(
        std::span<const std::uint64_t> pi_words,
        std::span<const core::Bool2> overrides,
        std::span<const std::uint64_t> dff_words = {}) const;

    /// True-function evaluation with injected errors: camo cell k's output
    /// word is XORed with `flip_masks[k]` (bit i set = pattern i's evaluation
    /// of that device was wrong). This models the tunable stochastic mode of
    /// the GSHE primitive (Sec. V-B).
    std::vector<std::uint64_t> run_noisy(
        std::span<const std::uint64_t> pi_words,
        std::span<const std::uint64_t> flip_masks,
        std::span<const std::uint64_t> dff_words = {}) const;

    /// Multi-word sweep: `n_words` words per signal, evaluating
    /// n_words x 64 patterns in one pass. Layout is input-major on the way
    /// in (`pi_words[i * n_words + w]` is word w of nl.inputs()[i]) and
    /// output-major on the way out (`result[o * n_words + w]`).
    std::vector<std::uint64_t> run_words(
        std::span<const std::uint64_t> pi_words, std::size_t n_words,
        std::span<const std::uint64_t> dff_words = {}) const;

    /// Multi-word attacker-view sweep (same layout as run_words).
    std::vector<std::uint64_t> run_words_with_functions(
        std::span<const std::uint64_t> pi_words, std::size_t n_words,
        std::span<const core::Bool2> overrides,
        std::span<const std::uint64_t> dff_words = {}) const;

    /// Single-pattern convenience (bit 0 of the packed run).
    std::vector<bool> run_single(const std::vector<bool>& pi) const;

    /// Single-pattern evaluation of EVERY gate (true functions): element id
    /// is gate id's value under `pi`. One sweep; the CNF encoder
    /// uses this to replace everything outside the key cone with constants
    /// per DIP.
    std::vector<char> run_single_all(const std::vector<bool>& pi) const;

    /// Allocation-free run_single_all: the span aliases internal scratch and
    /// is valid until the next run on this Simulator.
    std::span<const char> run_single_all_span(const std::vector<bool>& pi) const;

    /// Packed evaluation of EVERY gate (true functions): element id is gate
    /// id's 64-pattern word under `pi_words`. One sweep serves up to 64
    /// queued patterns — the batched agreement encoder reads one lane per
    /// DIP instead of paying a single-lane sweep each.
    std::vector<std::uint64_t> run_all(
        std::span<const std::uint64_t> pi_words) const;

    /// Allocation-free run_all: span of one word per gate, aliasing internal
    /// scratch, valid until the next run on this Simulator.
    std::span<const std::uint64_t> run_all_span(
        std::span<const std::uint64_t> pi_words) const;

    /// Cone-restricted single-pattern sweep: executes only the frontier
    /// sub-plan (Netlist::frontier_plan()). The returned span has one char
    /// per gate but is valid ONLY at Netlist::frontier_read_set() gates —
    /// exactly what the CNF encoder reads per DIP. Aliases internal
    /// scratch, valid until the next run.
    std::span<const char> run_frontier_single(const std::vector<bool>& pi) const;

    /// Cone-restricted multi-word sweep (input-major pi_words, as
    /// run_words). Returns a gate-major span (`span[g * n_words + w]`) over
    /// every gate, valid ONLY at frontier_read_set() gates and seeded
    /// sources. Aliases internal scratch, valid until the next run.
    std::span<const std::uint64_t> run_frontier_words(
        std::span<const std::uint64_t> pi_words, std::size_t n_words) const;

    /// Reference per-gate topological walk — the executable specification
    /// the plan kernel is tested against. Slow path; tests and benches only.
    std::vector<std::uint64_t> run_reference(
        std::span<const std::uint64_t> pi_words,
        std::span<const core::Bool2> overrides = {},
        std::span<const std::uint64_t> dff_words = {},
        std::span<const std::uint64_t> flip_masks = {}) const;

    /// Evaluates a two-input truth table on packed words.
    static std::uint64_t eval_word(core::Bool2 fn, std::uint64_t a,
                                   std::uint64_t b) {
        const std::uint8_t tt = fn.truth_table();
        std::uint64_t r = 0;
        if (tt & 0x1) r |= ~a & ~b;
        if (tt & 0x2) r |= ~a & b;
        if (tt & 0x4) r |= a & ~b;
        if (tt & 0x8) r |= a & b;
        return r;
    }

private:
    /// Executes `plan` over n_words words per slot into values_
    /// (slot-major: values_[slot * n_words + w]). flip_masks require
    /// n_words == 1 (the run_noisy path).
    void sweep(const SimPlan& plan, std::size_t n_words,
               std::span<const std::uint64_t> pi_words,
               std::span<const core::Bool2> overrides,
               std::span<const std::uint64_t> dff_words,
               std::span<const std::uint64_t> flip_masks) const;
    /// Copies primary-output slots out of values_ (output-major).
    std::vector<std::uint64_t> gather_outputs(std::size_t n_words) const;
    /// Packs a bool pattern into word_scratch_ (all-ones / all-zeros words).
    std::span<const std::uint64_t> pack_single(const std::vector<bool>& pi) const;

    const Netlist* nl_;
    mutable std::vector<std::uint64_t> values_;      // slot-major sweep values
    mutable std::vector<std::uint8_t> tt_scratch_;   // override-patched tables
    mutable std::vector<std::uint64_t> word_scratch_;  // packed single patterns
    mutable std::vector<char> bit_scratch_;          // unpacked single-bit values
    mutable std::vector<std::pair<std::uint32_t, std::uint64_t>> flip_steps_;
};

}  // namespace gshe::netlist
