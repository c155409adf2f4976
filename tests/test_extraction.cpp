// Tests for assumption-guarded key extraction on the live miter solver
// (attack/miter_detail.hpp): DIP history dedup, the guarded difference
// constraint, formally equivalent keys from Double DIP (whose single-DIP
// phase replays its 2-DIP observations before extracting), and that an
// AppSAT run grows the formula by agreements only — zero circuit
// re-encodes after the initial miter.
#include <gtest/gtest.h>

#include <vector>

#include "attack/appsat.hpp"
#include "attack/double_dip.hpp"
#include "attack/equivalence.hpp"
#include "attack/miter_detail.hpp"
#include "attack/oracle.hpp"
#include "camo/cell_library.hpp"
#include "camo/protect.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"

namespace gshe {
namespace {

using netlist::Netlist;
using sat::CircuitEncoder;
using sat::Lit;
using sat::SolveResult;

// ---- history dedup ----------------------------------------------------------

TEST(History, SkipsExactDuplicatesButKeepsConflictingObservations) {
    attack::detail::History h;
    const std::vector<bool> x{true, false, true};
    const std::vector<bool> y0{false};
    const std::vector<bool> y1{true};

    EXPECT_TRUE(h.add(x, y0));
    EXPECT_EQ(h.size(), 1u);
    // Exact duplicate: skipped (AppSAT re-drawing a reinforcement pattern).
    EXPECT_TRUE(h.contains(x, y0));
    EXPECT_FALSE(h.add(x, y0));
    EXPECT_EQ(h.size(), 1u);
    // Same input, different output: a stochastic oracle answering
    // inconsistently is a real observation and must be kept.
    EXPECT_FALSE(h.contains(x, y1));
    EXPECT_TRUE(h.add(x, y1));
    EXPECT_EQ(h.size(), 2u);
    // A different input records normally.
    EXPECT_TRUE(h.add({false, false, false}, y0));
    EXPECT_EQ(h.size(), 3u);
}

// ---- guarded difference -----------------------------------------------------

/// The selector contract in miniature: two copies of the same plain circuit
/// on shared PIs can never differ, so the guarded difference is Unsat under
/// {guard} — and the extraction face of the solver, assuming {~guard}, must
/// still be satisfiable because no difference clause leaked in unguarded.
TEST(GuardedDifference, ExtractionSolveDoesNotSeeTheDifference) {
    netlist::RandomSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 5;
    spec.n_gates = 30;
    spec.seed = 515;
    const Netlist nl = netlist::random_circuit(spec);

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e1 = enc.encode(nl);
    const sat::Encoding e2 = enc.encode(nl, e1.pis);
    const Lit guard(s.new_var(), false);
    enc.add_difference(e1.outs, e2.outs, guard);

    EXPECT_EQ(s.solve({guard}), SolveResult::Unsat);
    EXPECT_EQ(s.solve({~guard}), SolveResult::Sat);
    // The guard is an assumption, not a decision the solver may flip: the
    // DIP face stays Unsat and the extraction face Sat on repeat solves.
    EXPECT_EQ(s.solve({guard}), SolveResult::Unsat);
    EXPECT_EQ(s.solve({~guard}), SolveResult::Sat);
}

TEST(GuardedDifference, GuardedMiterFindsTheSameDipsAsUnguarded) {
    // On a camouflaged miter (real keys), the guarded difference under
    // {guard} must behave exactly like the baked-in difference: satisfiable
    // while a DIP exists, with the same admissible key pairs.
    netlist::RandomSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 5;
    spec.n_gates = 30;
    spec.seed = 616;
    const Netlist plain = netlist::random_circuit(spec);
    const camo::Protection prot = camo::apply_camouflage(
        plain, camo::select_gates(plain, 0.10, 9), camo::gshe16(), 9);
    ASSERT_FALSE(prot.netlist.camo_cells().empty());

    sat::Solver baked_s, guarded_s;
    CircuitEncoder baked(baked_s), guarded(guarded_s);
    const sat::Encoding b1 = baked.encode(prot.netlist);
    const sat::Encoding b2 = baked.encode(prot.netlist, b1.pis);
    baked.add_difference(b1.outs, b2.outs);
    const sat::Encoding g1 = guarded.encode(prot.netlist);
    const sat::Encoding g2 = guarded.encode(prot.netlist, g1.pis);
    const Lit guard(guarded_s.new_var(), false);
    guarded.add_difference(g1.outs, g2.outs, guard);

    EXPECT_EQ(guarded_s.solve({guard}), baked_s.solve());
}

// ---- extracted keys are formally equivalent ---------------------------------

TEST(Extraction, DoubleDipRecoversEquivalentKeysOnTwoHundredRandomNetlists) {
    std::size_t with_keys = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        netlist::RandomSpec spec;
        spec.n_inputs = 10;
        spec.n_outputs = 6;
        spec.n_gates = 45;
        spec.seed = seed;
        const Netlist plain = netlist::random_circuit(spec);
        const camo::Protection prot = camo::apply_camouflage(
            plain, camo::select_gates(plain, 0.12, seed), camo::gshe16(),
            seed);
        if (prot.netlist.camo_cells().empty()) continue;
        ++with_keys;

        attack::ExactOracle oracle(prot.netlist);
        const attack::AttackResult r = attack::double_dip_attack(
            prot.netlist, oracle, attack::AttackOptions{});
        ASSERT_EQ(r.status, attack::AttackResult::Status::Success)
            << "seed " << seed;
        EXPECT_EQ(attack::check_key_equivalence(prot.netlist, r.key).status,
                  attack::EquivStatus::Equivalent)
            << "seed " << seed;
    }
    EXPECT_GT(with_keys, 150u);
}

// ---- agreement-only growth --------------------------------------------------

TEST(Extraction, AppSatGrowsTheFormulaByAgreementsOnly) {
    // An AppSAT run — the settlement-heavy workload — must never re-encode
    // the circuit after the initial miter: every settlement extracts on the
    // live solver. Encoder-visible variables and clauses beyond the
    // agreement constraints must equal a bare two-copy miter encode, bit
    // for bit.
    netlist::RandomSpec spec;
    spec.n_inputs = 12;
    spec.n_outputs = 8;
    spec.n_gates = 60;
    spec.seed = 33;
    const Netlist plain = netlist::random_circuit(spec);
    const camo::Protection prot = camo::apply_camouflage(
        plain, camo::select_gates(plain, 0.12, 3), camo::gshe16(), 3);
    ASSERT_FALSE(prot.netlist.camo_cells().empty());

    // The whole miter preamble: two copies plus the guarded difference.
    // Everything the attack encodes beyond this must be agreement CNF.
    sat::Solver bare_solver;
    CircuitEncoder bare(bare_solver);
    const sat::Encoding e1 = bare.encode(prot.netlist);
    const sat::Encoding e2 = bare.encode(prot.netlist, e1.pis);
    bare.add_difference(e1.outs, e2.outs, Lit(bare_solver.new_var(), false));

    attack::ExactOracle oracle(prot.netlist);
    attack::AppSatOptions opt;
    opt.settle_every = 2;  // several settlement extractions
    const attack::AttackResult r =
        attack::appsat_attack(prot.netlist, oracle, opt);
    ASSERT_EQ(r.status, attack::AttackResult::Status::Success);
    ASSERT_GE(r.iterations, 2u) << "no settlement extraction ran";
    const sat::EncoderStats& is = r.encoder_stats;
    EXPECT_GT(is.agreements, 0u);
    EXPECT_EQ(is.vars - is.agreement_vars, bare.stats().vars);
    EXPECT_EQ(is.clauses - is.agreement_clauses, bare.stats().clauses);
}

}  // namespace
}  // namespace gshe
