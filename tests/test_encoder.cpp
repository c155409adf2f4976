// Tests for the CNF encoder (sat/encoder.hpp) and the attack pipeline built
// on it, checked against ground truth rather than against another encoder:
//
//  * constant folding, structural hashing and the shared constant variable;
//  * every encoded circuit and camouflaged cell evaluates like the
//    simulator / the keyed candidate function — all 16 plain gates under
//    every input polarity (and arc-consistently: unit propagation alone
//    derives every forced value), every cell library under every key code
//    with free and constant inputs — and a GSHE-16 cell costs one lookup;
//  * root-fixed folding shrinks later agreements without changing the
//    admitted key set, which a backend that reports no fixed literals
//    reproduces;
//  * key-cone agreements admit exactly the keys a brute-force enumeration
//    through the simulator finds consistent with the observations;
//  * every key the attacks recover — 200 randomized camouflaged netlists
//    plus the deterministic defense families — is formally equivalent to
//    the defender's circuit (check_key_equivalence);
//  * campaign CSVs stay byte-identical across thread counts and across a
//    checkpoint resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/equivalence.hpp"
#include "attack/oracle.hpp"
#include "attack/sat_attack.hpp"
#include "camo/cell_library.hpp"
#include "camo/protect.hpp"
#include "engine/campaign.hpp"
#include "engine/checkpoint.hpp"
#include "engine/defense.hpp"
#include "engine/report.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"

namespace gshe {
namespace {

using core::Bool2;
using engine::CampaignOptions;
using engine::CampaignRunner;
using engine::DefenseConfig;
using engine::JobSpec;
using netlist::Netlist;
using sat::CircuitEncoder;
using sat::Lit;
using sat::SolveResult;
using sat::Var;

/// Model value of an output literal (handles folded/negated outputs).
bool lit_value(const sat::SolverBackend& s, Lit l) {
    return s.model_bool(l.var()) != l.negated();
}

/// Unit clause pinning variable v to `value`.
Lit pin(Var v, bool value) { return Lit(v, !value); }

Netlist tiny_circuit(const std::string& name) {
    netlist::RandomSpec spec;
    spec.n_inputs = 12;
    spec.n_outputs = 8;
    spec.n_gates = 60;
    spec.seed = name == "alpha" ? 11 : 22;
    return netlist::random_circuit(spec, name);
}

/// The key whose bit i is bit i of `index`.
camo::Key key_of_index(std::size_t index, std::size_t bits) {
    camo::Key key;
    for (std::size_t b = 0; b < bits; ++b) key.bits.push_back(((index >> b) & 1) != 0);
    return key;
}

/// Ground truth by enumeration: whether the circuit under `key` maps every
/// recorded input to its recorded output (at most 64 observations, packed
/// into one simulator sweep).
bool simulates_consistently(const Netlist& nl, const camo::Key& key,
                            const std::vector<std::vector<bool>>& xs,
                            const std::vector<std::vector<bool>>& ys) {
    const auto fns = camo::functions_for_key(nl, key);
    if (!fns) return false;  // an unused code: the encoder forbids it
    std::vector<std::uint64_t> pi(nl.inputs().size(), 0);
    for (std::size_t j = 0; j < xs.size(); ++j)
        for (std::size_t i = 0; i < pi.size(); ++i)
            if (xs[j][i]) pi[i] |= std::uint64_t{1} << j;
    const std::vector<std::uint64_t> out =
        netlist::Simulator(nl).run_with_functions(pi, *fns);
    for (std::size_t j = 0; j < ys.size(); ++j)
        for (std::size_t o = 0; o < out.size(); ++o)
            if ((((out[o] >> j) & 1) != 0) != ys[j][o]) return false;
    return true;
}

/// A backend that forwards to the internal solver and records every clause
/// it is given. With `reports_fixed` false it hides the root assignment
/// (fixed_value stays Undef), like a subprocess backend.
class RecordingBackend final : public sat::SolverBackend {
public:
    explicit RecordingBackend(bool reports_fixed) : reports_fixed_(reports_fixed) {}

    Var new_var() override { return inner_.new_var(); }
    int num_vars() const override { return inner_.num_vars(); }
    bool add_clause(sat::Clause c) override {
        clauses.push_back(c);
        return inner_.add_clause(std::move(c));
    }
    using SolverBackend::add_clause;
    std::size_t num_clauses() const override { return clauses.size(); }
    SolveResult solve(const std::vector<Lit>& assumptions) override {
        return inner_.solve(assumptions);
    }
    using SolverBackend::solve;
    sat::LBool model_value(Var v) const override { return inner_.model_value(v); }
    sat::LBool fixed_value(Lit l) const override {
        return reports_fixed_ ? inner_.fixed_value(l) : sat::LBool::Undef;
    }
    void set_budget(const sat::SolverBudget& b) override { inner_.set_budget(b); }
    using SolverBackend::set_budget;
    const sat::SolverStats& stats() const override { return inner_.stats(); }
    const sat::SolverOptions& options() const override { return inner_.options(); }
    const std::string& backend_name() const override { return inner_.backend_name(); }

    std::vector<sat::Clause> clauses;

private:
    bool reports_fixed_;
    sat::Solver inner_;
};

// ---- constant folding -------------------------------------------------------

TEST(Encoder, FoldsConstantInputsThroughGates) {
    Netlist nl("fold");
    const auto a = nl.add_input("a");
    const auto one = nl.add_const(true);
    const auto g = nl.add_gate(Bool2::AND(), a, one, "g");
    nl.add_output(g, "o");

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    // AND(a, 1) folds to a: one variable for the PI, zero clauses.
    ASSERT_EQ(e.pis.size(), 1u);
    ASSERT_EQ(e.outs.size(), 1u);
    EXPECT_EQ(e.outs[0], Lit(e.pis[0], false));
    EXPECT_EQ(enc.stats().vars, 1u);
    EXPECT_EQ(enc.stats().clauses, 0u);
    EXPECT_GE(enc.stats().gates_folded, 2u);  // the Const1 and the AND
}

TEST(Encoder, FoldsInverterChainsToInputLiterals) {
    Netlist nl("inv");
    const auto a = nl.add_input("a");
    const auto n1 = nl.add_unary(Bool2::NOT_A(), a, "n1");
    const auto n2 = nl.add_unary(Bool2::NOT_A(), n1, "n2");
    nl.add_output(n1, "odd");
    nl.add_output(n2, "even");

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    // Both inverters are polarity bookkeeping: no gate variables at all.
    EXPECT_EQ(e.outs[0], Lit(e.pis[0], true));
    EXPECT_EQ(e.outs[1], Lit(e.pis[0], false));
    EXPECT_EQ(enc.stats().vars, 1u);
    EXPECT_EQ(enc.stats().clauses, 0u);
}

TEST(Encoder, FoldsComplementInputsToAConstant) {
    Netlist nl("contradiction");
    const auto a = nl.add_input("a");
    const auto na = nl.add_unary(Bool2::NOT_A(), a, "na");
    const auto g = nl.add_gate(Bool2::AND(), a, na, "g");
    nl.add_output(g, "o");

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    // AND(a, !a) is constant false regardless of a; the realized output
    // literal must evaluate false in every model.
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_FALSE(lit_value(s, e.outs[0]));
    s.add_clause(pin(e.pis[0], true));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_FALSE(lit_value(s, e.outs[0]));
}

// ---- structural hashing -----------------------------------------------------

TEST(Encoder, HashSharesCommutedAndComplementedGates) {
    Netlist nl("hash");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto g1 = nl.add_gate(Bool2::AND(), a, b, "g1");
    const auto g2 = nl.add_gate(Bool2::AND(), a, b, "g2");   // duplicate
    const auto g3 = nl.add_gate(Bool2::AND(), b, a, "g3");   // commuted
    const auto g4 = nl.add_gate(Bool2::NAND(), a, b, "g4");  // complemented
    nl.add_output(g1, "o1");
    nl.add_output(g2, "o2");
    nl.add_output(g3, "o3");
    nl.add_output(g4, "o4");

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    // One gate variable serves all four outputs.
    EXPECT_EQ(enc.stats().vars, 3u);  // 2 PIs + 1 AND node
    EXPECT_EQ(enc.stats().hash_hits, 3u);
    EXPECT_EQ(e.outs[1], e.outs[0]);
    EXPECT_EQ(e.outs[2], e.outs[0]);
    EXPECT_EQ(e.outs[3], ~e.outs[0]);
}

TEST(Encoder, HashAbsorbsInputPolarity) {
    Netlist nl("polarity");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto na = nl.add_unary(Bool2::NOT_A(), a, "na");
    const auto g1 = nl.add_gate(Bool2::A_AND_NOT_B(), b, a, "g1");  // b & !a
    const auto g2 = nl.add_gate(Bool2::AND(), na, b, "g2");         // !a & b
    nl.add_output(g1, "o1");
    nl.add_output(g2, "o2");

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    EXPECT_EQ(e.outs[1], e.outs[0]);
    EXPECT_EQ(enc.stats().hash_hits, 1u);
}

// ---- shared constant variable ----------------------------------------------

TEST(Encoder, OneConstantVariableServesBothPolarities) {
    sat::Solver s;
    CircuitEncoder enc(s);
    const Lit t = enc.constant(true);
    const Lit f = enc.constant(false);
    EXPECT_EQ(t.var(), f.var());
    EXPECT_EQ(f, ~t);
    EXPECT_EQ(s.num_vars(), 1);
    // Repeated requests never allocate again.
    EXPECT_EQ(enc.constant(true), t);
    EXPECT_EQ(s.num_vars(), 1);
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(lit_value(s, t));
    EXPECT_FALSE(lit_value(s, f));
}

// ---- semantics: CNF == simulator --------------------------------------------

TEST(Encoder, MatchesSimulatorOnRandomCircuits) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        netlist::RandomSpec spec;
        spec.n_inputs = 10;
        spec.n_outputs = 6;
        spec.n_gates = 40;
        spec.seed = seed;
        const Netlist nl = netlist::random_circuit(spec);
        attack::ExactOracle oracle(nl);

        sat::Solver s;
        CircuitEncoder enc(s);
        const sat::Encoding e = enc.encode(nl);
        Rng rng(seed * 77 + 1);
        for (int trial = 0; trial < 4; ++trial) {
            std::vector<bool> x(nl.inputs().size());
            std::vector<Lit> assume;
            for (std::size_t i = 0; i < x.size(); ++i) {
                x[i] = (rng() & 1) != 0;
                assume.push_back(pin(e.pis[i], x[i]));
            }
            ASSERT_EQ(s.solve(assume), SolveResult::Sat);
            const std::vector<bool> y = oracle.query_single(x);
            for (std::size_t o = 0; o < y.size(); ++o)
                EXPECT_EQ(lit_value(s, e.outs[o]), y[o])
                    << "seed " << seed << " output " << o;
        }
    }
}

// ---- camouflaged cells: the key selects the candidate -----------------------

TEST(Encoder, CamoCellComputesTheKeyedCandidateForEveryKeyAndInput) {
    const Bool2 candidates[] = {Bool2::AND(), Bool2::OR(), Bool2::XOR(),
                                Bool2::NAND()};
    Netlist nl("camo1");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto g = nl.add_gate(Bool2::AND(), a, b, "g");
    nl.camouflage(g, {std::begin(candidates), std::end(candidates)}, "test");
    nl.add_output(g, "o");

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    ASSERT_EQ(e.keys.size(), 2u);

    for (int key = 0; key < 4; ++key)
        for (int pat = 0; pat < 4; ++pat) {
            std::vector<Lit> assume;
            for (int bit = 0; bit < 2; ++bit) {
                assume.push_back(pin(e.keys[bit], (key >> bit) & 1));
                assume.push_back(pin(e.pis[bit], (pat >> bit) & 1));
            }
            ASSERT_EQ(s.solve(assume), SolveResult::Sat);
            EXPECT_EQ(lit_value(s, e.outs[0]),
                      candidates[key].eval((pat & 1) != 0, (pat & 2) != 0))
                << "key " << key << " pattern " << pat;
        }
}

// ---- propagation completeness: all 16 functions ----------------------------

/// Applies a partial assignment (entries: -1 free, 0, 1) to `lits` as unit
/// clauses. Returns false when unit propagation refutes it.
bool assign_units(sat::SolverBackend& s, const std::vector<Lit>& lits,
                  const std::vector<int>& values) {
    bool ok = true;
    for (std::size_t i = 0; i < lits.size(); ++i)
        if (values[i] >= 0) ok = s.add_clause(values[i] != 0 ? lits[i] : ~lits[i]) && ok;
    return ok;
}

TEST(Encoder, EveryPlainGateIsCorrectAndArcConsistent) {
    for (const Bool2 fn : Bool2::all())
        for (int polarity = 0; polarity < 4; ++polarity) {
            const bool neg_a = (polarity & 1) != 0;
            const bool neg_b = (polarity & 2) != 0;
            Netlist nl("gate");
            const auto a = nl.add_input("a");
            const auto b = nl.add_input("b");
            const auto ga = neg_a ? nl.add_unary(Bool2::NOT_A(), a, "na") : a;
            const auto gb = neg_b ? nl.add_unary(Bool2::NOT_A(), b, "nb") : b;
            nl.add_output(nl.add_gate(fn, ga, gb, "g"), "o");
            // The function of the primary inputs the circuit computes.
            const auto f = [&](int va, int vb) {
                return fn.eval((va != 0) != neg_a, (vb != 0) != neg_b);
            };
            const std::string label = std::string(fn.name()) + " polarity " +
                                      std::to_string(polarity);

            // Generalized arc consistency over (a, b, out): for every partial
            // assignment, root-level unit propagation alone either refutes it
            // (no completion exists) or fixes every value all completions
            // share. No solve call: no decision, no conflict.
            for (int code = 0; code < 27; ++code) {
                const std::vector<int> part = {code % 3 - 1, code / 3 % 3 - 1,
                                               code / 9 - 1};
                sat::Solver s;
                CircuitEncoder enc(s);
                const sat::Encoding e = enc.encode(nl);
                const std::vector<Lit> lits = {Lit(e.pis[0], false),
                                               Lit(e.pis[1], false), e.outs[0]};
                // Completions of the partial assignment.
                std::vector<std::array<int, 3>> models;
                for (int va = 0; va < 2; ++va)
                    for (int vb = 0; vb < 2; ++vb) {
                        const std::array<int, 3> m = {va, vb, f(va, vb) ? 1 : 0};
                        bool fits = true;
                        for (std::size_t i = 0; i < 3; ++i)
                            fits = fits && (part[i] < 0 || part[i] == m[i]);
                        if (fits) models.push_back(m);
                    }
                const bool ok = assign_units(s, lits, part);
                EXPECT_EQ(s.stats().decisions, 0u);
                EXPECT_EQ(s.stats().conflicts, 0u);
                if (models.empty()) {
                    EXPECT_FALSE(ok) << label << " partial " << code;
                    continue;
                }
                ASSERT_TRUE(ok) << label << " partial " << code;
                for (std::size_t i = 0; i < 3; ++i) {
                    const bool forced = std::all_of(
                        models.begin(), models.end(),
                        [&](const auto& m) { return m[i] == models[0][i]; });
                    const sat::LBool want =
                        forced ? sat::lbool_of(models[0][i] != 0) : sat::LBool::Undef;
                    EXPECT_EQ(s.fixed_value(lits[i]), want)
                        << label << " partial " << code << " literal " << i;
                }
            }
        }
}

// ---- camouflaged cells: every library, every key code ----------------------

/// Source of one cell input in check_cell: a primary input or a constant.
enum class Source { Free, Zero, One };

/// Checks one cell of `candidates` (unary when `unary`) with its inputs
/// driven from `sa`/`sb`: every key code on every input pattern, the
/// unused codes Unsat.
void check_cell(const std::string& label, const std::vector<Bool2>& candidates,
                bool unary, Source sa, Source sb) {
    Netlist nl("cell");
    const auto source = [&](Source src, const std::string& name) {
        if (src == Source::Free) return nl.add_input(name);
        return nl.add_const(src == Source::One);
    };
    const auto a = source(sa, "a");
    const auto b = unary ? a : source(sb, "b");
    const auto g = unary ? nl.add_unary(candidates[0], a, "g")
                         : nl.add_gate(candidates[0], a, b, "g");
    nl.camouflage(g, candidates, "test");
    nl.add_output(g, "o");

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    const std::size_t bits = e.keys.size();
    ASSERT_EQ(bits, static_cast<std::size_t>(nl.camo_cells()[0].key_bits()));
    for (std::size_t code = 0; code < (std::size_t{1} << bits); ++code)
        for (int pat = 0; pat < 4; ++pat) {
            const int va = sa == Source::Free ? pat & 1 : sa == Source::One;
            const int vb = unary ? 0
                         : sb == Source::Free ? (pat >> 1) & 1
                                              : sb == Source::One;
            std::vector<Lit> assume;
            for (std::size_t bit = 0; bit < bits; ++bit)
                assume.push_back(pin(e.keys[bit], (code >> bit) & 1));
            if (sa == Source::Free) assume.push_back(pin(e.pis[0], va != 0));
            if (!unary && sb == Source::Free)
                assume.push_back(pin(e.pis[sa == Source::Free ? 1 : 0], vb != 0));
            const SolveResult r = s.solve(assume);
            if (code >= candidates.size()) {
                EXPECT_EQ(r, SolveResult::Unsat) << label << " unused code " << code;
                continue;
            }
            ASSERT_EQ(r, SolveResult::Sat) << label << " code " << code;
            EXPECT_EQ(lit_value(s, e.outs[0]),
                      candidates[code].eval(va != 0, vb != 0))
                << label << " code " << code << " a=" << va << " b=" << vb;
        }
}

TEST(Encoder, EveryLibraryCellComputesItsKeyedCandidate) {
    std::vector<camo::CellLibrary> libraries = camo::table4_libraries();
    libraries.push_back(camo::stt_lut16());
    for (const int k : {2, 3, 4, 6, 8, 16})
        libraries.push_back(camo::ablation_library(k));
    // SARLock's key cells: a cloaked constant on one input.
    camo::CellLibrary sarlock;
    sarlock.name = "sarlock";
    sarlock.functions = {Bool2::FALSE_(), Bool2::TRUE_()};
    libraries.push_back(sarlock);
    // A one-candidate cell: no key bits, the plain gate.
    camo::CellLibrary single;
    single.name = "single";
    single.functions = {Bool2::NAND()};
    libraries.push_back(single);

    const Source sources[] = {Source::Free, Source::Zero, Source::One};
    for (const camo::CellLibrary& lib : libraries) {
        const bool unary =
            std::all_of(lib.functions.begin(), lib.functions.end(),
                        [](Bool2 f) { return f.independent_of_b(); });
        for (const Source sa : sources)
            for (const Source sb : sources) {
                if (unary && sb != Source::Free) continue;
                check_cell(lib.name + " inputs " +
                               std::to_string(static_cast<int>(sa)) +
                               std::to_string(static_cast<int>(sb)),
                           lib.functions, unary, sa, sb);
            }
    }
}

TEST(Encoder, GsheCellCostsOneLookupPerCopy) {
    const std::array<Bool2, 16> table = Bool2::all();
    const std::vector<Bool2> all16(table.begin(), table.end());
    // Copy with two free inputs: at most 8 clauses of at most 4 literals,
    // one new variable (the output); the key bits ARE the truth table.
    {
        Netlist nl("free2");
        const auto a = nl.add_input("a");
        const auto b = nl.add_input("b");
        const auto g = nl.add_gate(Bool2::NAND(), a, b, "g");
        nl.camouflage(g, all16, "gshe16");
        nl.add_output(g, "o");
        RecordingBackend s(true);
        CircuitEncoder enc(s);
        const sat::Encoding e1 = enc.encode(nl);
        const std::size_t c0 = s.clauses.size();
        const int v0 = s.num_vars();
        enc.encode(nl, e1.pis);  // a fresh key copy
        EXPECT_EQ(s.num_vars() - v0, 4 + 1);
        EXPECT_LE(s.clauses.size() - c0, 8u);
        for (std::size_t i = c0; i < s.clauses.size(); ++i)
            EXPECT_LE(s.clauses[i].size(), 4u);
        EXPECT_EQ(c0, s.clauses.size() - c0);  // the first copy costs the same
    }
    // One free input: a multiplexer of 4 clauses of 3 literals.
    {
        Netlist nl("free1");
        const auto a = nl.add_input("a");
        const auto g = nl.add_gate(Bool2::NAND(), a, nl.add_const(true), "g");
        nl.camouflage(g, all16, "gshe16");
        nl.add_output(g, "o");
        RecordingBackend s(true);
        CircuitEncoder enc(s);
        enc.encode(nl);
        EXPECT_EQ(s.num_vars(), 1 + 4 + 1);
        ASSERT_EQ(s.clauses.size(), 4u);
        for (const sat::Clause& c : s.clauses) EXPECT_EQ(c.size(), 3u);
    }
    // Both inputs constant: the output is a key bit — no variable beyond
    // the key, no clause.
    {
        Netlist nl("const2");
        const auto g = nl.add_gate(Bool2::NAND(), nl.add_const(true),
                                   nl.add_const(false), "g");
        nl.camouflage(g, all16, "gshe16");
        nl.add_output(g, "o");
        RecordingBackend s(true);
        CircuitEncoder enc(s);
        const sat::Encoding e = enc.encode(nl);
        EXPECT_EQ(s.num_vars(), 4);
        EXPECT_TRUE(s.clauses.empty());
        // Row 2a + b = 2 reads key bit 2 directly.
        EXPECT_EQ(e.outs[0], Lit(e.keys[2], false));
    }
}

TEST(Encoder, KeyVariableReusedByADifferentKeyBlockIsRefused) {
    const std::array<Bool2, 16> table = Bool2::all();
    Netlist nl("reuse");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto g = nl.add_gate(Bool2::NAND(), a, b, "g");
    nl.camouflage(g, {table.begin(), table.end()}, "gshe16");
    nl.add_output(g, "o");
    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    // The same block again is a hash hit; the same first variable with
    // different remaining bits would alias the wrong truth table.
    EXPECT_NO_THROW(enc.encode(nl, e.pis, e.keys));
    const std::vector<Var> mixed = {e.keys[0], e.keys[2], e.keys[1], e.keys[3]};
    EXPECT_THROW(enc.encode(nl, e.pis, mixed), std::invalid_argument);
}

// ---- key-cone agreement -----------------------------------------------------

/// Keys admitted by the solver after some agreements, as a bitmask over all
/// 2^k key assignments (k small by construction).
std::vector<bool> admitted_keys(sat::SolverBackend& s, const sat::Encoding& e) {
    const std::size_t k = e.keys.size();
    std::vector<bool> admitted(std::size_t{1} << k);
    for (std::size_t key = 0; key < admitted.size(); ++key) {
        std::vector<Lit> assume;
        for (std::size_t bit = 0; bit < k; ++bit)
            assume.push_back(pin(e.keys[bit], (key >> bit) & 1));
        admitted[key] = s.solve(assume) == SolveResult::Sat;
    }
    return admitted;
}

TEST(Agreement, AdmitsExactlyTheKeysBruteForceFindsConsistent) {
    std::size_t instances = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        netlist::RandomSpec spec;
        spec.n_inputs = 8;
        spec.n_outputs = 5;
        spec.n_gates = 30;
        spec.seed = 400 + seed;
        const Netlist plain = netlist::random_circuit(spec);
        const camo::Protection prot = camo::apply_camouflage(
            plain, camo::select_gates(plain, 0.10, seed), camo::gshe16(),
            seed);
        const Netlist& nl = prot.netlist;
        const std::size_t key_bits =
            static_cast<std::size_t>(nl.key_bit_count());
        if (key_bits < 2 || key_bits > 12) continue;  // enumerable only
        ++instances;
        attack::ExactOracle oracle(nl);

        sat::Solver s;
        CircuitEncoder enc(s);
        const sat::Encoding e = enc.encode(nl);
        std::vector<std::vector<bool>> xs, ys;
        Rng rng(99 + seed);
        for (int dip = 0; dip < 4; ++dip) {
            std::vector<bool> x(nl.inputs().size());
            for (std::size_t i = 0; i < x.size(); ++i) x[i] = (rng() & 1) != 0;
            const std::vector<bool> y = oracle.query_single(x);
            enc.add_agreement(nl, e.keys, x, y);
            xs.push_back(x);
            ys.push_back(y);

            std::vector<bool> want(std::size_t{1} << key_bits);
            for (std::size_t k = 0; k < want.size(); ++k)
                want[k] = simulates_consistently(nl, key_of_index(k, key_bits),
                                                 xs, ys);
            EXPECT_EQ(admitted_keys(s, e), want)
                << "seed " << seed << " after DIP " << dip;
            // The true key always survives an exact oracle.
            EXPECT_NE(std::find(want.begin(), want.end(), true), want.end());
        }
        // The cone mechanism engaged: only key-cone gates were encoded per
        // agreement, everything else was simulated.
        EXPECT_EQ(enc.stats().agreements, 4u);
        EXPECT_EQ(enc.stats().cone_gates, 4 * nl.key_cone_size());
        EXPECT_EQ(enc.stats().sim_gates,
                  4 * (nl.logic_gate_count() - nl.key_cone_size()));
        EXPECT_GT(enc.stats().sim_gates, 0u);
    }
    EXPECT_GE(instances, 6u);
}

// ---- root-fixed folding -----------------------------------------------------

TEST(Agreement, RootFixedKeyBitsFoldWithoutChangingTheAdmittedKeys) {
    std::size_t instances = 0;
    std::uint64_t folded_clauses = 0;
    std::uint64_t plain_clauses = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        netlist::RandomSpec spec;
        spec.n_inputs = 8;
        spec.n_outputs = 5;
        spec.n_gates = 30;
        spec.seed = 400 + seed;
        const Netlist plain = netlist::random_circuit(spec);
        const camo::Protection prot = camo::apply_camouflage(
            plain, camo::select_gates(plain, 0.10, seed), camo::gshe16(),
            seed);
        const Netlist& nl = prot.netlist;
        const std::size_t key_bits =
            static_cast<std::size_t>(nl.key_bit_count());
        if (key_bits < 8 || key_bits > 12) continue;  // two cells, enumerable
        ++instances;
        attack::ExactOracle oracle(nl);
        const camo::Key truth = camo::true_key(nl);

        // The same call sequence on a folding and a non-folding backend.
        RecordingBackend folding(true);
        RecordingBackend plain_backend(false);
        CircuitEncoder enc_f(folding);
        CircuitEncoder enc_p(plain_backend);
        const sat::Encoding ef = enc_f.encode(nl);
        const sat::Encoding ep = enc_p.encode(nl);
        std::vector<std::vector<bool>> xs, ys;
        Rng rng(77 + seed);
        const auto observe = [&] {
            std::vector<bool> x(nl.inputs().size());
            for (std::size_t i = 0; i < x.size(); ++i) x[i] = (rng() & 1) != 0;
            const std::vector<bool> y = oracle.query_single(x);
            xs.push_back(x);
            ys.push_back(y);
        };
        observe();
        enc_f.add_agreement(nl, ef.keys, xs.back(), ys.back());
        enc_p.add_agreement(nl, ep.keys, xs.back(), ys.back());
        // A unit fixes the first cell's key block to the true function.
        for (std::size_t bit = 0; bit < 4; ++bit) {
            enc_f.fix_var(ef.keys[bit], truth.bits[bit]);
            enc_p.fix_var(ep.keys[bit], truth.bits[bit]);
        }
        const std::uint64_t cf = enc_f.stats().agreement_clauses;
        const std::uint64_t cp = enc_p.stats().agreement_clauses;
        observe();
        enc_f.add_agreement(nl, ef.keys, xs.back(), ys.back());
        enc_p.add_agreement(nl, ep.keys, xs.back(), ys.back());
        // Folding never costs clauses; where the fixed cell reaches the
        // observed outputs it saves some (summed below).
        const std::uint64_t after_f = enc_f.stats().agreement_clauses - cf;
        const std::uint64_t after_p = enc_p.stats().agreement_clauses - cp;
        EXPECT_LE(after_f, after_p) << "seed " << seed;
        folded_clauses += after_f;
        plain_clauses += after_p;

        std::vector<bool> want(std::size_t{1} << key_bits);
        for (std::size_t k = 0; k < want.size(); ++k) {
            const camo::Key key = key_of_index(k, key_bits);
            const bool pinned = std::equal(key.bits.begin(), key.bits.begin() + 4,
                                           truth.bits.begin());
            want[k] = pinned && simulates_consistently(nl, key, xs, ys);
        }
        EXPECT_EQ(admitted_keys(folding, ef), want) << "seed " << seed;
        EXPECT_EQ(admitted_keys(plain_backend, ep), want) << "seed " << seed;
    }
    EXPECT_GE(instances, 3u);
    EXPECT_LT(folded_clauses, plain_clauses);
}

// ---- attack outcomes: formally equivalent keys ------------------------------

TEST(Attack, TwoHundredRandomCamoNetlistsRecoverEquivalentKeys) {
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
        const attack::AttackResult r =
            attack::sat_attack(prot.netlist, oracle, attack::AttackOptions{});
        ASSERT_EQ(r.status, attack::AttackResult::Status::Success)
            << "seed " << seed;
        EXPECT_EQ(attack::check_key_equivalence(prot.netlist, r.key).status,
                  attack::EquivStatus::Equivalent)
            << "seed " << seed;
    }
    // The sweep exercised real key recovery, not 200 empty defenses.
    EXPECT_GT(with_keys, 150u);
}

TEST(Attack, DeterministicDefenseFamiliesRecoverEquivalentKeys) {
    DefenseConfig camo;
    camo.kind = "camo";
    camo.fraction = 0.12;
    DefenseConfig sarlock;
    sarlock.kind = "sarlock";
    sarlock.sarlock_bits = 4;

    const std::vector<JobSpec> jobs = CampaignRunner::cross_product(
        {"alpha", "beta"}, {camo, sarlock}, {"sat", "double_dip", "appsat"},
        {1}, attack::AttackOptions{});
    CampaignOptions options;
    options.threads = 1;
    options.netlist_provider = tiny_circuit;
    const engine::CampaignResult result = CampaignRunner(options).run(jobs);
    ASSERT_EQ(result.jobs.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const engine::JobResult& j = result.jobs[i];
        const std::string label = j.circuit + "/" + j.defense + "/" + j.attack;
        ASSERT_TRUE(j.error.empty()) << label << ": " << j.error;
        ASSERT_EQ(j.result.status, attack::AttackResult::Status::Success)
            << label;
        // Rebuild the exact defense instance the job attacked and prove
        // the recovered key correct on it.
        const engine::DefenseInstance instance = engine::DefenseFactory::build(
            tiny_circuit(j.circuit), jobs[i].defense, j.derived_seed);
        EXPECT_EQ(
            attack::check_key_equivalence(*instance.netlist, j.result.key)
                .status,
            attack::EquivStatus::Equivalent)
            << label;
    }
}

// ---- campaign byte-identity -------------------------------------------------

std::vector<JobSpec> pipeline_matrix() {
    DefenseConfig camo;
    camo.kind = "camo";
    camo.fraction = 0.12;
    camo.protect_seed = 0xC0DE;
    return CampaignRunner::cross_product({"alpha", "beta"}, {camo},
                                         {"sat", "double_dip", "appsat"},
                                         {1, 2}, attack::AttackOptions{});
}

TEST(PipelineCampaign, CsvByteIdenticalAcrossThreadCounts) {
    const std::vector<JobSpec> jobs = pipeline_matrix();
    std::vector<std::string> csvs;
    for (const int threads : {1, 8}) {
        CampaignOptions options;
        options.threads = threads;
        options.netlist_provider = tiny_circuit;
        csvs.push_back(
            engine::campaign_csv(CampaignRunner(options).run(jobs)));
    }
    EXPECT_EQ(csvs[0], csvs[1]);
    EXPECT_NE(csvs[0].find("success"), std::string::npos);
}

TEST(PipelineCampaign, ResumeReplaysByteIdentically) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "gshe_pipeline_resume";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string journal = (dir / "c.jsonl").string();

    const std::vector<JobSpec> jobs = pipeline_matrix();
    CampaignOptions first;
    first.threads = 4;
    first.netlist_provider = tiny_circuit;
    first.checkpoint_path = journal;
    first.resume_from_checkpoint = false;
    const std::string live =
        engine::campaign_csv(CampaignRunner(first).run(jobs));

    CampaignOptions second;
    second.threads = 4;
    second.netlist_provider = tiny_circuit;
    second.checkpoint_path = journal;
    const engine::CampaignResult resumed = CampaignRunner(second).run(jobs);
    EXPECT_EQ(resumed.resumed, jobs.size());
    EXPECT_EQ(engine::campaign_csv(resumed), live);
    // The encoder counters round-tripped through the journal.
    for (const engine::JobResult& j : resumed.jobs) {
        EXPECT_GT(j.result.encoder_stats.vars, 0u);
        EXPECT_GT(j.result.encoder_stats.cone_gates, 0u);
    }
    fs::remove_all(dir);
}

// ---- journal schema ---------------------------------------------------------

TEST(CheckpointEncoder, StatFieldsRoundTripThroughARecord) {
    JobSpec spec;
    spec.circuit = "alpha";
    engine::JobResult r;
    r.index = 2;
    r.circuit = "alpha";
    r.result.status = attack::AttackResult::Status::Success;
    r.result.encoder_stats.vars = 101;
    r.result.encoder_stats.clauses = 202;
    r.result.encoder_stats.gates_folded = 3;
    r.result.encoder_stats.hash_hits = 4;
    r.result.encoder_stats.agreements = 5;
    r.result.encoder_stats.agreement_vars = 66;
    r.result.encoder_stats.agreement_clauses = 77;
    r.result.encoder_stats.cone_gates = 88;
    r.result.encoder_stats.sim_gates = 99;

    const std::string line =
        engine::checkpoint::encode_record(42, spec, r, {});
    const auto decoded = engine::checkpoint::decode_record(line);
    ASSERT_TRUE(decoded.has_value());
    const sat::EncoderStats& es = decoded->result.result.encoder_stats;
    EXPECT_EQ(es.vars, 101u);
    EXPECT_EQ(es.clauses, 202u);
    EXPECT_EQ(es.gates_folded, 3u);
    EXPECT_EQ(es.hash_hits, 4u);
    EXPECT_EQ(es.agreements, 5u);
    EXPECT_EQ(es.agreement_vars, 66u);
    EXPECT_EQ(es.agreement_clauses, 77u);
    EXPECT_EQ(es.cone_gates, 88u);
    EXPECT_EQ(es.sim_gates, 99u);
}

}  // namespace
}  // namespace gshe
