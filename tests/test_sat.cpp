// Tests for the CDCL SAT solver, the CNF encoder, DIMACS I/O, and the
// pluggable backend layer (registry + DIMACS subprocess adapter):
// unit-level behaviours, brute-force cross-checks on random formulas,
// structured UNSAT instances, budgets, and encoder/simulator consistency.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"
#include "sat/backend.hpp"
#include "sat/dimacs.hpp"
#include "sat/dimacs_backend.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"

namespace gshe::sat {
namespace {

using Result = Solver::Result;

// ---- Lit / types ---------------------------------------------------------------

TEST(Lit, PackingAndNegation) {
    const Lit a(5, false);
    EXPECT_EQ(a.var(), 5);
    EXPECT_FALSE(a.negated());
    EXPECT_TRUE((~a).negated());
    EXPECT_EQ((~a).var(), 5);
    EXPECT_EQ(~~a, a);
    EXPECT_EQ(a.code(), 10);
    EXPECT_EQ((~a).code(), 11);
}

TEST(LBool, Negation) {
    EXPECT_EQ(negate(LBool::True), LBool::False);
    EXPECT_EQ(negate(LBool::False), LBool::True);
    EXPECT_EQ(negate(LBool::Undef), LBool::Undef);
}

// ---- solver basics ---------------------------------------------------------------

TEST(Solver, EmptyFormulaIsSat) {
    Solver s;
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Solver, UnitPropagationChain) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    s.add_clause(Lit(a, false));
    s.add_clause(Lit(a, true), Lit(b, false));
    s.add_clause(Lit(b, true), Lit(c, false));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.model_bool(a));
    EXPECT_TRUE(s.model_bool(b));
    EXPECT_TRUE(s.model_bool(c));
}

TEST(Solver, ContradictingUnitsAreUnsat) {
    Solver s;
    const Var a = s.new_var();
    EXPECT_TRUE(s.add_clause(Lit(a, false)));
    EXPECT_FALSE(s.add_clause(Lit(a, true)));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Solver, TautologyIgnored) {
    Solver s;
    const Var a = s.new_var();
    EXPECT_TRUE(s.add_clause(Clause{Lit(a, false), Lit(a, true)}));
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Solver, DuplicateLiteralsCollapse) {
    Solver s;
    const Var a = s.new_var();
    s.add_clause(Clause{Lit(a, false), Lit(a, false), Lit(a, false)});
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.model_bool(a));
}

TEST(Solver, SimpleUnsatCore) {
    // (a|b) & (a|!b) & (!a|b) & (!a|!b) is UNSAT.
    Solver s;
    const Var a = s.new_var(), b = s.new_var();
    s.add_clause(Lit(a, false), Lit(b, false));
    s.add_clause(Lit(a, false), Lit(b, true));
    s.add_clause(Lit(a, true), Lit(b, false));
    s.add_clause(Lit(a, true), Lit(b, true));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Solver, XorChainSatisfiable) {
    // x0 ^ x1 ^ ... ^ x9 = 1 encoded through fresh XOR outputs.
    Solver s;
    CircuitEncoder enc(s);
    std::vector<Var> xs;
    for (int i = 0; i < 10; ++i) xs.push_back(s.new_var());
    Lit acc(xs[0], false);
    for (int i = 1; i < 10; ++i) acc = enc.add_xor(acc, Lit(xs[i], false));
    s.add_clause(acc);
    ASSERT_EQ(s.solve(), Result::Sat);
    bool parity = false;
    for (Var v : xs) parity ^= s.model_bool(v);
    EXPECT_TRUE(parity);
}

TEST(Solver, PigeonholeUnsat) {
    // PHP(n+1, n): classic resolution-hard family; n=5 stays fast.
    const int holes = 5, pigeons = 6;
    Solver s;
    std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
    for (auto& row : x)
        for (auto& v : row) v = s.new_var();
    for (int p = 0; p < pigeons; ++p) {
        Clause c;
        for (int h = 0; h < holes; ++h) c.push_back(Lit(x[p][h], false));
        s.add_clause(c);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause(Lit(x[p1][h], true), Lit(x[p2][h], true));
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().conflicts, 10u);
}

TEST(Solver, AssumptionsSelectBranches) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var();
    s.add_clause(Lit(a, false), Lit(b, false));  // a | b
    ASSERT_EQ(s.solve({Lit(a, true)}), Result::Sat);  // assume !a
    EXPECT_TRUE(s.model_bool(b));
    ASSERT_EQ(s.solve({Lit(b, true)}), Result::Sat);  // assume !b
    EXPECT_TRUE(s.model_bool(a));
    EXPECT_EQ(s.solve({Lit(a, true), Lit(b, true)}), Result::Unsat);
    // The solver remains usable after assumption-UNSAT.
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Solver, AssumptionsContradictoryOnlyMidSearch) {
    // PHP(6,5) with every clause weakened by two guard literals: the
    // formula is satisfiable (drop either guard), but assuming both guards
    // re-activates the pigeonhole contradiction — which only surfaces after
    // real search, via learnt clauses falsified inside the assumption
    // prefix. Regression for the formerly dead bt_level < assume_level
    // branch in Solver::search.
    const int holes = 5, pigeons = 6;
    Solver s;
    const Var g1 = s.new_var(), g2 = s.new_var();
    std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
    for (auto& row : x)
        for (auto& v : row) v = s.new_var();
    const auto guarded = [&](Clause c) {
        c.push_back(Lit(g1, true));
        c.push_back(Lit(g2, true));
        s.add_clause(std::move(c));
    };
    for (int p = 0; p < pigeons; ++p) {
        Clause c;
        for (int h = 0; h < holes; ++h) c.push_back(Lit(x[p][h], false));
        guarded(std::move(c));
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                guarded(Clause{Lit(x[p1][h], true), Lit(x[p2][h], true)});
    EXPECT_EQ(s.solve({Lit(g1, false), Lit(g2, false)}), Result::Unsat);
    EXPECT_GT(s.stats().conflicts, 0u);
    // One guard released: satisfiable again; the solver stays usable.
    ASSERT_EQ(s.solve({Lit(g1, false)}), Result::Sat);
    ASSERT_EQ(s.solve(), Result::Sat);
}

TEST(Solver, DisabledRestartsNeverRestart) {
    // Regression: restart_base * ~0ULL used to wrap modulo 2^64 and leave a
    // tiny restart interval despite use_restarts=false.
    const int holes = 5, pigeons = 6;
    Solver::Options opts;
    opts.use_restarts = false;
    Solver s(opts);
    std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
    for (auto& row : x)
        for (auto& v : row) v = s.new_var();
    for (int p = 0; p < pigeons; ++p) {
        Clause c;
        for (int h = 0; h < holes; ++h) c.push_back(Lit(x[p][h], false));
        s.add_clause(c);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause(Lit(x[p1][h], true), Lit(x[p2][h], true));
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().conflicts, 10u);
    EXPECT_EQ(s.stats().restarts, 0u);
}

TEST(Solver, IncrementalClauseAddition) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var();
    s.add_clause(Lit(a, false), Lit(b, false));
    ASSERT_EQ(s.solve(), Result::Sat);
    s.add_clause(Lit(a, true));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.model_bool(b));
    s.add_clause(Lit(b, true));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
    // A hard instance with a 1-conflict budget must give up.
    const int holes = 8, pigeons = 9;
    Solver s;
    std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
    for (auto& row : x)
        for (auto& v : row) v = s.new_var();
    for (int p = 0; p < pigeons; ++p) {
        Clause c;
        for (int h = 0; h < holes; ++h) c.push_back(Lit(x[p][h], false));
        s.add_clause(c);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause(Lit(x[p1][h], true), Lit(x[p2][h], true));
    Solver::Budget budget;
    budget.max_conflicts = 1;
    s.set_budget(budget);
    EXPECT_EQ(s.solve(), Result::Unknown);
}

TEST(Solver, TimeBudgetReturnsUnknown) {
    const int holes = 11, pigeons = 12;  // too hard for a microsecond
    Solver s;
    std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
    for (auto& row : x)
        for (auto& v : row) v = s.new_var();
    for (int p = 0; p < pigeons; ++p) {
        Clause c;
        for (int h = 0; h < holes; ++h) c.push_back(Lit(x[p][h], false));
        s.add_clause(c);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause(Lit(x[p1][h], true), Lit(x[p2][h], true));
    Solver::Budget budget;
    budget.max_seconds = 1e-6;
    s.set_budget(budget);
    EXPECT_EQ(s.solve(), Result::Unknown);
}

TEST(Solver, StatsAreRecorded) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    s.add_clause(Lit(a, false), Lit(b, false), Lit(c, false));
    s.add_clause(Lit(a, true), Lit(b, true));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_GT(s.stats().decisions + s.stats().propagations, 0u);
}

// ---- brute-force cross-check, parameterized over solver configurations ------------

struct SolverConfig {
    const char* name;
    Solver::Options opts;
};

class SolverCrossCheck : public ::testing::TestWithParam<SolverConfig> {};

bool brute_force_sat(const std::vector<Clause>& clauses, int nv) {
    for (int m = 0; m < (1 << nv); ++m) {
        bool all = true;
        for (const auto& c : clauses) {
            bool sat = false;
            for (Lit l : c) {
                const bool val = ((m >> l.var()) & 1) != 0;
                if (l.negated() ? !val : val) {
                    sat = true;
                    break;
                }
            }
            if (!sat) {
                all = false;
                break;
            }
        }
        if (all) return true;
    }
    return false;
}

TEST_P(SolverCrossCheck, RandomThreeSatAgreesWithBruteForce) {
    Rng rng(static_cast<std::uint64_t>(
        std::hash<std::string>{}(GetParam().name)));
    for (int trial = 0; trial < 400; ++trial) {
        const int nv = 4 + static_cast<int>(rng.below(8));
        const int nc = static_cast<int>(nv * (3.0 + rng.uniform() * 2.5));
        std::vector<Clause> clauses;
        for (int i = 0; i < nc; ++i) {
            Clause c;
            for (int j = 0; j < 3; ++j)
                c.push_back(Lit(static_cast<Var>(rng.below(nv)), rng.bernoulli(0.5)));
            clauses.push_back(c);
        }
        Solver s(GetParam().opts);
        for (int v = 0; v < nv; ++v) s.new_var();
        bool ok = true;
        for (const auto& c : clauses)
            if (!s.add_clause(c)) {
                ok = false;
                break;
            }
        const Result r = ok ? s.solve() : Result::Unsat;
        const bool expect = brute_force_sat(clauses, nv);
        ASSERT_EQ(r == Result::Sat, expect) << "trial " << trial;
        if (r == Result::Sat) {
            for (const auto& c : clauses) {
                bool sat = false;
                for (Lit l : c)
                    if (l.negated() ? !s.model_bool(l.var()) : s.model_bool(l.var()))
                        sat = true;
                ASSERT_TRUE(sat) << "invalid model, trial " << trial;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, SolverCrossCheck,
    ::testing::Values(
        SolverConfig{"default", {}},
        SolverConfig{"no_vsids", {.use_vsids = false}},
        SolverConfig{"no_restarts", {.use_restarts = false}},
        SolverConfig{"no_phase_saving", {.use_phase_saving = false}},
        SolverConfig{"no_learning", {.use_learning = false}}),
    [](const auto& info) { return std::string(info.param.name); });

// ---- CNF encoder -------------------------------------------------------------------

/// Model value of an encoder output literal.
bool lit_value(const SolverBackend& s, Lit l) {
    return s.model_bool(l.var()) != l.negated();
}

TEST(Encoder, CircuitConsistentWithSimulator) {
    netlist::RandomSpec spec;
    spec.n_inputs = 14;
    spec.n_outputs = 10;
    spec.n_gates = 150;
    spec.seed = 21;
    const netlist::Netlist nl = netlist::random_circuit(spec);
    const netlist::Simulator sim(nl);
    Rng rng(6);
    for (int t = 0; t < 30; ++t) {
        Solver s;
        CircuitEncoder encoder(s);
        const Encoding enc = encoder.encode(nl);
        std::vector<Lit> assume;
        std::vector<bool> pi(nl.inputs().size());
        for (std::size_t i = 0; i < pi.size(); ++i) {
            pi[i] = rng.bernoulli(0.5);
            assume.push_back(Lit(enc.pis[i], !pi[i]));
        }
        ASSERT_EQ(s.solve(assume), Result::Sat);
        const auto expect = sim.run_single(pi);
        for (std::size_t o = 0; o < expect.size(); ++o)
            ASSERT_EQ(lit_value(s, enc.outs[o]), expect[o]);
    }
}

TEST(Encoder, CamoGateKeySelectsFunction) {
    using core::Bool2;
    netlist::Netlist nl("t");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto g = nl.add_gate(Bool2::AND(), a, b);
    nl.add_output(g, "y");
    nl.camouflage(g, {Bool2::AND(), Bool2::OR(), Bool2::XOR()}, "lib");

    Solver s;
    CircuitEncoder encoder(s);
    const Encoding enc = encoder.encode(nl);
    ASSERT_EQ(enc.keys.size(), 2u);
    // For each valid key code, outputs must match the selected candidate.
    const Bool2 cands[] = {Bool2::AND(), Bool2::OR(), Bool2::XOR()};
    for (int code = 0; code < 3; ++code) {
        for (int va = 0; va < 2; ++va)
            for (int vb = 0; vb < 2; ++vb) {
                std::vector<Lit> assume = {
                    Lit(enc.keys[0], (code & 1) == 0),
                    Lit(enc.keys[1], (code & 2) == 0),
                    Lit(enc.pis[0], va == 0),
                    Lit(enc.pis[1], vb == 0),
                };
                ASSERT_EQ(s.solve(assume), Result::Sat);
                ASSERT_EQ(lit_value(s, enc.outs[0]),
                          cands[code].eval(va != 0, vb != 0))
                    << "code " << code << " a " << va << " b " << vb;
            }
    }
    // The unused code 3 is forbidden.
    EXPECT_EQ(s.solve({Lit(enc.keys[0], false), Lit(enc.keys[1], false)}),
              Result::Unsat);
}

TEST(Encoder, SharedPisCoupleInstances) {
    netlist::RandomSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 4;
    spec.n_gates = 40;
    spec.seed = 31;
    const netlist::Netlist nl = netlist::random_circuit(spec);
    Solver s;
    CircuitEncoder encoder(s);
    const auto e1 = encoder.encode(nl);
    const auto e2 = encoder.encode(nl, e1.pis);
    // Two copies of the same plain circuit on the same inputs can never
    // differ: forcing a difference must be UNSAT. Structural hashing maps
    // the second copy onto the first, so the encoder refutes it outright.
    EXPECT_EQ(e2.outs, e1.outs);
    encoder.add_difference(e1.outs, e2.outs);
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Encoder, RejectsSequentialNetlists) {
    netlist::Netlist nl("seq");
    const auto d = nl.add_input("d");
    nl.add_dff(d, "ff");
    Solver s;
    CircuitEncoder encoder(s);
    EXPECT_THROW(encoder.encode(nl), std::invalid_argument);
}

TEST(Encoder, HelperGates) {
    Solver s;
    CircuitEncoder encoder(s);
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    const Lit la(a, false), lb(b, false), lc(c, false);
    const Lit y = encoder.add_xor(la, lb);
    const Lit o = encoder.add_or({la, lb, lc});
    for (int m = 0; m < 8; ++m) {
        const bool va = m & 1, vb = m & 2, vc = m & 4;
        ASSERT_EQ(s.solve({Lit(a, !va), Lit(b, !vb), Lit(c, !vc)}), Result::Sat);
        EXPECT_EQ(lit_value(s, y), va != vb);
        EXPECT_EQ(lit_value(s, o), va || vb || vc);
    }
    // Degenerate inputs fold to constants.
    EXPECT_EQ(encoder.add_xor(la, la), encoder.constant(false));
    EXPECT_EQ(encoder.add_or({}), encoder.constant(false));
    EXPECT_EQ(encoder.add_or({la, ~la}), encoder.constant(true));
}

TEST(Encoder, FixVarPinsValue) {
    Solver s;
    CircuitEncoder encoder(s);
    const Var v = s.new_var();
    encoder.fix_var(v, true);
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.model_bool(v));
    EXPECT_EQ(s.solve({Lit(v, true)}), Result::Unsat);
}

// ---- DIMACS ---------------------------------------------------------------------

TEST(Dimacs, RoundTrip) {
    CnfFormula f;
    f.num_vars = 3;
    f.clauses = {{Lit(0, false), Lit(1, true)}, {Lit(2, false)}};
    std::ostringstream out;
    write_dimacs(out, f);
    const CnfFormula g = read_dimacs_string(out.str());
    EXPECT_EQ(g.num_vars, 3);
    ASSERT_EQ(g.clauses.size(), 2u);
    EXPECT_EQ(g.clauses[0], f.clauses[0]);
    EXPECT_EQ(g.clauses[1], f.clauses[1]);
}

TEST(Dimacs, ParsesCommentsAndHeader) {
    const CnfFormula f = read_dimacs_string(
        "c a comment\np cnf 2 2\n1 -2 0\n2 0\n");
    EXPECT_EQ(f.num_vars, 2);
    ASSERT_EQ(f.clauses.size(), 2u);
    Solver s;
    EXPECT_TRUE(load_into_solver(f, s));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.model_bool(1));  // var 2 (1-based) forced true
}

TEST(Dimacs, RejectsUnterminatedClause) {
    EXPECT_THROW(read_dimacs_string("p cnf 2 1\n1 -2\n"), std::runtime_error);
}

TEST(Dimacs, RoundTripSurvivesInterleavedComments) {
    CnfFormula f;
    f.num_vars = 4;
    f.clauses = {{Lit(0, false), Lit(3, true)},
                 {Lit(1, true), Lit(2, false), Lit(3, false)},
                 {Lit(2, true)}};
    std::ostringstream out;
    write_dimacs(out, f);
    // Re-read with comments sprinkled between header and clauses.
    std::string text = out.str();
    text.insert(0, "c leading comment\nc another, with numbers 1 2 0\n");
    text += "c trailing comment\n";
    const CnfFormula g = read_dimacs_string(text);
    EXPECT_EQ(g.num_vars, f.num_vars);
    ASSERT_EQ(g.clauses.size(), f.clauses.size());
    for (std::size_t i = 0; i < f.clauses.size(); ++i)
        EXPECT_EQ(g.clauses[i], f.clauses[i]) << i;
}

TEST(Dimacs, RejectsWrongArityHeader) {
    EXPECT_THROW(read_dimacs_string("p cnf 3\n1 0\n"), std::runtime_error);
    EXPECT_THROW(read_dimacs_string("p cnf\n"), std::runtime_error);
    EXPECT_THROW(read_dimacs_string("p cnf x y\n1 0\n"), std::runtime_error);
    EXPECT_THROW(read_dimacs_string("p sat 2 1\n1 0\n"), std::runtime_error);
}

// ---- solver output parsing -------------------------------------------------

TEST(SolverOutput, ParsesModelSplitAcrossVRecords) {
    const SolverOutput out = parse_solver_output_string(
        "c some banner\n"
        "s SATISFIABLE\n"
        "v 1 -2\n"
        "v 3\n"
        "v -4 0\n");
    EXPECT_EQ(out.status, SolveResult::Sat);
    EXPECT_TRUE(out.model_complete);
    ASSERT_EQ(out.model.size(), 4u);
    EXPECT_EQ(out.model[0], LBool::True);
    EXPECT_EQ(out.model[1], LBool::False);
    EXPECT_EQ(out.model[2], LBool::True);
    EXPECT_EQ(out.model[3], LBool::False);
}

TEST(SolverOutput, ParsesUnsatAndMissingStatus) {
    EXPECT_EQ(parse_solver_output_string("s UNSATISFIABLE\n").status,
              SolveResult::Unsat);
    // A killed solver (wall-clock timeout) emits no status line at all.
    EXPECT_EQ(parse_solver_output_string("c half-finished banner\n").status,
              SolveResult::Unknown);
    EXPECT_EQ(parse_solver_output_string("s INDETERMINATE\n").status,
              SolveResult::Unknown);
}

TEST(SolverOutput, AcceptsBareMiniSatStatusLines) {
    const SolverOutput sat = parse_solver_output_string("SATISFIABLE\n");
    EXPECT_EQ(sat.status, SolveResult::Sat);
    EXPECT_EQ(parse_solver_output_string("UNSATISFIABLE\n").status,
              SolveResult::Unsat);
}

TEST(SolverOutput, MissingModelTerminatorIsFlagged) {
    const SolverOutput out = parse_solver_output_string(
        "s SATISFIABLE\nv 1 -2\n");  // truncated mid-model
    EXPECT_EQ(out.status, SolveResult::Sat);
    EXPECT_FALSE(out.model_complete);
}

TEST(SolverOutput, ScrapesWorkCountersFromCommentLines) {
    const SolverOutput out = parse_solver_output_string(
        "c restarts              : 3 (512 conflicts in avg)\n"
        "c conflicts             : 1234   (56 /sec)\n"
        "c decisions             : 5678   (1.2 % random)\n"
        "propagations            : 91011  (no c prefix: MiniSat style)\n"
        "s UNSATISFIABLE\n");
    EXPECT_EQ(out.status, SolveResult::Unsat);
    EXPECT_EQ(out.stats.restarts, 3u);
    EXPECT_EQ(out.stats.conflicts, 1234u);
    EXPECT_EQ(out.stats.decisions, 5678u);
    EXPECT_EQ(out.stats.propagations, 91011u);
}

// ---- backend registry ------------------------------------------------------

TEST(BackendRegistry, RegistersInternalPortfolioAndDimacs) {
    const auto names = backend_names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "internal");
    EXPECT_EQ(names[1], "portfolio");
    EXPECT_EQ(names[2], "dimacs");
    EXPECT_NE(find_backend("internal"), nullptr);
    EXPECT_TRUE(backend_by_name("internal").available());
    EXPECT_FALSE(backend_by_name("internal").label().empty());
    EXPECT_TRUE(backend_by_name("portfolio").available());
}

TEST(BackendRegistry, UnknownNameFailsListingRegisteredBackends) {
    EXPECT_EQ(find_backend("zchaff"), nullptr);
    try {
        backend_by_name("zchaff");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("zchaff"), std::string::npos);
        EXPECT_NE(what.find("internal"), std::string::npos);
        EXPECT_NE(what.find("dimacs"), std::string::npos);
    }
    EXPECT_THROW(make_backend("zchaff"), std::invalid_argument);
}

TEST(BackendRegistry, InternalBackendSolvesThroughTheInterface) {
    const auto backend = make_backend("internal");
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->backend_name(), "internal");
    const Var a = backend->new_var(), b = backend->new_var();
    backend->add_clause(Lit(a, false), Lit(b, false));
    backend->add_clause(Lit(a, true));
    ASSERT_EQ(backend->solve(), SolveResult::Sat);
    EXPECT_TRUE(backend->model_bool(b));
    // The encoder accepts any backend.
    CircuitEncoder encoder(*backend);
    const Lit y = encoder.add_xor(Lit(a, false), Lit(b, false));
    ASSERT_EQ(backend->solve(), SolveResult::Sat);
    EXPECT_EQ(lit_value(*backend, y),
              backend->model_bool(a) != backend->model_bool(b));
}

// ---- DIMACS subprocess backend ---------------------------------------------

/// A fake solver binary: a shell script printing a canned answer, so the
/// subprocess plumbing (export, launch, parse) is tested hermetically
/// without any real external solver installed.
struct FakeSolver {
    std::string path;
    explicit FakeSolver(const std::string& name, const std::string& body) {
        path = std::string("/tmp/gshe_fake_") + name + ".sh";
        std::ofstream f(path);
        f << "#!/bin/sh\n" << body;
        f.close();
        std::string cmd = "chmod +x " + path;
        EXPECT_EQ(std::system(cmd.c_str()), 0);
    }
    ~FakeSolver() { std::remove(path.c_str()); }
};

TEST(DimacsBackend, ParsesFakeSolverModel) {
    const FakeSolver fake("sat",
                          "echo 'c fake solver'\n"
                          "echo 's SATISFIABLE'\n"
                          "echo 'v 1 -2'\n"
                          "echo 'v 0'\n");
    DimacsBackend backend(fake.path);
    EXPECT_EQ(backend.backend_name(), "dimacs");
    const Var a = backend.new_var(), b = backend.new_var();
    backend.add_clause(Lit(a, false), Lit(b, true));
    ASSERT_EQ(backend.solve(), SolveResult::Sat);
    EXPECT_TRUE(backend.model_bool(a));
    EXPECT_FALSE(backend.model_bool(b));
    EXPECT_EQ(backend.subprocess_stats().solves, 1u);
    EXPECT_GT(backend.subprocess_stats().encoded_bytes, 0u);
}

TEST(DimacsBackend, ReencodesPerSolveAndRecordsTheCost) {
    const FakeSolver fake("unsat", "echo 's UNSATISFIABLE'\n");
    DimacsBackend backend(fake.path);
    const Var a = backend.new_var();
    backend.add_clause(Lit(a, false));
    backend.add_clause(Lit(a, true));
    EXPECT_EQ(backend.solve(), SolveResult::Unsat);
    EXPECT_EQ(backend.solve({Lit(a, false)}), SolveResult::Unsat);
    // Non-incremental: both solves re-exported the full CNF, the second
    // plus its assumption unit.
    EXPECT_EQ(backend.subprocess_stats().solves, 2u);
    EXPECT_EQ(backend.subprocess_stats().encoded_clauses, 2u + 3u);
}

TEST(DimacsBackend, SolverWithoutStatusLineIsUnknown) {
    const FakeSolver fake("crash", "echo 'c died early'\nexit 1\n");
    DimacsBackend backend(fake.path);
    backend.new_var();
    EXPECT_EQ(backend.solve(), SolveResult::Unknown);
}

TEST(DimacsBackend, SatWithTruncatedModelIsUnknown) {
    // A solver killed mid-model (or one that never prints "v" records)
    // must not read as an all-false assignment.
    const FakeSolver fake("truncated",
                          "echo 's SATISFIABLE'\n"
                          "echo 'v 1 -2'\n");  // missing terminating 0
    DimacsBackend backend(fake.path);
    backend.new_var();
    backend.new_var();
    EXPECT_EQ(backend.solve(), SolveResult::Unknown);
}

TEST(DimacsBackend, MissingBinaryThrowsInsteadOfTimingOut) {
    // A misconfigured command (shell exit 127) must fail loudly rather
    // than turn a whole campaign into fake "t-o" cells.
    DimacsBackend backend("/no/such/solver_binary_xyz");
    backend.new_var();
    EXPECT_THROW(backend.solve(), std::runtime_error);
}

TEST(DimacsBackend, ReceivesTheExportedFormula) {
    // The fake copies its input to a scratch location; verify the export
    // is well-formed DIMACS containing our clause and the assumption unit.
    const std::string copy = "/tmp/gshe_fake_seen.cnf";
    const FakeSolver fake("copy", "cp \"$1\" " + copy +
                                      "\necho 's UNSATISFIABLE'\n");
    DimacsBackend backend(fake.path);
    const Var a = backend.new_var(), b = backend.new_var();
    backend.add_clause(Lit(a, false), Lit(b, false));
    EXPECT_EQ(backend.solve({Lit(b, true)}), SolveResult::Unsat);
    std::ifstream f(copy);
    ASSERT_TRUE(f.good());
    std::stringstream text;
    text << f.rdbuf();
    const CnfFormula parsed = read_dimacs_string(text.str());
    EXPECT_EQ(parsed.num_vars, 2);
    ASSERT_EQ(parsed.clauses.size(), 2u);
    EXPECT_EQ(parsed.clauses[0], (Clause{Lit(a, false), Lit(b, false)}));
    EXPECT_EQ(parsed.clauses[1], (Clause{Lit(b, true)}));
    std::remove(copy.c_str());
}

/// Real-binary smoke test: runs only when GSHE_DIMACS_SOLVER names a
/// MiniSat/CryptoMiniSat-compatible solver; skipped otherwise (CI without
/// an external solver stays green).
TEST(DimacsBackend, RealSolverRoundTripIfConfigured) {
    if (!backend_by_name("dimacs").available())
        GTEST_SKIP() << kDimacsSolverEnv << " not set";
    const auto backend = make_backend("dimacs");
    const Var a = backend->new_var(), b = backend->new_var();
    backend->add_clause(Lit(a, false), Lit(b, false));
    backend->add_clause(Lit(a, true), Lit(b, false));
    ASSERT_EQ(backend->solve(), SolveResult::Sat);
    EXPECT_TRUE(backend->model_bool(b));  // b is forced true
    // And an UNSAT instance on a fresh backend.
    const auto backend2 = make_backend("dimacs");
    const Var x = backend2->new_var();
    backend2->add_clause(Lit(x, false));
    backend2->add_clause(Lit(x, true));
    EXPECT_EQ(backend2->solve(), SolveResult::Unsat);
}

}  // namespace
}  // namespace gshe::sat
