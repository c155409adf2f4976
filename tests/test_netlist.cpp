// Tests for the netlist substrate: data structure, simulator, .bench I/O,
// generators, corpus and sequential preprocessing.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/corpus.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sequential.hpp"
#include "netlist/simulator.hpp"

namespace gshe::netlist {
namespace {

using core::Bool2;

Netlist tiny_and_or() {
    // po0 = (a & b) | c
    Netlist nl("tiny");
    const GateId a = nl.add_input("a");
    const GateId b = nl.add_input("b");
    const GateId c = nl.add_input("c");
    const GateId g1 = nl.add_gate(Bool2::AND(), a, b, "g1");
    const GateId g2 = nl.add_gate(Bool2::OR(), g1, c, "g2");
    nl.add_output(g2, "po0");
    return nl;
}

// ---- Netlist structure -------------------------------------------------------

TEST(Netlist, BasicConstruction) {
    const Netlist nl = tiny_and_or();
    EXPECT_EQ(nl.inputs().size(), 3u);
    EXPECT_EQ(nl.outputs().size(), 1u);
    EXPECT_EQ(nl.logic_gate_count(), 2u);
    EXPECT_TRUE(nl.validate());
}

TEST(Netlist, TopologicalOrderRespectsEdges) {
    const Netlist nl = tiny_and_or();
    const auto& order = nl.topological_order();
    std::vector<std::size_t> pos(nl.size());
    for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
    for (GateId id = 0; id < nl.size(); ++id) {
        const Gate& g = nl.gate(id);
        if (g.type != CellType::Logic) continue;
        EXPECT_LT(pos[g.a], pos[id]);
        if (g.b != kNoGate) {
            EXPECT_LT(pos[g.b], pos[id]);
        }
    }
}

TEST(Netlist, LevelsAndDepth) {
    const Netlist nl = tiny_and_or();
    const auto lv = nl.levels();
    EXPECT_EQ(nl.depth(), 2);
    EXPECT_EQ(lv[nl.inputs()[0]], 0);
}

TEST(Netlist, FanoutsComputed) {
    const Netlist nl = tiny_and_or();
    const auto& fo = nl.fanouts();
    EXPECT_EQ(fo[nl.inputs()[0]].size(), 1u);  // a -> g1
}

TEST(Netlist, UnaryGateValidation) {
    Netlist nl;
    const GateId a = nl.add_input("a");
    EXPECT_NO_THROW(nl.add_unary(Bool2::NOT_A(), a));
    EXPECT_THROW(nl.add_unary(Bool2::AND(), a), std::invalid_argument);
    EXPECT_THROW(nl.add_gate(Bool2::AND(), a, 99), std::out_of_range);
}

TEST(Netlist, CamouflageBookkeeping) {
    Netlist nl = tiny_and_or();
    const GateId g1 = 3;  // the AND gate
    nl.camouflage(g1, {Bool2::AND(), Bool2::OR(), Bool2::NAND()}, "testlib");
    EXPECT_EQ(nl.camo_cells().size(), 1u);
    EXPECT_TRUE(nl.gate(g1).is_camouflaged());
    EXPECT_EQ(nl.camo_cells()[0].key_bits(), 2);  // ceil(log2 3)
    EXPECT_EQ(nl.camo_cells()[0].true_index(nl.gate(g1)), 0);
    EXPECT_EQ(nl.key_bit_count(), 2);
    nl.clear_camouflage();
    EXPECT_FALSE(nl.gate(g1).is_camouflaged());
    EXPECT_EQ(nl.key_bit_count(), 0);
}

TEST(Netlist, CamouflageRejectsBadSets) {
    Netlist nl = tiny_and_or();
    EXPECT_THROW(nl.camouflage(3, {Bool2::NAND(), Bool2::NOR()}, "x"),
                 std::invalid_argument);  // true fn (AND) not in set
    nl.camouflage(3, {Bool2::AND(), Bool2::NAND()}, "x");
    EXPECT_THROW(nl.camouflage(3, {Bool2::AND(), Bool2::NAND()}, "x"),
                 std::invalid_argument);  // double camouflage
    EXPECT_THROW(nl.camouflage(nl.inputs()[0], {Bool2::AND()}, "x"),
                 std::invalid_argument);  // not a logic gate
}

TEST(Netlist, RedirectFanouts) {
    Netlist nl = tiny_and_or();
    const GateId inserted = nl.add_unary(Bool2::NOT_A(), 3);
    nl.redirect_fanouts(3, inserted, inserted);
    // g2 now reads the inverter instead of g1.
    EXPECT_EQ(nl.gate(4).a, inserted);
    EXPECT_TRUE(nl.validate());
}

TEST(Netlist, KeyBitsPerCellSizes) {
    CamoCell cell;
    cell.candidates.assign(2, Bool2::AND());
    EXPECT_EQ(cell.key_bits(), 1);
    cell.candidates.assign(3, Bool2::AND());
    EXPECT_EQ(cell.key_bits(), 2);
    cell.candidates.assign(4, Bool2::AND());
    EXPECT_EQ(cell.key_bits(), 2);
    cell.candidates.assign(16, Bool2::AND());
    EXPECT_EQ(cell.key_bits(), 4);
}

// ---- Simulator ------------------------------------------------------------------

TEST(Simulator, TinyCircuitTruth) {
    const Netlist nl = tiny_and_or();
    const Simulator sim(nl);
    for (int m = 0; m < 8; ++m) {
        const bool a = m & 1, b = m & 2, c = m & 4;
        const auto out = sim.run_single({a, b, c});
        EXPECT_EQ(out[0], (a && b) || c);
    }
}

TEST(Simulator, PackedMatchesSingle) {
    RandomSpec spec;
    spec.n_inputs = 10;
    spec.n_outputs = 6;
    spec.n_gates = 80;
    spec.seed = 77;
    const Netlist nl = random_circuit(spec);
    const Simulator sim(nl);
    Rng rng(5);
    std::vector<std::uint64_t> pi(nl.inputs().size());
    for (auto& w : pi) w = rng();
    const auto packed = sim.run(pi);
    for (int bit = 0; bit < 64; bit += 7) {
        std::vector<bool> single(pi.size());
        for (std::size_t i = 0; i < pi.size(); ++i)
            single[i] = ((pi[i] >> bit) & 1) != 0;
        const auto out = sim.run_single(single);
        for (std::size_t o = 0; o < out.size(); ++o)
            EXPECT_EQ(out[o], ((packed[o] >> bit) & 1) != 0);
    }
}

TEST(Simulator, EvalWordMatchesTruthTables) {
    for (Bool2 f : Bool2::all()) {
        const std::uint64_t a = 0b1100, b = 0b1010;
        const std::uint64_t r = Simulator::eval_word(f, a, b) & 0xF;
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(((r >> i) & 1) != 0, f.eval((a >> i) & 1, (b >> i) & 1));
    }
}

TEST(Simulator, FunctionOverridesApply) {
    Netlist nl = tiny_and_or();
    nl.camouflage(3, {Bool2::AND(), Bool2::OR()}, "lib");
    const Simulator sim(nl);
    std::vector<std::uint64_t> pi = {~0ULL, 0ULL, 0ULL};  // a=1, b=0, c=0
    const auto truth = sim.run(pi);
    EXPECT_EQ(truth[0], 0ULL);  // (1&0)|0 = 0
    const core::Bool2 ovr[] = {Bool2::OR()};
    const auto forged = sim.run_with_functions(pi, ovr);
    EXPECT_EQ(forged[0], ~0ULL);  // (1|0)|0 = 1
}

TEST(Simulator, NoisyFlipMasksApply) {
    Netlist nl = tiny_and_or();
    nl.camouflage(3, {Bool2::AND(), Bool2::OR()}, "lib");
    const Simulator sim(nl);
    std::vector<std::uint64_t> pi = {~0ULL, ~0ULL, 0ULL};  // a=b=1, c=0
    const std::uint64_t masks[] = {0xFFULL};  // flip patterns 0..7
    const auto out = sim.run_noisy(pi, masks);
    EXPECT_EQ(out[0], ~0xFFULL);  // true 1 everywhere, flipped low byte
}

TEST(Simulator, InputCountValidated) {
    const Netlist nl = tiny_and_or();
    const Simulator sim(nl);
    std::vector<std::uint64_t> wrong(2);
    EXPECT_THROW(sim.run(wrong), std::invalid_argument);
}

// ---- bench I/O --------------------------------------------------------------------

TEST(BenchIo, ParsesC17) {
    const Netlist nl = c17();
    EXPECT_EQ(nl.inputs().size(), 5u);
    EXPECT_EQ(nl.outputs().size(), 2u);
    EXPECT_EQ(nl.logic_gate_count(), 6u);
    EXPECT_TRUE(nl.validate());
}

TEST(BenchIo, C17KnownVectors) {
    const Netlist nl = c17();
    const Simulator sim(nl);
    // c17: O22 = N10 NAND N16; exhaustive check against the reference
    // equations 22 = !( !(1&3) & !(2 & !(3&6)) ), 23 = !( !(2&!(3&6)) & !(!(3&6)&7) ).
    for (int m = 0; m < 32; ++m) {
        const bool i1 = m & 1, i2 = m & 2, i3 = m & 4, i6 = m & 8, i7 = m & 16;
        const bool n11 = !(i3 && i6);
        const bool n10 = !(i1 && i3);
        const bool n16 = !(i2 && n11);
        const bool n19 = !(n11 && i7);
        const bool o22 = !(n10 && n16);
        const bool o23 = !(n16 && n19);
        const auto out = sim.run_single({i1, i2, i3, i6, i7});
        EXPECT_EQ(out[0], o22) << m;
        EXPECT_EQ(out[1], o23) << m;
    }
}

TEST(BenchIo, RoundTripPreservesFunction) {
    RandomSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 8;
    spec.n_gates = 60;
    spec.seed = 3;
    const Netlist a = random_circuit(spec);
    const Netlist b = read_bench_string(write_bench_string(a), "rt");
    ASSERT_EQ(a.inputs().size(), b.inputs().size());
    ASSERT_EQ(a.outputs().size(), b.outputs().size());
    const Simulator sa(a), sb(b);
    Rng rng(17);
    for (int t = 0; t < 20; ++t) {
        std::vector<std::uint64_t> pi(a.inputs().size());
        for (auto& w : pi) w = rng();
        const auto oa = sa.run(pi);
        const auto ob = sb.run(pi);
        for (std::size_t o = 0; o < oa.size(); ++o) EXPECT_EQ(oa[o], ob[o]);
    }
}

TEST(BenchIo, MultiInputGatesDecompose) {
    const Netlist nl = read_bench_string(
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\n"
        "y = NAND(a, b, c, d)\n");
    const Simulator sim(nl);
    for (int m = 0; m < 16; ++m) {
        const bool a = m & 1, b = m & 2, c = m & 4, d = m & 8;
        EXPECT_EQ(sim.run_single({a, b, c, d})[0], !(a && b && c && d));
    }
}

TEST(BenchIo, ForwardReferencesResolve) {
    const Netlist nl = read_bench_string(
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
        "y = AND(t, b)\n"   // t defined later
        "t = NOT(a)\n");
    const Simulator sim(nl);
    EXPECT_EQ(sim.run_single({false, true})[0], true);
    EXPECT_EQ(sim.run_single({true, true})[0], false);
}

TEST(BenchIo, DffRoundTrip) {
    const Netlist nl = read_bench_string(
        "INPUT(d)\nOUTPUT(q)\nff = DFF(d)\nq = BUF(ff)\n");
    EXPECT_EQ(nl.dffs().size(), 1u);
    const Netlist rt = read_bench_string(write_bench_string(nl), "rt");
    EXPECT_EQ(rt.dffs().size(), 1u);
}

TEST(BenchIo, ErrorsAreReported) {
    EXPECT_THROW(read_bench_string("garbage line\n"), std::runtime_error);
    EXPECT_THROW(read_bench_string("y = FROB(a)\nINPUT(a)\nOUTPUT(y)\n"),
                 std::runtime_error);
    EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(y)\ny = AND(a, zz)\n"),
                 std::runtime_error);
}

TEST(BenchIo, CamoCommentsEmitted) {
    Netlist nl = tiny_and_or();
    nl.camouflage(3, {Bool2::AND(), Bool2::OR()}, "gshe16");
    const std::string text = write_bench_string(nl);
    EXPECT_NE(text.find("# camo"), std::string::npos);
    EXPECT_NE(text.find("gshe16"), std::string::npos);
}

// ---- generators --------------------------------------------------------------------

TEST(Generator, RandomCircuitMatchesSpec) {
    RandomSpec spec;
    spec.n_inputs = 20;
    spec.n_outputs = 10;
    spec.n_gates = 150;
    spec.seed = 11;
    const Netlist nl = random_circuit(spec);
    EXPECT_EQ(nl.inputs().size(), 20u);
    EXPECT_GE(nl.outputs().size(), 10u);  // extras drain unused nodes
    EXPECT_EQ(nl.logic_gate_count(), 150u);
    EXPECT_TRUE(nl.validate());
}

TEST(Generator, RandomCircuitIsDeterministic) {
    RandomSpec spec;
    spec.seed = 123;
    const std::string a = write_bench_string(random_circuit(spec));
    const std::string b = write_bench_string(random_circuit(spec));
    EXPECT_EQ(a, b);
}

TEST(Generator, DifferentSeedsDifferentCircuits) {
    RandomSpec a, b;
    a.seed = 1;
    b.seed = 2;
    EXPECT_NE(write_bench_string(random_circuit(a)),
              write_bench_string(random_circuit(b)));
}

TEST(Generator, NoDanglingLogic) {
    RandomSpec spec;
    spec.seed = 9;
    const Netlist nl = random_circuit(spec);
    const auto& fo = nl.fanouts();
    std::set<GateId> po_drivers;
    for (const PortRef& po : nl.outputs()) po_drivers.insert(po.gate);
    for (GateId id = 0; id < nl.size(); ++id) {
        if (nl.gate(id).type != CellType::Logic) continue;
        EXPECT_TRUE(!fo[id].empty() || po_drivers.count(id))
            << "gate " << id << " dangles";
    }
}

TEST(Generator, RippleCarryAdderAddsCorrectly) {
    const Netlist nl = ripple_carry_adder(8);
    const Simulator sim(nl);
    Rng rng(3);
    for (int t = 0; t < 200; ++t) {
        const unsigned a = static_cast<unsigned>(rng.below(256));
        const unsigned b = static_cast<unsigned>(rng.below(256));
        const unsigned cin = static_cast<unsigned>(rng.below(2));
        std::vector<bool> pi;
        for (int i = 0; i < 8; ++i) pi.push_back((a >> i) & 1);
        for (int i = 0; i < 8; ++i) pi.push_back((b >> i) & 1);
        pi.push_back(cin != 0);
        const auto out = sim.run_single(pi);
        const unsigned sum = a + b + cin;
        for (int i = 0; i < 9; ++i)
            ASSERT_EQ(out[static_cast<std::size_t>(i)], ((sum >> i) & 1) != 0)
                << a << "+" << b << "+" << cin;
    }
}

TEST(Generator, ArrayMultiplierMultipliesCorrectly) {
    const Netlist nl = array_multiplier(6);
    const Simulator sim(nl);
    Rng rng(4);
    for (int t = 0; t < 200; ++t) {
        const unsigned a = static_cast<unsigned>(rng.below(64));
        const unsigned b = static_cast<unsigned>(rng.below(64));
        std::vector<bool> pi;
        for (int i = 0; i < 6; ++i) pi.push_back((a >> i) & 1);
        for (int i = 0; i < 6; ++i) pi.push_back((b >> i) & 1);
        const auto out = sim.run_single(pi);
        const unsigned prod = a * b;
        ASSERT_EQ(out.size(), 12u);
        for (int i = 0; i < 12; ++i)
            ASSERT_EQ(out[static_cast<std::size_t>(i)], ((prod >> i) & 1) != 0)
                << a << "*" << b;
    }
}

TEST(Generator, SequentialCircuitHasFlipFlops) {
    SequentialSpec spec;
    spec.n_ffs = 24;
    spec.seed = 6;
    const Netlist nl = random_sequential(spec);
    EXPECT_EQ(nl.dffs().size(), 24u);
    EXPECT_TRUE(nl.validate());
}

TEST(Generator, LayeredCircuitDepthDominatedByChains) {
    LayeredSpec spec;
    spec.bulk_gates = 2000;
    spec.bulk_depth = 10;
    spec.n_chains = 2;
    spec.chain_length = 100;
    spec.n_inputs = 64;
    spec.n_outputs = 64;
    const Netlist nl = layered_circuit(spec);
    EXPECT_GE(nl.depth(), 100);
    EXPECT_TRUE(nl.validate());
}

// ---- sequential preprocessing -------------------------------------------------------

TEST(Sequential, UnrollMovesFlipFlopsToPorts) {
    SequentialSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 8;
    spec.n_ffs = 12;
    spec.n_gates = 100;
    spec.seed = 2;
    const Netlist seq = random_sequential(spec);
    const Netlist comb = unroll_for_scan(seq);
    EXPECT_TRUE(comb.dffs().empty());
    EXPECT_EQ(comb.inputs().size(), seq.inputs().size() + seq.dffs().size());
    EXPECT_EQ(comb.outputs().size(), seq.outputs().size() + seq.dffs().size());
    EXPECT_TRUE(comb.validate());
}

TEST(Sequential, UnrollPreservesCombinationalFunction) {
    SequentialSpec spec;
    spec.n_inputs = 6;
    spec.n_outputs = 5;
    spec.n_ffs = 7;
    spec.n_gates = 60;
    spec.seed = 8;
    const Netlist seq = random_sequential(spec);
    const Netlist comb = unroll_for_scan(seq);
    const Simulator s_seq(seq), s_comb(comb);

    Rng rng(10);
    std::vector<std::uint64_t> pi(seq.inputs().size());
    for (auto& w : pi) w = rng();
    std::vector<std::uint64_t> state(seq.dffs().size());
    for (auto& w : state) w = rng();

    // Sequential view: POs with DFF outputs forced to `state`.
    const auto seq_out = s_seq.run(pi, state);
    // Scan view: state appended to the inputs.
    std::vector<std::uint64_t> comb_pi = pi;
    comb_pi.insert(comb_pi.end(), state.begin(), state.end());
    const auto comb_out = s_comb.run(comb_pi);
    for (std::size_t o = 0; o < seq_out.size(); ++o)
        EXPECT_EQ(comb_out[o], seq_out[o]);
}

TEST(Sequential, UnrollPreservesCamouflage) {
    SequentialSpec spec;
    spec.seed = 12;
    Netlist seq = random_sequential(spec);
    // Camouflage one NAND gate.
    for (GateId id = 0; id < seq.size(); ++id)
        if (seq.gate(id).type == CellType::Logic &&
            seq.gate(id).fn == Bool2::NAND() && seq.gate(id).fanin_count() == 2) {
            seq.camouflage(id, {Bool2::NAND(), Bool2::NOR()}, "lib");
            break;
        }
    ASSERT_EQ(seq.camo_cells().size(), 1u);
    const Netlist comb = unroll_for_scan(seq);
    EXPECT_EQ(comb.camo_cells().size(), 1u);
    EXPECT_EQ(comb.camo_cells()[0].candidates.size(), 2u);
}

// ---- corpus -----------------------------------------------------------------------

TEST(Corpus, EntriesCoverTable3) {
    const auto& entries = corpus_entries();
    EXPECT_GE(entries.size(), 12u);
    std::set<std::string> names;
    for (const auto& e : entries) names.insert(e.name);
    for (const char* required :
         {"aes_core", "b14", "b21", "c7552", "ex1010", "log2", "pci_bridge32",
          "sb1", "sb5", "sb10", "sb12", "sb18", "s38584"})
        EXPECT_TRUE(names.count(required)) << required;
}

TEST(Corpus, BenchmarksBuildAndValidate) {
    for (const char* name : {"c7552", "ex1010", "b14", "log2"}) {
        const Netlist nl = build_benchmark(name);
        EXPECT_TRUE(nl.validate()) << name;
        EXPECT_GT(nl.logic_gate_count(), 100u) << name;
    }
}

TEST(Corpus, Ex1010HasTenInputs) {
    // The characteristic that makes ex1010 the one benchmark resolvable even
    // at 100% protection (Table IV footnote) is its tiny input space.
    const Netlist nl = build_benchmark("ex1010");
    EXPECT_EQ(nl.inputs().size(), 10u);
}

TEST(Corpus, BuildsAreDeterministic) {
    const std::string a = write_bench_string(build_benchmark("c7552"));
    const std::string b = write_bench_string(build_benchmark("c7552"));
    EXPECT_EQ(a, b);
}

TEST(Corpus, SequentialBenchmarkHasFlipFlops) {
    const Netlist nl = build_benchmark("s38584");
    EXPECT_GT(nl.dffs().size(), 100u);
}

TEST(Corpus, UnknownNameThrows) {
    EXPECT_THROW(build_benchmark("nope"), std::invalid_argument);
}

TEST(Corpus, ClassFilters) {
    for (const auto& e : sat_attack_corpus())
        EXPECT_EQ(static_cast<int>(e.cls), static_cast<int>(CorpusClass::SatAttack));
    EXPECT_EQ(timing_corpus().size(), 5u);
}

}  // namespace
}  // namespace gshe::netlist
