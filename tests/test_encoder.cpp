// Tests for the CNF encoder (sat/encoder.hpp) and the attack pipeline built
// on it, checked against ground truth rather than against another encoder:
//
//  * constant folding, structural hashing and the shared constant variable;
//  * every encoded circuit and camouflaged cell evaluates like the
//    simulator / the keyed candidate function;
//  * key-cone agreements admit exactly the keys a brute-force enumeration
//    through the simulator finds consistent with the observations;
//  * every key the attacks recover — 200 randomized camouflaged netlists
//    plus the deterministic defense families — is formally equivalent to
//    the defender's circuit (check_key_equivalence);
//  * campaign CSVs stay byte-identical across thread counts and across a
//    checkpoint resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
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
