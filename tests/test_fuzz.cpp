// Seeded, fixed-iteration mutation fuzzing of the two parsers that read
// files a campaign did not write itself: the checkpoint journal decoder
// (checkpoint::decode_record) and the .bench reader (read_bench_string).
//
// Each iteration takes a valid seed input, applies a few random byte-level
// mutations (bit flips, deletions, insertions of syntax characters,
// duplications, truncation, extreme numbers, splices) and feeds the result
// to the parser. The contract under test: the journal decoder never throws
// and answers std::nullopt for anything it cannot use; the .bench reader
// either parses or throws std::runtime_error. Everything else — a crash, a
// hang, another exception type, or (in the GSHE_ASAN build) an out-of-bounds
// access — fails the suite. The seeds are fixed, so a finding reproduces
// bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "camo/cell_library.hpp"
#include "camo/protect.hpp"
#include "common/rng.hpp"
#include "engine/checkpoint.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"

namespace gshe {
namespace {

constexpr int kIterations = 20000;

/// Bytes that steer mutations toward the parsers' syntax.
const std::string kSyntax = "{}[]\":,.-+eE0123456789\\ \n\t()=#/tfnul";

/// Numbers at and past the edges of every integer and double type.
const std::vector<std::string> kExtremes = {
    "18446744073709551616", "-9223372036854775809", "1e999", "-1e999",
    "4.9e-325",             "-0",                   "NaN",   "00000000001",
    "-1",                   "2147483648",
};

std::string mutate(std::string s, const std::vector<std::string>& seeds,
                   Rng& rng) {
    const int rounds = 1 + static_cast<int>(rng.below(4));
    for (int r = 0; r < rounds; ++r) {
        const std::size_t n = s.size();
        const std::size_t at = n == 0 ? 0 : rng.below(n);
        switch (rng.below(7)) {
            case 0:  // flip one bit
                if (n != 0) s[at] = static_cast<char>(s[at] ^ (1 << rng.below(8)));
                break;
            case 1:  // delete a short span
                s.erase(at, 1 + rng.below(8));
                break;
            case 2:  // insert a syntax character or a random byte
                s.insert(at, 1,
                         rng.bernoulli(0.7)
                             ? kSyntax[rng.below(kSyntax.size())]
                             : static_cast<char>(rng.below(256)));
                break;
            case 3:  // duplicate a span
                if (n != 0) s.insert(at, s.substr(rng.below(n), 1 + rng.below(16)));
                break;
            case 4:  // truncate
                s.resize(at);
                break;
            case 5: {  // replace a run of digits with an extreme number
                const std::size_t d = s.find_first_of("0123456789", at);
                if (d == std::string::npos) break;
                const std::size_t end = s.find_first_not_of("0123456789", d);
                s.replace(d, (end == std::string::npos ? s.size() : end) - d,
                          kExtremes[rng.below(kExtremes.size())]);
                break;
            }
            default: {  // splice in a span of another seed
                const std::string& other = seeds[rng.below(seeds.size())];
                if (other.empty()) break;
                s.insert(at, other.substr(rng.below(other.size()),
                                          1 + rng.below(32)));
                break;
            }
        }
    }
    return s;
}

// ---- seeds ------------------------------------------------------------------

std::vector<std::string> journal_seeds() {
    engine::JobSpec spec;
    spec.circuit = "c7552";
    spec.defense.kind = "sarlock";
    spec.defense.protect_seed = 0x5a8;
    spec.attack = "appsat";
    spec.attack_options.max_conflicts = 50000;
    spec.attack_options.appsat_error_threshold = 0.01;

    engine::JobResult r;
    r.index = 3;
    r.circuit = spec.circuit;
    r.defense = "sarlock(m=4)";
    r.attack = spec.attack;
    r.spec_seed = 2;
    r.derived_seed = 0xfedcba9876543210ULL;
    r.key_bits = 4;
    r.job_seconds = 0.125;
    r.result.status = attack::AttackResult::Status::Success;
    r.result.key.bits = {true, false, true, true};
    r.result.iterations = 17;
    r.result.seconds = 1.0 / 3.0;
    r.result.key_error_rate = 0.0;
    r.result.key_exact = true;
    r.result.solver_stats.conflicts = 90;
    r.result.encoder_stats.vars = 1234;
    r.oracle_stats.batch_log2_hist = {4, 0, 1};
    r.oracle_contract = "deterministic";

    engine::checkpoint::ShardStamp stamp;
    stamp.plan_fingerprint = 0x1234;
    stamp.plan_size = 24;
    stamp.shard_index = 1;
    stamp.shard_total = 2;

    engine::JobResult failed = r;
    failed.result.status = attack::AttackResult::Status::TimedOut;
    failed.result.key.bits.clear();
    return {engine::checkpoint::encode_record(42, spec, r, stamp),
            engine::checkpoint::encode_record(7, spec, failed)};
}

std::vector<std::string> bench_seeds() {
    netlist::RandomSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 5;
    spec.n_gates = 40;
    spec.seed = 3;
    const netlist::Netlist plain = netlist::random_circuit(spec);
    const camo::Protection prot = camo::apply_camouflage(
        plain, camo::select_gates(plain, 0.2, 3), camo::gshe16(), 3);
    return {netlist::write_bench_string(prot.netlist),
            "# sequential, multi-input\n"
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\nOUTPUT(q)\n"
            "n1 = NAND(a, b, c)\nq = DFF(n1)\nn2 = XOR(q, a)\n"
            "z = NOT(n2)\n"};
}

// ---- the fuzz loops ---------------------------------------------------------

TEST(Fuzz, JournalDecoderNeverThrowsOnMutatedRecords) {
    const std::vector<std::string> seeds = journal_seeds();
    for (const std::string& s : seeds)
        ASSERT_TRUE(engine::checkpoint::decode_record(s).has_value());

    Rng rng(0xf022a1);
    int decoded = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string line =
            mutate(seeds[rng.below(seeds.size())], seeds, rng);
        try {
            decoded += engine::checkpoint::decode_record(line).has_value();
        } catch (const std::exception& e) {
            ADD_FAILURE() << "iteration " << i << " threw " << e.what()
                          << " on: " << line;
        }
    }
    // The mutations reach past the first syntax error: some mutants are
    // still valid records and exercise the field decoders.
    EXPECT_GT(decoded, kIterations / 100);
}

TEST(Fuzz, BenchReaderParsesOrThrowsRuntimeError) {
    const std::vector<std::string> seeds = bench_seeds();
    for (const std::string& s : seeds)
        ASSERT_NO_THROW(netlist::read_bench_string(s));

    Rng rng(0xbe7c4);
    int parsed = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string text =
            mutate(seeds[rng.below(seeds.size())], seeds, rng);
        try {
            (void)netlist::read_bench_string(text);
            ++parsed;
        } catch (const std::runtime_error&) {
            // The documented rejection.
        } catch (const std::exception& e) {
            ADD_FAILURE() << "iteration " << i << " threw a non-runtime_error "
                          << e.what() << " on:\n" << text;
        }
    }
    EXPECT_GT(parsed, kIterations / 100);
}

}  // namespace
}  // namespace gshe
