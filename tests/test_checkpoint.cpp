// Tests for the campaign checkpoint/resume subsystem: journal record
// round-trips (unknown-field tolerance included), the atomic write-then-
// rename persistence, and — the core contract — that a campaign interrupted
// after ANY prefix of jobs and resumed from its journal produces a
// byte-identical aggregate CSV to an uninterrupted run, at --threads=1 and
// --threads=8.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "engine/campaign.hpp"
#include "engine/checkpoint.hpp"
#include "engine/report.hpp"
#include "netlist/generator.hpp"

namespace gshe::engine {
namespace {

using attack::AttackOptions;
using attack::AttackResult;
using netlist::Netlist;

Netlist tiny_circuit(const std::string& name) {
    netlist::RandomSpec spec;
    spec.n_inputs = 12;
    spec.n_outputs = 8;
    spec.n_gates = 60;
    spec.seed = name == "alpha" ? 11 : 22;
    return netlist::random_circuit(spec, name);
}

/// The 12-job property-test matrix: 2 circuits x 3 defenses x 1 attack x
/// 2 seeds, budgeted by conflicts so every outcome is deterministic.
std::vector<JobSpec> matrix12() {
    DefenseConfig camo;
    camo.fraction = 0.10;
    DefenseConfig sarlock;
    sarlock.kind = "sarlock";
    sarlock.sarlock_bits = 4;
    DefenseConfig stochastic;
    stochastic.kind = "stochastic";
    stochastic.fraction = 0.10;
    stochastic.accuracy = 0.95;

    AttackOptions opt;
    opt.timeout_seconds = 600.0;  // generous: the deterministic budget binds
    opt.max_conflicts = 10000;
    return CampaignRunner::cross_product(
        {"alpha", "beta"}, {camo, sarlock, stochastic}, {"sat"}, {1, 2}, opt);
}

CampaignOptions test_options(int threads, std::string checkpoint = {},
                             bool resume = true) {
    CampaignOptions options;
    options.threads = threads;
    options.netlist_provider = tiny_circuit;
    options.checkpoint_path = std::move(checkpoint);
    options.resume_from_checkpoint = resume;
    return options;
}

/// Unique-per-test scratch journal, removed on destruction.
struct ScratchJournal {
    std::string path;
    explicit ScratchJournal(const std::string& name)
        : path((std::filesystem::temp_directory_path() /
                ("gshe_ckpt_" + name + ".jsonl"))
                   .string()) {
        std::filesystem::remove(path);
    }
    ~ScratchJournal() {
        std::filesystem::remove(path);
        std::filesystem::remove(path + ".tmp");
    }

    std::vector<std::string> lines() const {
        std::vector<std::string> out;
        std::ifstream f(path, std::ios::binary);
        std::string line;
        while (std::getline(f, line)) out.push_back(line);
        return out;
    }

    void write_lines(const std::vector<std::string>& lines) const {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        for (const auto& line : lines) f << line << '\n';
    }
};

/// `line` as a writer of journal format `version` would have stamped it.
std::string with_version(std::string line, std::uint64_t version) {
    const std::string current =
        "\"v\":" + std::to_string(checkpoint::kJournalVersion);
    const std::size_t at = line.find(current);
    if (at == std::string::npos) {
        ADD_FAILURE() << "no version field in " << line;
        return line;
    }
    return line.replace(at, current.size(),
                        "\"v\":" + std::to_string(version));
}

JobResult sample_result() {
    JobResult r;
    r.index = 7;
    r.circuit = "alpha";
    r.defense = "camo:gshe16@10%";
    r.attack = "sat";
    r.solver_backend = "dimacs";
    r.spec_seed = 2;
    r.derived_seed = 0xfedcba9876543210ULL;  // does not fit a double
    r.protected_cells = 6;
    r.key_bits = 24;
    r.error = "with \"quotes\"\nand a newline";
    r.job_seconds = 0.125;
    r.oracle_epochs = 3;
    r.result.status = AttackResult::Status::Inconsistent;
    r.result.key.bits = {true, false, true, true};
    r.result.iterations = 17;
    r.result.seconds = 1.0 / 3.0;  // needs %.17g to round-trip
    r.result.oracle_patterns = 1088;
    r.result.key_error_rate = 2.0 / 3.0;
    r.result.key_exact = false;
    r.result.solver_stats.decisions = 123;
    r.result.solver_stats.propagations = 45678;
    r.result.solver_stats.conflicts = 90;
    r.result.solver_stats.restarts = 4;
    r.result.solver_stats.learnt_clauses = 88;
    r.result.solver_stats.removed_clauses = 11;
    r.result.solver_stats.inprocessings = 7;
    r.result.solver_stats.gc_runs = 2;
    r.result.solver_stats.vivified_lits = 19;
    r.result.solver_stats.xors_recovered = 5;
    r.result.solver_stats.eliminated_vars = 13;
    r.oracle_stats.calls = 21;
    r.oracle_stats.single_calls = 4;
    r.oracle_stats.patterns = 1092;
    r.oracle_stats.seconds = 0.0625;
    r.oracle_stats.batch_log2_hist = {4, 0, 1, 0, 0, 0, 16};
    r.oracle_cache.lanes_deduped = 41;
    return r;
}

JobSpec sample_spec() {
    JobSpec spec;
    spec.circuit = "beta";
    spec.defense.kind = "dynamic";
    spec.defense.library = "gshe16";
    spec.defense.fraction = 0.15;
    spec.defense.sarlock_bits = 6;
    spec.defense.accuracy = 0.99;
    spec.defense.rekey_interval = 10;
    spec.defense.scramble_frac = 0.25;
    spec.defense.duty_true = 1.0 / 3.0;
    spec.defense.protect_seed = 0xdeadbeefcafef00dULL;
    spec.attack = "appsat";
    spec.seed = 5;
    spec.attack_options.timeout_seconds = 12.5;
    spec.attack_options.max_conflicts = 0xffffffffffffffffULL;  // u64 max
    spec.attack_options.max_iterations = 4096;
    spec.attack_options.seed = 99;
    spec.attack_options.verify_patterns = 123;
    spec.attack_options.verify_seed = 77;
    spec.attack_options.appsat_error_threshold = 0.01;
    spec.attack_options.solver_backend = "dimacs";
    spec.attack_options.solver.use_vsids = false;
    spec.attack_options.solver.use_restarts = false;
    spec.attack_options.solver.use_learning = true;
    spec.attack_options.solver.use_phase_saving = false;
    spec.attack_options.solver.reduce_interval = 2048;
    spec.attack_options.solver.use_vivification = true;
    spec.attack_options.solver.use_xor_recovery = false;
    spec.attack_options.solver.use_bve = true;
    spec.attack_options.solver.inprocess_interval = 1024;
    return spec;
}

void expect_specs_equal(const JobSpec& a, const JobSpec& b) {
    EXPECT_EQ(a.circuit, b.circuit);
    EXPECT_EQ(a.defense.kind, b.defense.kind);
    EXPECT_EQ(a.defense.library, b.defense.library);
    EXPECT_EQ(a.defense.fraction, b.defense.fraction);
    EXPECT_EQ(a.defense.sarlock_bits, b.defense.sarlock_bits);
    EXPECT_EQ(a.defense.accuracy, b.defense.accuracy);
    EXPECT_EQ(a.defense.rekey_interval, b.defense.rekey_interval);
    EXPECT_EQ(a.defense.scramble_frac, b.defense.scramble_frac);
    EXPECT_EQ(a.defense.duty_true, b.defense.duty_true);
    EXPECT_EQ(a.defense.protect_seed, b.defense.protect_seed);
    EXPECT_EQ(a.attack, b.attack);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.attack_options.timeout_seconds, b.attack_options.timeout_seconds);
    EXPECT_EQ(a.attack_options.max_conflicts, b.attack_options.max_conflicts);
    EXPECT_EQ(a.attack_options.max_iterations, b.attack_options.max_iterations);
    EXPECT_EQ(a.attack_options.seed, b.attack_options.seed);
    EXPECT_EQ(a.attack_options.verify_patterns, b.attack_options.verify_patterns);
    EXPECT_EQ(a.attack_options.verify_seed, b.attack_options.verify_seed);
    EXPECT_EQ(a.attack_options.appsat_error_threshold,
              b.attack_options.appsat_error_threshold);
    EXPECT_EQ(a.attack_options.solver_backend, b.attack_options.solver_backend);
    EXPECT_EQ(a.attack_options.solver.use_vsids, b.attack_options.solver.use_vsids);
    EXPECT_EQ(a.attack_options.solver.use_restarts,
              b.attack_options.solver.use_restarts);
    EXPECT_EQ(a.attack_options.solver.use_learning,
              b.attack_options.solver.use_learning);
    EXPECT_EQ(a.attack_options.solver.use_phase_saving,
              b.attack_options.solver.use_phase_saving);
    EXPECT_EQ(a.attack_options.solver.reduce_interval,
              b.attack_options.solver.reduce_interval);
    EXPECT_EQ(a.attack_options.solver.use_vivification,
              b.attack_options.solver.use_vivification);
    EXPECT_EQ(a.attack_options.solver.use_xor_recovery,
              b.attack_options.solver.use_xor_recovery);
    EXPECT_EQ(a.attack_options.solver.use_bve, b.attack_options.solver.use_bve);
    EXPECT_EQ(a.attack_options.solver.inprocess_interval,
              b.attack_options.solver.inprocess_interval);
}

void expect_results_equal(const JobResult& a, const JobResult& b) {
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.circuit, b.circuit);
    EXPECT_EQ(a.defense, b.defense);
    EXPECT_EQ(a.attack, b.attack);
    EXPECT_EQ(a.solver_backend, b.solver_backend);
    EXPECT_EQ(a.spec_seed, b.spec_seed);
    EXPECT_EQ(a.derived_seed, b.derived_seed);
    EXPECT_EQ(a.protected_cells, b.protected_cells);
    EXPECT_EQ(a.key_bits, b.key_bits);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.job_seconds, b.job_seconds);
    EXPECT_EQ(a.oracle_epochs, b.oracle_epochs);
    EXPECT_EQ(a.result.status, b.result.status);
    EXPECT_EQ(a.result.key.bits, b.result.key.bits);
    EXPECT_EQ(a.result.iterations, b.result.iterations);
    EXPECT_EQ(a.result.seconds, b.result.seconds);
    EXPECT_EQ(a.result.oracle_patterns, b.result.oracle_patterns);
    EXPECT_EQ(a.result.key_error_rate, b.result.key_error_rate);
    EXPECT_EQ(a.result.key_exact, b.result.key_exact);
    EXPECT_EQ(a.result.solver_stats.decisions, b.result.solver_stats.decisions);
    EXPECT_EQ(a.result.solver_stats.propagations,
              b.result.solver_stats.propagations);
    EXPECT_EQ(a.result.solver_stats.conflicts, b.result.solver_stats.conflicts);
    EXPECT_EQ(a.result.solver_stats.restarts, b.result.solver_stats.restarts);
    EXPECT_EQ(a.result.solver_stats.learnt_clauses,
              b.result.solver_stats.learnt_clauses);
    EXPECT_EQ(a.result.solver_stats.removed_clauses,
              b.result.solver_stats.removed_clauses);
    EXPECT_EQ(a.result.solver_stats.inprocessings,
              b.result.solver_stats.inprocessings);
    EXPECT_EQ(a.result.solver_stats.gc_runs, b.result.solver_stats.gc_runs);
    EXPECT_EQ(a.result.solver_stats.vivified_lits,
              b.result.solver_stats.vivified_lits);
    EXPECT_EQ(a.result.solver_stats.xors_recovered,
              b.result.solver_stats.xors_recovered);
    EXPECT_EQ(a.result.solver_stats.eliminated_vars,
              b.result.solver_stats.eliminated_vars);
    EXPECT_EQ(a.oracle_stats.calls, b.oracle_stats.calls);
    EXPECT_EQ(a.oracle_stats.single_calls, b.oracle_stats.single_calls);
    EXPECT_EQ(a.oracle_stats.patterns, b.oracle_stats.patterns);
    EXPECT_EQ(a.oracle_stats.seconds, b.oracle_stats.seconds);
    EXPECT_EQ(a.oracle_stats.batch_log2_hist, b.oracle_stats.batch_log2_hist);
    EXPECT_EQ(a.oracle_cache.lanes_deduped, b.oracle_cache.lanes_deduped);
}

// ---- JSON parser ------------------------------------------------------------

TEST(Json, ParsesScalarsExactly) {
    const auto v = json::parse(
        R"({"u":18446744073709551615,"i":-42,"d":0.125,"b":true,"n":null,)"
        R"("s":"a\"b\\c\ndA","arr":[1,2,3],"nested":{"x":[]}})");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("u")->as_u64(), 18446744073709551615ULL);
    EXPECT_EQ(v->find("i")->as_i64(), -42);
    EXPECT_EQ(v->find("d")->as_double(), 0.125);
    EXPECT_TRUE(v->find("b")->as_bool());
    EXPECT_TRUE(v->find("n")->is_null());
    EXPECT_EQ(v->find("s")->as_string(), "a\"b\\c\ndA");
    ASSERT_TRUE(v->find("arr")->is_array());
    EXPECT_EQ(v->find("arr")->items().size(), 3u);
    EXPECT_TRUE(v->find("nested")->find("x")->is_array());
    EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Json, RejectsMalformedDocuments) {
    for (const char* bad :
         {"", "{", "[1,", "{\"a\":}", "{\"a\":1,}", "tru", "01a", "\"open",
          "{\"a\":1} trailing", "{'a':1}"})
        EXPECT_FALSE(json::parse(bad).has_value()) << bad;
}

TEST(Json, DeepNestingFailsInsteadOfOverflowingTheStack) {
    // A corrupt journal line must be skippable, never fatal — including a
    // pathological one that would otherwise recurse once per '['.
    const std::string bomb(100000, '[');
    EXPECT_FALSE(json::parse(bomb).has_value());
    const std::string keyed =
        bomb + std::string(100000, ']');  // even well-formed but absurd
    EXPECT_FALSE(json::parse(keyed).has_value());
    // Sane nesting (well inside the limit) still parses.
    EXPECT_TRUE(json::parse("[[[[[[[[[[1]]]]]]]]]]").has_value());
}

// ---- record round trips -----------------------------------------------------

TEST(CheckpointRecord, ResultRoundTripsExactly) {
    const JobSpec spec = sample_spec();
    const JobResult original = sample_result();
    const std::uint64_t key = checkpoint::job_key(0x6a0b5eed, 7, spec);
    const std::string line = checkpoint::encode_record(key, spec, original);
    EXPECT_EQ(line.find('\n'), std::string::npos)
        << "journal lines must be single-line JSONL";

    const auto record = checkpoint::decode_record(line);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->key, key);
    expect_specs_equal(record->spec, spec);
    expect_results_equal(record->result, original);
}

TEST(CheckpointRecord, SpecRoundTripsWithAndWithoutProtectSeed) {
    JobSpec spec = sample_spec();
    auto decoded = checkpoint::decode_spec(checkpoint::spec_json(spec));
    ASSERT_TRUE(decoded.has_value());
    expect_specs_equal(*decoded, spec);

    spec.defense.protect_seed.reset();
    decoded = checkpoint::decode_spec(checkpoint::spec_json(spec));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_FALSE(decoded->defense.protect_seed.has_value());
}

TEST(CheckpointRecord, UnknownFieldsAreTolerated) {
    // Forward compatibility: a future writer may add fields anywhere in the
    // record; today's decoder must ignore them without losing the rest.
    const JobSpec spec = sample_spec();
    const JobResult original = sample_result();
    const std::uint64_t key = checkpoint::job_key(1, 7, spec);
    std::string line = checkpoint::encode_record(key, spec, original);
    auto inject_after = [&](const std::string& anchor, const std::string& extra) {
        const std::size_t at = line.find(anchor);
        ASSERT_NE(at, std::string::npos) << anchor;
        line.insert(at + anchor.size(), extra);
    };
    inject_after("{\"v\":" + std::to_string(checkpoint::kJournalVersion),
                 ",\"future\":{\"nested\":[1,\"two\",null]}");
    inject_after("\"spec\":{", "\"new_spec_field\":3.5,");
    inject_after("\"result\":{", "\"gpu_seconds\":0.1,");

    const auto record = checkpoint::decode_record(line);
    ASSERT_TRUE(record.has_value());
    expect_specs_equal(record->spec, spec);
    expect_results_equal(record->result, original);
}

TEST(CheckpointRecord, MalformedAndWrongVersionRejected) {
    const std::string good = checkpoint::encode_record(
        1, sample_spec(), sample_result());
    EXPECT_TRUE(checkpoint::decode_record(good).has_value());
    // Truncation anywhere inside the line must yield nullopt, not a throw.
    for (const std::size_t keep : {0ul, 1ul, 10ul, good.size() / 2, good.size() - 1})
        EXPECT_FALSE(checkpoint::decode_record(good.substr(0, keep)).has_value())
            << keep;
    // Unsupported versions: every earlier one and a future one.
    for (std::uint64_t v = 1; v < checkpoint::kJournalVersion; ++v)
        EXPECT_FALSE(checkpoint::decode_record(with_version(good, v)).has_value())
            << v;
    EXPECT_FALSE(checkpoint::decode_record(with_version(good, 9)).has_value());
    // Bad status string.
    std::string bad_status = good;
    const std::string needle = "\"status\":\"inconsistent\"";
    bad_status.replace(bad_status.find(needle), needle.size(),
                       "\"status\":\"no-such-status\"");
    EXPECT_FALSE(checkpoint::decode_record(bad_status).has_value());
}

TEST(CheckpointRecord, JobKeyDependsOnSeedIndexAndSpec) {
    const JobSpec spec = sample_spec();
    const std::uint64_t k = checkpoint::job_key(1, 0, spec);
    EXPECT_EQ(k, checkpoint::job_key(1, 0, spec));
    EXPECT_NE(k, checkpoint::job_key(2, 0, spec));  // other campaign
    EXPECT_NE(k, checkpoint::job_key(1, 1, spec));  // other slot
    JobSpec other = spec;
    other.attack_options.max_conflicts -= 1;
    EXPECT_NE(k, checkpoint::job_key(1, 0, other));  // any spec change
    JobSpec solver_toggle = spec;
    solver_toggle.attack_options.solver.use_learning = false;
    EXPECT_NE(k, checkpoint::job_key(1, 0, solver_toggle));
}

// ---- the resume determinism contract ----------------------------------------

TEST(CheckpointResume, AnyPrefixAnyThreadCountIsByteIdentical) {
    const auto jobs = matrix12();
    ASSERT_EQ(jobs.size(), 12u);

    ScratchJournal scratch("prefix");
    const CampaignResult full =
        CampaignRunner(test_options(1, scratch.path)).run(jobs);
    ASSERT_EQ(full.errored(), 0u);
    const std::string golden_csv = campaign_csv(full);
    const std::vector<std::string> journal = scratch.lines();
    ASSERT_EQ(journal.size(), 12u);

    // Kill-after-K simulation: the journal truncated to its first K records
    // is exactly the on-disk state after K jobs finished (the write-then-
    // rename protocol guarantees whole-record granularity).
    for (std::size_t k = 0; k <= journal.size(); ++k) {
        for (const int threads : {1, 8}) {
            scratch.write_lines({journal.begin(), journal.begin() + k});
            const CampaignResult resumed =
                CampaignRunner(test_options(threads, scratch.path)).run(jobs);
            EXPECT_EQ(resumed.resumed, k) << "K=" << k;
            EXPECT_EQ(campaign_csv(resumed), golden_csv)
                << "K=" << k << " threads=" << threads;
            EXPECT_EQ(scratch.lines().size(), 12u) << "journal healed";
        }
    }
}

TEST(CheckpointResume, JournalFromParallelRunResumesOnSingleThread) {
    const auto jobs = matrix12();
    ScratchJournal scratch("parallel");
    const CampaignResult parallel =
        CampaignRunner(test_options(8, scratch.path)).run(jobs);
    const std::string golden_csv = campaign_csv(parallel);

    // Drop a middle record: completion order is scheduling-dependent, so
    // resume must match by key, not by position.
    std::vector<std::string> journal = scratch.lines();
    ASSERT_EQ(journal.size(), 12u);
    journal.erase(journal.begin() + 5);
    scratch.write_lines(journal);

    const CampaignResult resumed =
        CampaignRunner(test_options(1, scratch.path)).run(jobs);
    EXPECT_EQ(resumed.resumed, 11u);
    EXPECT_EQ(campaign_csv(resumed), golden_csv);
}

TEST(CheckpointResume, CorruptTrailingLineIsSkippedNotFatal) {
    const auto jobs = matrix12();
    ScratchJournal scratch("corrupt");
    const CampaignResult full =
        CampaignRunner(test_options(1, scratch.path)).run(jobs);
    const std::string golden_csv = campaign_csv(full);

    // Simulate an append-mode writer dying mid-line: keep 8 whole records,
    // then a partial 9th with no newline.
    const std::vector<std::string> journal = scratch.lines();
    {
        std::ofstream f(scratch.path, std::ios::binary | std::ios::trunc);
        for (std::size_t i = 0; i < 8; ++i) f << journal[i] << '\n';
        f << journal[8].substr(0, journal[8].size() / 2);
    }
    EXPECT_EQ(checkpoint::load_journal(scratch.path).size(), 8u);

    const CampaignResult resumed =
        CampaignRunner(test_options(4, scratch.path)).run(jobs);
    EXPECT_EQ(resumed.resumed, 8u);
    EXPECT_EQ(campaign_csv(resumed), golden_csv);
}

TEST(CheckpointResume, StaleRecordsAreIgnoredAndDropped) {
    const auto jobs = matrix12();
    ScratchJournal scratch("stale");
    CampaignOptions first = test_options(1, scratch.path);
    first.campaign_seed = 0x111;
    CampaignRunner(first).run(jobs);
    ASSERT_EQ(scratch.lines().size(), 12u);

    // A different campaign seed changes every job key: nothing may resume,
    // and the journal must be rebuilt for the new campaign.
    CampaignOptions second = test_options(1, scratch.path);
    second.campaign_seed = 0x222;
    const CampaignResult res = CampaignRunner(second).run(jobs);
    EXPECT_EQ(res.resumed, 0u);
    const auto records = checkpoint::load_journal(scratch.path);
    ASSERT_EQ(records.size(), 12u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        // Journal order is completion order; match each record by key.
        bool found = false;
        const std::uint64_t expect = checkpoint::job_key(0x222, i, jobs[i]);
        for (const auto& record : records) found = found || record.key == expect;
        EXPECT_TRUE(found) << i;
    }
}

TEST(CheckpointResume, PreviousVersionRecordOfTheSameSpecIsDroppedAndReruns) {
    // Fields leave the spec between journal versions (the attack-mode axes,
    // then the solver's search-heuristic knobs), so an older record can
    // carry the current job key while describing a configuration the
    // current decoder drops. A record of the previous version must
    // therefore be refused, never replayed as a current result.
    static_assert(checkpoint::kJournalVersion >= 2);
    const auto jobs = matrix12();
    const std::string spec = checkpoint::spec_json(jobs[0]);
    for (const char* gone : {"encoder", "extraction", "dip_support",
                             "var_decay", "restart_luby", "glue_keep_lbd"})
        EXPECT_EQ(spec.find(gone), std::string::npos) << gone;

    ScratchJournal scratch("previous_version");
    const CampaignResult full =
        CampaignRunner(test_options(1, scratch.path)).run(jobs);
    const std::string golden_csv = campaign_csv(full);
    std::vector<std::string> journal = scratch.lines();
    ASSERT_EQ(journal.size(), 12u);

    // One record as a previous-version writer would have left it: the same
    // key and spec, with a result the current pipeline does not produce.
    const auto record = checkpoint::decode_record(journal[3]);
    ASSERT_TRUE(record.has_value());
    const std::size_t index = record->result.index;
    EXPECT_EQ(record->key, checkpoint::job_key(test_options(1).campaign_seed,
                                               index, jobs[index]));
    JobResult old_result = record->result;
    old_result.result.iterations += 1000;
    journal[3] = with_version(
        checkpoint::encode_record(record->key, record->spec, old_result,
                                  record->stamp),
        checkpoint::kJournalVersion - 1);
    EXPECT_FALSE(checkpoint::decode_record(journal[3]).has_value());
    scratch.write_lines(journal);

    const CampaignResult resumed =
        CampaignRunner(test_options(1, scratch.path)).run(jobs);
    EXPECT_EQ(resumed.resumed, 11u);  // that one job ran again
    EXPECT_EQ(resumed.jobs[index].result.iterations,
              full.jobs[index].result.iterations);
    EXPECT_EQ(campaign_csv(resumed), golden_csv);
    // The rebuilt journal holds only current-version records.
    const std::vector<std::string> rebuilt = scratch.lines();
    EXPECT_EQ(rebuilt.size(), 12u);
    for (const std::string& line : rebuilt)
        EXPECT_TRUE(checkpoint::decode_record(line).has_value()) << line;
}

TEST(CheckpointResume, ResumeDisabledStartsFresh) {
    const auto jobs = matrix12();
    ScratchJournal scratch("fresh");
    CampaignRunner(test_options(1, scratch.path)).run(jobs);
    ASSERT_EQ(scratch.lines().size(), 12u);

    std::size_t fresh_jobs = 0;
    CampaignOptions options =
        test_options(1, scratch.path, /*resume=*/false);
    options.on_job_done = [&](const JobResult&) { ++fresh_jobs; };
    const CampaignResult res = CampaignRunner(options).run(jobs);
    EXPECT_EQ(res.resumed, 0u);
    EXPECT_EQ(fresh_jobs, 12u);
    EXPECT_EQ(scratch.lines().size(), 12u);
}

TEST(CheckpointResume, OnJobDoneFiresOnlyForFreshJobs) {
    const auto jobs = matrix12();
    ScratchJournal scratch("hook");
    CampaignRunner(test_options(1, scratch.path)).run(jobs);
    const std::vector<std::string> journal = scratch.lines();
    scratch.write_lines({journal.begin(), journal.begin() + 5});

    std::size_t fired = 0;
    CampaignOptions options = test_options(2, scratch.path);
    options.on_job_done = [&](const JobResult&) { ++fired; };
    const CampaignResult res = CampaignRunner(options).run(jobs);
    EXPECT_EQ(res.resumed, 5u);
    EXPECT_EQ(fired, 7u);
}

TEST(CheckpointResume, NoTmpFileSurvivesACompletedRun) {
    const auto jobs = CampaignRunner::cross_product(
        {"alpha"}, {DefenseConfig{}}, {"sat"}, {1}, AttackOptions{});
    ScratchJournal scratch("tmpfile");
    CampaignRunner(test_options(1, scratch.path)).run(jobs);
    EXPECT_TRUE(std::filesystem::exists(scratch.path));
    EXPECT_FALSE(std::filesystem::exists(scratch.path + ".tmp"));
}

TEST(CheckpointResume, ErroredJobsAreNotJournaledAndRetryOnResume) {
    // An error is environmental, not a pure function of the spec: a job
    // that died to a preemption-era failure must re-run on resume, never
    // have its error replayed from the journal.
    JobSpec good;
    good.circuit = "alpha";
    good.defense.fraction = 0.05;
    JobSpec bad = good;
    bad.attack = "no_such_attack";

    ScratchJournal scratch("errored");
    CampaignOptions options = test_options(1, scratch.path);
    const CampaignResult first = CampaignRunner(options).run({good, bad});
    EXPECT_EQ(first.errored(), 1u);
    EXPECT_EQ(scratch.lines().size(), 1u) << "only the clean job journaled";

    std::size_t fresh = 0;
    options.on_job_done = [&](const JobResult&) { ++fresh; };
    const CampaignResult second = CampaignRunner(options).run({good, bad});
    EXPECT_EQ(second.resumed, 1u);
    EXPECT_EQ(fresh, 1u) << "the errored job re-ran";
    // This spec's error is deterministic, so it errors again — and again
    // stays out of the journal.
    EXPECT_EQ(second.errored(), 1u);
    EXPECT_EQ(scratch.lines().size(), 1u);
}

TEST(CheckpointResume, ForeignErrorRecordsAreIgnoredOnLoad) {
    // Defense in depth: even if an error record reaches the journal (an
    // older writer, a hand-merged file), resume must skip it.
    const auto jobs = CampaignRunner::cross_product(
        {"alpha"}, {DefenseConfig{}}, {"sat"}, {1}, AttackOptions{});
    ScratchJournal scratch("foreign_error");
    JobResult errored;
    errored.index = 0;
    errored.error = "transient: out of memory";
    const std::uint64_t key =
        checkpoint::job_key(CampaignOptions{}.campaign_seed, 0, jobs[0]);
    scratch.write_lines({checkpoint::encode_record(key, jobs[0], errored)});

    CampaignOptions options = test_options(1, scratch.path);
    const CampaignResult res = CampaignRunner(options).run(jobs);
    EXPECT_EQ(res.resumed, 0u);
    EXPECT_EQ(res.errored(), 0u) << "the job re-ran cleanly";
}

TEST(CheckpointResume, UnwritableJournalPathFailsAtSetup) {
    // A 48 h campaign must not silently run without the checkpointing it
    // was asked for: an unusable journal path is a setup error, detected
    // before any job runs. (Mid-run persistence failures, by contrast, are
    // captured in CampaignResult::checkpoint_error and disable journaling
    // without sacrificing the computation.)
    const auto jobs = CampaignRunner::cross_product(
        {"alpha"}, {DefenseConfig{}}, {"sat"}, {1, 2}, AttackOptions{});
    EXPECT_THROW(
        CampaignRunner(
            test_options(1, "/nonexistent_dir_gshe/journal.jsonl"))
            .run(jobs),
        std::runtime_error);
}

}  // namespace
}  // namespace gshe::engine
