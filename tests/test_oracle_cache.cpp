// Tests for the shared oracle service (attack/oracle_service.hpp) and its
// campaign integration: the per-oracle determinism contract (deterministic /
// epoch_keyed / non_cacheable), the word-packed query memo in front of
// evaluate(), the planner's defense-instance sharing groups, and — the
// acceptance criterion — that campaign CSVs are byte-identical with the
// memo on or off at any thread/shard count, with the cache-stat fields
// round-tripping through the checkpoint journal. Sibling-seed result reuse
// is tested through the executor and, for its reuse cell
// (engine/reuse_cell.hpp), on its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "attack/oracle.hpp"
#include "attack/oracle_service.hpp"
#include "camo/cell_library.hpp"
#include "camo/dynamic.hpp"
#include "camo/protect.hpp"
#include "engine/campaign.hpp"
#include "engine/checkpoint.hpp"
#include "engine/merge.hpp"
#include "engine/report.hpp"
#include "engine/reuse_cell.hpp"
#include "netlist/generator.hpp"

namespace gshe {
namespace {

using attack::ExactOracle;
using attack::OracleContract;
using attack::OracleService;
using attack::StochasticOracle;
using engine::CampaignOptions;
using engine::CampaignRunner;
using engine::DefenseConfig;
using engine::JobPlan;
using engine::JobSpec;
using netlist::Netlist;

Netlist tiny_circuit(const std::string& name) {
    netlist::RandomSpec spec;
    spec.n_inputs = 12;
    spec.n_outputs = 8;
    spec.n_gates = 60;
    spec.seed = name == "alpha" ? 11 : 22;
    return netlist::random_circuit(spec, name);
}

camo::Protection protect(const Netlist& nl, double fraction = 0.12,
                         std::uint64_t seed = 9) {
    return camo::apply_camouflage(nl, camo::select_gates(nl, fraction, seed),
                                  camo::gshe16(), seed);
}

std::vector<std::uint64_t> pattern(std::size_t words, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint64_t> out(words);
    for (auto& w : out) w = rng();
    return out;
}

// ---- the service and the deterministic contract -----------------------------

TEST(OracleService, SharedMemoServesSiblingClients) {
    const Netlist nl = tiny_circuit("alpha");
    ExactOracle oracle(nl);
    OracleService service(oracle);
    const auto a = service.make_client();
    const auto b = service.make_client();

    const auto p = pattern(nl.inputs().size(), 3);
    const auto direct = netlist::Simulator(nl).run(p);
    EXPECT_EQ(a->query(p), direct);  // miss: first sight anywhere
    EXPECT_EQ(b->query(p), direct);  // hit: sibling paid for it
    EXPECT_EQ(a->cache_stats().misses, 1u);
    EXPECT_EQ(a->cache_stats().hits, 0u);
    EXPECT_EQ(b->cache_stats().hits, 1u);
    EXPECT_EQ(b->cache_stats().misses, 0u);
    // Per-client logical metering is unaffected by who evaluated.
    EXPECT_EQ(a->patterns_queried(), 64u);
    EXPECT_EQ(b->patterns_queried(), 64u);
    // The chip itself evaluated once.
    EXPECT_EQ(oracle.stats().calls, 1u);
    const auto stats = service.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(OracleService, UniquePatternsIsOwnStreamDataIndependentOfTheFlag) {
    const Netlist nl = tiny_circuit("alpha");
    const auto p = pattern(nl.inputs().size(), 3);
    const auto q = pattern(nl.inputs().size(), 4);

    auto run_stream = [&](bool enable_cache) {
        ExactOracle oracle(nl);
        OracleService::Options opts;
        opts.enable_cache = enable_cache;
        OracleService service(oracle, opts);
        const auto client = service.make_client();
        (void)client->query(p);
        (void)client->query(q);
        (void)client->query(p);  // repeat
        return client->cache_stats();
    };

    const auto off = run_stream(false);
    const auto on = run_stream(true);
    // unique_patterns is a pure function of the client's own query stream —
    // the CSV column may not depend on the memo flag.
    EXPECT_EQ(off.unique_patterns, 2u);
    EXPECT_EQ(on.unique_patterns, 2u);
    // Only cost accounting moves.
    EXPECT_EQ(off.hits, 0u);
    EXPECT_EQ(off.bypassed, 3u);
    EXPECT_EQ(on.hits, 1u);
    EXPECT_EQ(on.misses, 2u);
}

TEST(OracleService, ByteCapStopsInsertionsNotCorrectness) {
    const Netlist nl = tiny_circuit("alpha");
    ExactOracle oracle(nl);
    OracleService::Options opts;
    opts.max_bytes = 1;  // nothing fits
    OracleService service(oracle, opts);
    const auto client = service.make_client();

    const auto p = pattern(nl.inputs().size(), 3);
    const auto first = client->query(p);
    const auto second = client->query(p);
    EXPECT_EQ(first, second);
    EXPECT_EQ(client->cache_stats().misses, 2u);  // never inserted => no hit
    const auto stats = service.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.bytes, 0u);
    EXPECT_EQ(stats.capacity_stops, 2u);
}

// ---- non-cacheable: the stochastic oracle ----------------------------------

TEST(OracleService, StochasticOracleProvablyBypassesTheMemo) {
    const Netlist nl = tiny_circuit("alpha");
    const camo::Protection prot = protect(nl);
    constexpr double kAccuracy = 0.7;
    constexpr std::uint64_t kSeed = 77;

    StochasticOracle direct(prot.netlist, kAccuracy, kSeed);
    StochasticOracle shared(prot.netlist, kAccuracy, kSeed);
    OracleService service(shared);
    const auto client = service.make_client();
    ASSERT_EQ(client->contract(), OracleContract::NonCacheable);

    // Re-querying one pattern must re-roll the device errors every time —
    // byte-for-byte the same draw sequence as an unwrapped oracle, proving
    // no response was replayed.
    const auto p = pattern(nl.inputs().size(), 5);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(client->query(p), direct.query(p));

    EXPECT_EQ(client->cache_stats().bypassed, 4u);
    EXPECT_EQ(client->cache_stats().hits, 0u);
    EXPECT_EQ(client->cache_stats().misses, 0u);
    EXPECT_EQ(client->cache_stats().unique_patterns, 0u);  // never keyed
    const auto stats = service.stats();
    EXPECT_EQ(stats.entries, 0u);   // the memo never held an entry
    EXPECT_EQ(stats.bypassed, 4u);
}

// ---- epoch-keyed: the rekeying oracle ---------------------------------------

TEST(OracleService, RekeyingOracleNeverServesAStaleEpochEntry) {
    const Netlist nl = tiny_circuit("beta");
    const camo::Protection prot = protect(nl, 0.25);
    constexpr std::uint64_t kSeed = 31;
    // interval=1: every query after the first opens a new epoch, so a memo
    // that ignored epochs would replay pattern p's epoch-1 answer forever.
    camo::RekeyingOracle direct(prot.netlist, 1, 1.0, 0.5, kSeed);
    camo::RekeyingOracle shared(prot.netlist, 1, 1.0, 0.5, kSeed);
    OracleService service(shared);
    const auto client = service.make_client();
    ASSERT_EQ(client->contract(), OracleContract::EpochKeyed);

    const auto p = pattern(nl.inputs().size(), 6);
    for (int i = 0; i < 8; ++i) {
        // Identical sequence to the unwrapped oracle: epochs advance on the
        // same schedule and stale entries are never replayed.
        EXPECT_EQ(client->query(p), direct.query(p)) << "query " << i;
    }
    EXPECT_EQ(client->cache_stats().hits, 0u);  // every epoch is fresh
    EXPECT_EQ(client->epochs_elapsed(), direct.epochs_elapsed());
}

TEST(OracleService, RekeyingOracleHitsWithinAnEpochAndKeepsTheClock) {
    const Netlist nl = tiny_circuit("beta");
    const camo::Protection prot = protect(nl, 0.25);
    constexpr std::uint64_t kSeed = 31;
    constexpr std::uint64_t kInterval = 4;
    camo::RekeyingOracle direct(prot.netlist, kInterval, 1.0, 0.5, kSeed);
    camo::RekeyingOracle shared(prot.netlist, kInterval, 1.0, 0.5, kSeed);
    OracleService service(shared);
    const auto client = service.make_client();

    // 3 epochs of 4 queries, alternating two patterns: within an epoch the
    // second sight of a pattern is a memo hit, yet the response sequence —
    // and the epoch schedule, which counts *queries*, hits included — is
    // identical to the unwrapped oracle's.
    const auto p = pattern(nl.inputs().size(), 6);
    const auto q = pattern(nl.inputs().size(), 7);
    for (int i = 0; i < 12; ++i) {
        const auto& x = (i % 2 == 0) ? p : q;
        EXPECT_EQ(client->query(x), direct.query(x)) << "query " << i;
    }
    EXPECT_GT(client->cache_stats().hits, 0u);
    EXPECT_EQ(client->epochs_elapsed(), direct.epochs_elapsed());
    EXPECT_EQ(client->epochs_elapsed(), 2u);  // 12 queries / interval 4
}

// ---- the planner's sharing groups -------------------------------------------

std::vector<JobSpec> grouped_matrix(bool pin_protect_seed) {
    DefenseConfig camo;
    camo.fraction = 0.10;
    if (pin_protect_seed) camo.protect_seed = 42;
    DefenseConfig stochastic;
    stochastic.kind = "stochastic";
    stochastic.fraction = 0.10;
    if (pin_protect_seed) stochastic.protect_seed = 42;

    attack::AttackOptions opt;
    opt.timeout_seconds = 600.0;  // generous: the deterministic budget binds
    opt.max_conflicts = 10000;
    return CampaignRunner::cross_product({"alpha", "beta"},
                                         {camo, stochastic},
                                         {"sat", "double_dip"}, {1, 2}, opt);
}

TEST(Planner, GroupsJobsAttackingIdenticalDefenseInstances) {
    const JobPlan plan = engine::plan_jobs(grouped_matrix(true), 0x5eed);
    ASSERT_EQ(plan.size(), 16u);
    // Per circuit: the 4 camo jobs ({sat,double_dip} x {1,2}) share one
    // pinned instance; the 4 stochastic jobs stay singletons (their oracle
    // consumes a per-job RNG stream, so sharing would leak scheduling).
    std::size_t shared = 0, singleton = 0;
    for (const auto& g : plan.groups) {
        if (g.members.size() > 1) {
            ++shared;
            EXPECT_EQ(g.members.size(), 4u);
            EXPECT_EQ(g.id, g.members.front());
            for (const std::size_t m : g.members) {
                EXPECT_EQ(plan.jobs[m].spec.defense.kind, "camo");
                EXPECT_EQ(plan.jobs[m].group, g.id);
                EXPECT_EQ(plan.group_of(m).id, g.id);
            }
        } else {
            ++singleton;
            EXPECT_EQ(plan.jobs[g.members.front()].spec.defense.kind,
                      "stochastic");
        }
    }
    EXPECT_EQ(shared, 2u);      // one camo group per circuit
    EXPECT_EQ(singleton, 8u);   // every stochastic job private
}

TEST(Planner, NoSharingWithoutAPinnedProtectSeed) {
    // Per-job derived seeds make every netlist build unique: all groups
    // must be singletons (today's per-job behavior, preserved).
    const JobPlan plan = engine::plan_jobs(grouped_matrix(false), 0x5eed);
    EXPECT_EQ(plan.groups.size(), plan.size());
    for (const auto& g : plan.groups) EXPECT_EQ(g.members.size(), 1u);
}

// ---- campaign-level byte-identity -------------------------------------------

CampaignOptions campaign_options(int threads, engine::OracleCacheMode mode) {
    CampaignOptions options;
    options.threads = threads;
    options.netlist_provider = tiny_circuit;
    options.oracle_cache = mode;
    return options;
}

TEST(CampaignCache, CsvByteIdenticalAcrossCacheModesAndThreadCounts) {
    const std::vector<JobSpec> jobs = grouped_matrix(true);
    std::vector<std::string> csvs;
    for (const auto mode :
         {engine::OracleCacheMode::Off, engine::OracleCacheMode::On,
          engine::OracleCacheMode::Auto})
        for (const int threads : {1, 8})
            csvs.push_back(engine::campaign_csv(
                CampaignRunner(campaign_options(threads, mode)).run(jobs)));
    for (std::size_t i = 1; i < csvs.size(); ++i)
        EXPECT_EQ(csvs[0], csvs[i]) << "variant " << i;
    // The group columns report the sharing: the first camo job sits in a
    // 4-member group with a deterministic contract.
    EXPECT_NE(csvs[0].find("deterministic,0,4,"), std::string::npos);
    EXPECT_NE(csvs[0].find("non_cacheable,"), std::string::npos);
}

TEST(CampaignCache, CacheOnActuallySharesEvaluations) {
    const std::vector<JobSpec> jobs = grouped_matrix(true);
    const auto on = CampaignRunner(campaign_options(
                                       1, engine::OracleCacheMode::On))
                        .run(jobs);
    std::uint64_t hits = 0, logical = 0, evaluated = 0;
    for (const auto& j : on.jobs) {
        hits += j.oracle_cache.hits;
        logical += j.oracle_cache.logical();
        evaluated += j.oracle_cache.evaluated();
    }
    EXPECT_GT(hits, 0u);
    EXPECT_LT(evaluated, logical);
    for (const auto& j : on.jobs)
        if (j.oracle_group_size > 1) {
            EXPECT_TRUE(j.oracle_cache_enabled);
        }
}

TEST(CampaignCache, ShardedCacheOnMergesToTheUnshardedCacheOffCsv) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "gshe_oracle_cache";
    fs::remove_all(dir);
    fs::create_directories(dir);

    const std::vector<JobSpec> jobs = grouped_matrix(true);
    const std::string baseline = engine::campaign_csv(
        CampaignRunner(campaign_options(1, engine::OracleCacheMode::Off))
            .run(jobs));

    std::vector<std::string> journals;
    for (std::size_t s = 0; s < 2; ++s) {
        CampaignOptions options =
            campaign_options(4, engine::OracleCacheMode::On);
        options.shard = engine::ShardSpec{s, 2};
        options.checkpoint_path =
            (dir / ("shard" + std::to_string(s) + ".jsonl")).string();
        const auto result = CampaignRunner(options).run(jobs);
        EXPECT_EQ(result.errored(), 0u);
        journals.push_back(options.checkpoint_path);
    }
    const engine::MergeReport merged = engine::merge_journals(journals);
    ASSERT_TRUE(merged.ok()) << merged.errors.front();
    // Merge renders from journal records: byte-equality also proves the
    // deterministic oracle columns round-trip through the journal.
    EXPECT_EQ(engine::campaign_csv(merged.result), baseline);
    fs::remove_all(dir);
}

TEST(CampaignCache, ResumeReplaysCacheColumnsByteIdentically) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "gshe_oracle_resume";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string journal = (dir / "c.jsonl").string();

    const std::vector<JobSpec> jobs = grouped_matrix(true);
    CampaignOptions first = campaign_options(4, engine::OracleCacheMode::On);
    first.checkpoint_path = journal;
    first.resume_from_checkpoint = false;
    const std::string live =
        engine::campaign_csv(CampaignRunner(first).run(jobs));

    // Resume with every job already journaled: nothing re-runs, the CSV —
    // including every oracle/cache column — must re-render byte-for-byte.
    CampaignOptions second = campaign_options(4, engine::OracleCacheMode::On);
    second.checkpoint_path = journal;
    const auto resumed = CampaignRunner(second).run(jobs);
    EXPECT_EQ(resumed.resumed, jobs.size());
    EXPECT_EQ(engine::campaign_csv(resumed), live);
    fs::remove_all(dir);
}

// ---- the reuse cell on its own ------------------------------------------------

// The executor's per-reuse-key state machine, driven without an attack:
// Result is the donor's answer, a follower is the id of a parked job.
using Cell = engine::ReuseCell<int, int>;

TEST(ReuseCell, FollowersArrivingWhileTheDonorRunsAreDeferred) {
    Cell cell;
    EXPECT_EQ(cell.arrive(0), Cell::Arrival::Donor);
    EXPECT_EQ(cell.arrive(1), Cell::Arrival::Deferred);
    EXPECT_EQ(cell.arrive(2), Cell::Arrival::Deferred);
    // complete() hands each parked follower back exactly once, in arrival
    // order; arrivals after it copy the result instead of parking.
    EXPECT_EQ(cell.complete(42), (std::vector<int>{1, 2}));
    EXPECT_EQ(cell.arrive(3), Cell::Arrival::Done);
    EXPECT_EQ(cell.result(), 42);
    EXPECT_THROW(cell.complete(7), std::logic_error);
    EXPECT_THROW(cell.abandon(), std::logic_error);
    EXPECT_EQ(cell.result(), 42);
}

TEST(ReuseCell, AbandonReopensTheCellAndTheNextFollowerDonates) {
    Cell cell;
    EXPECT_THROW(cell.complete(7), std::logic_error);  // no donor yet
    ASSERT_EQ(cell.arrive(0), Cell::Arrival::Donor);
    EXPECT_EQ(cell.arrive(1), Cell::Arrival::Deferred);
    EXPECT_EQ(cell.arrive(2), Cell::Arrival::Deferred);
    // The donor threw: its followers come back and the cell is open again,
    // so re-arriving them makes the first the new donor and parks the rest.
    const std::vector<int> back = cell.abandon();
    ASSERT_EQ(back, (std::vector<int>{1, 2}));
    EXPECT_EQ(cell.arrive(1), Cell::Arrival::Donor);
    EXPECT_EQ(cell.arrive(2), Cell::Arrival::Deferred);
    EXPECT_EQ(cell.complete(5), (std::vector<int>{2}));
    EXPECT_EQ(cell.arrive(3), Cell::Arrival::Done);
    EXPECT_EQ(cell.result(), 5);  // the failed run left nothing behind

    // A donor that fails alone reopens the cell for the next arrival.
    Cell lone;
    ASSERT_EQ(lone.arrive(0), Cell::Arrival::Donor);
    EXPECT_TRUE(lone.abandon().empty());
    EXPECT_EQ(lone.arrive(1), Cell::Arrival::Donor);
}

// Concurrent arrivals driven like the campaign executor: a donor's worker
// finishes every follower handed back to it, the first donor throws once a
// quarter of the ids have arrived, and its worker re-arrives the followers
// it gets back. Every id must be finished exactly once, only the failed
// donor without the result.
TEST(ReuseCell, EveryConcurrentArrivalIsFinishedExactlyOnce) {
    constexpr int kIds = 400;
    constexpr int kThreads = 4;
    Cell cell;
    std::vector<std::atomic<int>> finished(kIds);
    std::vector<std::atomic<int>> answer(kIds);
    std::atomic<bool> failed{false};
    std::atomic<int> arrived{0};
    std::atomic<int> deferred{0};
    const auto finish = [&](int id, int value) {
        answer[id].store(value);
        finished[id].fetch_add(1);
    };
    const auto donate = [&](int donor) {
        while (true) {
            if (failed.exchange(true)) {
                const int result = 1000 + donor;
                std::vector<int> parked = cell.complete(result);
                finish(donor, result);
                for (const int id : parked) finish(id, result);
                return;
            }
            // Arrivals never block, so the other threads get here while
            // this thread, holding a quarter of the ids, waits.
            while (arrived.load() < kIds / 4) std::this_thread::yield();
            std::vector<int> parked = cell.abandon();
            finish(donor, -1);
            std::optional<int> next;
            for (int id : parked) {
                switch (cell.arrive(std::move(id))) {
                    case Cell::Arrival::Deferred: break;
                    case Cell::Arrival::Done: finish(id, cell.result()); break;
                    case Cell::Arrival::Donor: next = id; break;
                }
            }
            if (!next) return;
            donor = *next;
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            for (int id = t; id < kIds; id += kThreads) {
                switch (cell.arrive(int{id})) {
                    case Cell::Arrival::Deferred: deferred.fetch_add(1); break;
                    case Cell::Arrival::Done: finish(id, cell.result()); break;
                    case Cell::Arrival::Donor: donate(id); break;
                }
                arrived.fetch_add(1);
            }
        });
    for (auto& t : pool) t.join();
    EXPECT_GE(deferred.load(), kIds / 4);

    int errors = 0;
    std::set<int> results;
    for (int id = 0; id < kIds; ++id) {
        EXPECT_EQ(finished[id].load(), 1) << "id " << id;
        if (answer[id].load() < 0)
            ++errors;
        else
            results.insert(answer[id].load());
    }
    EXPECT_EQ(errors, 1);
    // One successful donor, copied by all; never the failed run.
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GE(*results.begin(), 1000);
}

// ---- sibling-seed result reuse ----------------------------------------------

// Table IV style: every defense pinned to one instance per circuit, every
// attack, three replicate seeds. sat and double_dip on the deterministic
// camo and sarlock instances are reusable; AppSAT reads the seed and the
// stochastic oracle is seeded per job, so neither ever reuses.
std::vector<JobSpec> reuse_matrix() {
    std::vector<DefenseConfig> defenses;
    for (const char* kind : {"camo", "sarlock", "stochastic"}) {
        DefenseConfig d;
        d.kind = kind;
        d.fraction = 0.10;
        d.protect_seed = 42;
        defenses.push_back(d);
    }
    attack::AttackOptions opt;
    opt.timeout_seconds = 600.0;  // generous: the deterministic budget binds
    opt.max_conflicts = 10000;
    return CampaignRunner::cross_product({"alpha", "beta"}, defenses,
                                         {"sat", "double_dip", "appsat"},
                                         {1, 2, 3}, opt);
}

// Plan indices per (defense group, attack): the reuse key, since specs of
// one group and attack differ only in the replicate seed.
std::map<std::pair<std::size_t, std::string>, std::vector<std::size_t>>
reuse_keys(const JobPlan& plan) {
    std::map<std::pair<std::size_t, std::string>, std::vector<std::size_t>>
        by_key;
    for (const auto& job : plan.jobs)
        by_key[{job.group, job.spec.attack}].push_back(job.index);
    return by_key;
}

// Whether the executor may reuse within a key, judged from one member.
bool reusable_key(const engine::JobResult& member) {
    return member.attack != "appsat" &&
           member.oracle_contract == "deterministic" &&
           member.oracle_group_size > 1;
}

std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty()) lines.push_back(line);
    return lines;
}

TEST(CampaignCache, ReusedSiblingResultsAreByteIdenticalEverywhere) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "gshe_oracle_reuse";
    fs::remove_all(dir);
    fs::create_directories(dir);

    const std::vector<JobSpec> jobs = reuse_matrix();
    const auto mode = engine::OracleCacheMode::Auto;
    const engine::CampaignResult serial =
        CampaignRunner(campaign_options(1, mode)).run(jobs);
    ASSERT_EQ(serial.errored(), 0u);
    const std::string baseline = engine::campaign_csv(serial);

    // Threads: donors race, results do not. A job parked while its donor
    // runs is finished by the donor's worker, and still fires on_job_done
    // and reaches the journal exactly once.
    const JobPlan plan =
        engine::plan_jobs(jobs, campaign_options(1, mode).campaign_seed);
    for (const int threads : {2, 8}) {
        CampaignOptions options = campaign_options(threads, mode);
        std::vector<int> done(jobs.size(), 0);
        options.on_job_done = [&done](const engine::JobResult& r) {
            ++done.at(r.index);
        };
        options.checkpoint_path =
            (dir / ("threads" + std::to_string(threads) + ".jsonl")).string();
        const engine::CampaignResult result = CampaignRunner(options).run(plan);
        EXPECT_EQ(engine::campaign_csv(result), baseline) << threads;
        for (std::size_t i = 0; i < jobs.size(); ++i)
            EXPECT_EQ(done[i], 1) << "job " << i << " at " << threads;
        EXPECT_EQ(read_lines(options.checkpoint_path).size(), jobs.size());
        std::map<std::uint64_t, int> records;
        for (const auto& record :
             engine::checkpoint::load_journal(options.checkpoint_path))
            ++records[record.key];
        for (const auto& job : plan.jobs)
            EXPECT_EQ(records[job.key], 1) << "job " << job.index;
        if (threads != 2) continue;
        // Whichever member donates, every other member of a reusable key
        // copies that one donor.
        for (const auto& [key, members] : reuse_keys(plan)) {
            std::set<std::uint64_t> donors;
            std::size_t reused = 0;
            for (const std::size_t m : members)
                if (result.jobs[m].reused_from) {
                    ++reused;
                    donors.insert(*result.jobs[m].reused_from);
                }
            if (!reusable_key(result.jobs[members.front()])) {
                EXPECT_EQ(reused, 0u) << key.second;
                continue;
            }
            EXPECT_EQ(reused, members.size() - 1) << key.second;
            ASSERT_EQ(donors.size(), 1u) << key.second;
            const std::size_t donor = *donors.begin();
            EXPECT_NE(std::find(members.begin(), members.end(), donor),
                      members.end());
            EXPECT_FALSE(result.jobs[donor].reused_from.has_value());
        }
    }

    // 2-way shard + merge: each shard picks its own donors.
    std::vector<std::string> journals;
    for (std::size_t s = 0; s < 2; ++s) {
        CampaignOptions options = campaign_options(4, mode);
        options.shard = engine::ShardSpec{s, 2};
        options.checkpoint_path =
            (dir / ("shard" + std::to_string(s) + ".jsonl")).string();
        EXPECT_EQ(CampaignRunner(options).run(jobs).errored(), 0u);
        journals.push_back(options.checkpoint_path);
    }
    const engine::MergeReport merged = engine::merge_journals(journals);
    ASSERT_TRUE(merged.ok()) << merged.errors.front();
    EXPECT_EQ(engine::campaign_csv(merged.result), baseline);

    // Resume from a journal prefix: some donors are already journaled, so
    // their unfinished siblings must run (or reuse) among themselves.
    const std::string journal = (dir / "full.jsonl").string();
    CampaignOptions full = campaign_options(1, mode);
    full.checkpoint_path = journal;
    full.resume_from_checkpoint = false;
    EXPECT_EQ(engine::campaign_csv(CampaignRunner(full).run(jobs)), baseline);
    const std::vector<std::string> lines = read_lines(journal);
    ASSERT_EQ(lines.size(), jobs.size());
    {
        std::ofstream out(journal, std::ios::trunc);
        for (std::size_t i = 0; i < lines.size() / 2; ++i)
            out << lines[i] << '\n';
    }
    CampaignOptions resume = campaign_options(8, mode);
    resume.checkpoint_path = journal;
    const engine::CampaignResult resumed = CampaignRunner(resume).run(jobs);
    EXPECT_EQ(resumed.resumed, lines.size() / 2);
    EXPECT_EQ(engine::campaign_csv(resumed), baseline);
    fs::remove_all(dir);
}

TEST(CampaignCache, ReuseRunsEachSeedIndependentAttackOncePerInstance) {
    const std::vector<JobSpec> jobs = reuse_matrix();
    const CampaignOptions options =
        campaign_options(1, engine::OracleCacheMode::Auto);
    const JobPlan plan = engine::plan_jobs(jobs, options.campaign_seed);
    const engine::CampaignResult result = CampaignRunner(options).run(plan);
    ASSERT_EQ(result.errored(), 0u);

    std::size_t reusable_keys = 0;
    for (const auto& [key, members] : reuse_keys(plan)) {
        const engine::JobResult& first = result.jobs[members.front()];
        const bool reusable = reusable_key(first);
        std::size_t reused = 0;
        for (const std::size_t m : members) {
            const engine::JobResult& j = result.jobs[m];
            if (!j.reused_from) continue;
            ++reused;
            // At one thread the first member in plan order is the donor,
            // and the copy is the donor's result.
            EXPECT_EQ(*j.reused_from, members.front());
            EXPECT_EQ(j.result.key.bits, first.result.key.bits);
            EXPECT_EQ(j.result.solver_stats.propagations,
                      first.result.solver_stats.propagations);
            EXPECT_EQ(j.oracle_stats.calls, first.oracle_stats.calls);
        }
        if (reusable) {
            ++reusable_keys;
            EXPECT_EQ(reused, members.size() - 1) << key.second;
        } else {
            EXPECT_EQ(reused, 0u) << key.second;
        }
    }
    EXPECT_EQ(reusable_keys, 8u);  // {alpha, beta} x {camo, sarlock} x 2
    for (const auto& j : result.jobs)
        if (j.attack == "appsat" || j.defense.find("stochastic") == 0) {
            EXPECT_FALSE(j.reused_from.has_value()) << j.index;
        }

    // A copied result is the result the job computes on its own: rerun
    // each reused job as a one-job campaign (a singleton group, so it
    // attacks the same pinned instance privately).
    for (const auto& j : result.jobs) {
        if (!j.reused_from) continue;
        const engine::CampaignResult alone =
            CampaignRunner(options).run({jobs[j.index]});
        ASSERT_EQ(alone.jobs.size(), 1u);
        const engine::JobResult& a = alone.jobs.front();
        EXPECT_FALSE(a.reused_from.has_value());
        EXPECT_EQ(a.result.status, j.result.status) << j.index;
        EXPECT_EQ(a.result.key.bits, j.result.key.bits) << j.index;
        EXPECT_EQ(a.result.iterations, j.result.iterations) << j.index;
        EXPECT_EQ(a.result.solver_stats.conflicts,
                  j.result.solver_stats.conflicts) << j.index;
        EXPECT_EQ(a.oracle_stats.patterns, j.oracle_stats.patterns) << j.index;
        EXPECT_EQ(a.oracle_unique, j.oracle_unique) << j.index;
    }

    // The donor index is scheduling data: JSON report only, never the CSV.
    EXPECT_EQ(engine::campaign_csv(result).find("reused"), std::string::npos);
    EXPECT_NE(engine::campaign_json(result).find("\"reused_from\""),
              std::string::npos);
}

// ---- journal round-trip of the measured cache stats -------------------------

TEST(CheckpointCache, CacheStatFieldsRoundTripThroughARecord) {
    JobSpec spec;
    spec.circuit = "alpha";
    engine::JobResult r;
    r.index = 3;
    r.circuit = "alpha";
    r.result.status = attack::AttackResult::Status::Success;
    r.oracle_contract = "deterministic";
    r.oracle_group = 1;
    r.oracle_group_size = 4;
    r.oracle_unique = 17;
    r.oracle_cache_enabled = true;
    r.oracle_cache.hits = 5;
    r.oracle_cache.misses = 12;
    r.oracle_cache.bypassed = 2;
    r.oracle_cache.unique_patterns = 17;
    r.oracle_cache.inserted_bytes = 4096;
    r.reused_from = 1;

    const std::string line =
        engine::checkpoint::encode_record(99, spec, r, {});
    const auto decoded = engine::checkpoint::decode_record(line);
    ASSERT_TRUE(decoded.has_value());
    const engine::JobResult& d = decoded->result;
    EXPECT_EQ(d.oracle_contract, "deterministic");
    EXPECT_EQ(d.oracle_group, 1u);
    EXPECT_EQ(d.oracle_group_size, 4u);
    EXPECT_EQ(d.oracle_unique, 17u);
    EXPECT_TRUE(d.oracle_cache_enabled);
    EXPECT_EQ(d.oracle_cache.hits, 5u);
    EXPECT_EQ(d.oracle_cache.misses, 12u);
    EXPECT_EQ(d.oracle_cache.bypassed, 2u);
    EXPECT_EQ(d.oracle_cache.unique_patterns, 17u);
    EXPECT_EQ(d.oracle_cache.inserted_bytes, 4096u);
    ASSERT_TRUE(d.reused_from.has_value());
    EXPECT_EQ(*d.reused_from, 1u);
    // Absent in a record of a job that ran its own attack.
    r.reused_from.reset();
    const auto own = engine::checkpoint::decode_record(
        engine::checkpoint::encode_record(99, spec, r, {}));
    ASSERT_TRUE(own.has_value());
    EXPECT_FALSE(own->result.reused_from.has_value());
}

}  // namespace
}  // namespace gshe
