#pragma once
// The campaign engine behind the paper's security study. Tables III-IV and
// Sec. V are one large cross-product of {circuit x defense x attack x seed};
// each cell is an independent Job. The engine is an explicit three-phase
// pipeline so a campaign can be split across processes and machines:
//
//   planner    plan_jobs() turns the matrix into an ordered, indexed JobPlan:
//              per-job identity keys, derived seeds and a plan fingerprint
//              (a hash of the campaign seed and every job key). The plan is
//              the partitionable artifact — any subset of its indices can be
//              executed anywhere.
//   executor   CampaignRunner::execute() runs an arbitrary index subset of a
//              plan across a thread pool. run() selects the subset from
//              CampaignOptions::shard (round-robin: shard i of N owns the
//              indices j with j % N == i) and wires up checkpoint journaling
//              and resume around it.
//   aggregator aggregate_results() packs per-job results (from a live run OR
//              from merged shard journals — one shared code path) into a
//              CampaignResult in matrix order, from which the deterministic
//              CSV/JSON reports are rendered.
//
// Determinism contract: a job's result is a pure function of its JobSpec,
// the campaign seed and its matrix index. Per-job randomness derives from
// derive_seed(campaign_seed, index, spec.seed) — never from scheduling,
// thread identity or wall time — and results land in a vector slot keyed by
// index, so a campaign's per-job results (and the deterministic CSV built
// from them) are bit-identical at --threads=1 and --threads=N — and, via
// the checkpoint journal (engine/checkpoint.hpp), identical whether the
// campaign ran uninterrupted, was killed and resumed any number of times,
// or was split into any shard count and merged (tools/merge_campaign).
// Jobs of one defense-instance group whose specs differ only in the
// replicate seed run a seed-independent attack (Attack::reads_seed() false)
// against a deterministic oracle on the internal backend once; the siblings
// copy that result, which is the result they would have computed.
// Wall-clock fields (JobResult::job_seconds, AttackResult::seconds,
// OracleStats::seconds) are measured, not derived, and are excluded from
// deterministic reports. For reproducible "t-o" cells, budget attacks with
// AttackOptions::max_conflicts rather than a tight wall-clock timeout.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "attack/attack.hpp"
#include "attack/oracle_service.hpp"
#include "engine/defense.hpp"
#include "netlist/netlist.hpp"

namespace gshe::engine {

/// One cell of the experiment matrix.
struct JobSpec {
    /// Circuit name, resolved through CampaignOptions::netlist_provider
    /// (the Table III corpus by default).
    std::string circuit;
    DefenseConfig defense;
    /// Attack registry key ("sat", "appsat", "double_dip").
    std::string attack = "sat";
    /// Matrix-level seed (e.g. repetition number); mixed into the derived
    /// per-job seed.
    std::uint64_t seed = 1;
    attack::AttackOptions attack_options;
};

struct JobResult {
    std::size_t index = 0;
    std::string circuit;
    std::string defense;     ///< DefenseConfig::label()
    std::string attack;
    /// SAT backend the attack ran on (AttackOptions::solver_backend) —
    /// reported alongside the attack name so backend comparisons need no
    /// extra instrumentation.
    std::string solver_backend = "internal";
    std::uint64_t spec_seed = 0;
    std::uint64_t derived_seed = 0;
    std::size_t protected_cells = 0;
    int key_bits = 0;
    attack::AttackResult result;
    attack::OracleStats oracle_stats;
    /// Re-keying epochs the defense oracle cycled through (dynamic defense;
    /// 0 for epoch-free oracles).
    std::uint64_t oracle_epochs = 0;

    // ---- oracle-service / query-memo fields (PR 5) --------------------------
    // The first four are pure functions of the plan and the job's own query
    // stream — deterministic at any thread/shard count with the memo on or
    // off — and ride the deterministic CSV. oracle_cache (hit/miss/byte
    // counters) depends on which sibling job populated the shared memo
    // first, so like wall-clock it rides only the JSON report and the
    // checkpoint journal.
    /// Declared determinism contract of the oracle this job attacked
    /// (attack::oracle_contract_name); empty when the job errored before a
    /// defense instance was built.
    std::string oracle_contract;
    /// Defense-instance sharing group: the plan index of the group's first
    /// member (the job whose seed the shared instance is built from).
    std::uint64_t oracle_group = 0;
    /// Plan-level member count of that group (1 = this job's instance is
    /// private).
    std::uint64_t oracle_group_size = 1;
    /// Distinct memo keys in this job's own query sequence — the within-job
    /// redundancy the memo can reclaim (0 for non-cacheable oracles).
    std::uint64_t oracle_unique = 0;
    /// Whether the query memo was active for this job's group.
    bool oracle_cache_enabled = false;
    /// Measured memo counters for this job (scheduling-dependent).
    attack::OracleCacheStats oracle_cache;
    /// Set when this job copied a sibling's result instead of attacking:
    /// the plan index of the sibling (same defense instance, same spec but
    /// the replicate seed) that ran the seed-independent attack. Which
    /// sibling runs first depends on scheduling, so like the memo counters
    /// it rides only the JSON report and the checkpoint journal.
    std::optional<std::uint64_t> reused_from;

    /// Wall clock incl. netlist/defense build. A job that copied a
    /// sibling's result counts only its own set-up (result.seconds is then
    /// the sibling's attack time).
    double job_seconds = 0.0;
    std::string error;         ///< non-empty: the job threw; result is default
};

/// Round-robin shard selector for multi-process campaigns: of a plan's
/// N-way partition, shard i executes the indices j with j % N == i.
/// Round-robin (rather than contiguous ranges) balances shard wall time
/// when job cost correlates with matrix position (e.g. circuits sorted by
/// size).
struct ShardSpec {
    std::size_t index = 0;  ///< this process's shard, in [0, total)
    std::size_t total = 1;  ///< shard count; 1 = unsharded

    bool is_sharded() const { return total > 1; }
    bool contains(std::size_t job_index) const {
        return job_index % total == index;
    }
    /// "i/N", the CLI spelling.
    std::string label() const;
};

/// One planned cell: the spec plus everything identity-bearing the planner
/// derives from its matrix position.
struct PlannedJob {
    std::size_t index = 0;           ///< matrix position (row-major)
    JobSpec spec;
    std::uint64_t key = 0;           ///< checkpoint::job_key(seed, index, spec)
    std::uint64_t derived_seed = 0;  ///< CampaignRunner::derive_seed(...)
    /// engine::defense_fingerprint(...): identity of the defense instance
    /// this job attacks. Equal fingerprints => byte-identical instances.
    std::uint64_t defense_fingerprint = 0;
    /// Sharing group id == plan index of the group's first member.
    std::size_t group = 0;
};

/// Jobs that attack byte-identical defense instances, grouped by the
/// planner: the executor builds one DefenseInstance + OracleService per
/// group and shares it across the group's jobs (and worker threads).
/// Group identity is plan data — the same plan sharded or resumed any way
/// produces the same groups, so group columns are CSV-deterministic.
struct DefenseGroup {
    std::uint64_t fingerprint = 0;
    std::size_t id = 0;                ///< plan index of the first member
    std::vector<std::size_t> members;  ///< ascending plan indices
};

/// The ordered, indexed execution plan: the partitionable artifact shards
/// and journals agree on. Two plans with the same fingerprint schedule the
/// same jobs in the same slots under the same campaign seed.
struct JobPlan {
    std::uint64_t campaign_seed = 0;
    /// checkpoint::plan_fingerprint() over the campaign seed and every job
    /// key; stamped on journal records so merging mismatched plans fails
    /// loudly instead of silently interleaving different experiments.
    std::uint64_t fingerprint = 0;
    std::vector<PlannedJob> jobs;  ///< matrix order; jobs[i].index == i
    /// Defense-instance sharing groups in order of first appearance;
    /// jobs[i].group names the entry with id == that value.
    std::vector<DefenseGroup> groups;

    std::size_t size() const { return jobs.size(); }
    /// The plan indices the given shard owns, ascending.
    std::vector<std::size_t> shard_indices(const ShardSpec& shard) const;
    /// The sharing group a plan index belongs to.
    const DefenseGroup& group_of(std::size_t job_index) const;
};

/// Planner: derives keys, seeds and the fingerprint for a job matrix.
/// Throws std::invalid_argument on an invalid shard-free input (none today;
/// the matrix itself is unconstrained).
JobPlan plan_jobs(const std::vector<JobSpec>& specs,
                  std::uint64_t campaign_seed);

struct CampaignResult {
    std::vector<JobResult> jobs;  ///< ascending matrix order
    int threads = 1;
    double wall_seconds = 0.0;
    /// Jobs satisfied from the checkpoint journal instead of being re-run.
    std::size_t resumed = 0;
    /// Non-empty: journaling failed mid-run (e.g. disk full) and was
    /// disabled; the campaign itself still completed.
    std::string checkpoint_error;
    /// The shard this result covers (jobs holds only that shard's cells
    /// when sharded) and the full plan it was cut from.
    ShardSpec shard;
    std::size_t plan_size = 0;          ///< full plan size (== jobs.size() unsharded)
    std::uint64_t plan_fingerprint = 0; ///< 0 when not built from a plan

    std::size_t succeeded() const;  ///< jobs whose attack reported Success
    std::size_t errored() const;    ///< jobs that threw
};

/// Aggregator: packs per-job results — from a live executor run or from
/// merged shard journals; both go through here so a merged report can never
/// drift from a run report — into a CampaignResult sorted by matrix index.
/// Throws std::invalid_argument on duplicate indices.
CampaignResult aggregate_results(std::vector<JobResult> results,
                                 int threads, double wall_seconds,
                                 std::size_t resumed = 0,
                                 std::string checkpoint_error = {});

/// Query-memo policy for the shared oracle service (CLI --oracle-cache).
/// Defense-instance *sharing* (build-once per group) is unconditional — it
/// is behavior-preserving by construction; the mode only governs whether
/// the memo in front of evaluate() replays responses. All three modes emit
/// byte-identical deterministic CSVs; only cost (patterns evaluated, wall
/// time) differs.
enum class OracleCacheMode {
    Off,   ///< never replay; every query evaluates
    On,    ///< memo every cacheable-contract query, even in singleton groups
    Auto,  ///< memo only groups with >1 member (where cross-job reuse exists)
};

struct CampaignOptions {
    /// Worker threads; 0 = std::thread::hardware_concurrency().
    int threads = 1;
    /// Mixed into every job's derived seed; campaigns with different seeds
    /// are independent replications of the same matrix.
    std::uint64_t campaign_seed = 0x6a0b5eed;
    /// The slice of the plan this process executes (default: everything).
    /// Shard membership is plan data, not spec data: the same plan sharded
    /// any way produces the same per-job results.
    ShardSpec shard;
    /// Resolves JobSpec::circuit to a netlist. Defaults to the Table III
    /// corpus (netlist::build_benchmark). Must be thread-safe.
    std::function<netlist::Netlist(const std::string&)> netlist_provider;
    /// Progress hook, invoked once per finished job. Serialized by the
    /// runner (never concurrently), but from worker threads and in
    /// completion order, which is scheduling-dependent. Jobs satisfied from
    /// the checkpoint journal do not fire it (they did when first run).
    std::function<void(const JobResult&)> on_job_done;
    /// When non-empty, every finished job is appended to this JSONL journal
    /// through the atomic write-then-rename protocol (engine/checkpoint.hpp)
    /// so an interrupted campaign can restart where it stopped. Sharded
    /// campaigns use one journal per shard; records carry the shard id and
    /// plan fingerprint, and resuming a journal written by a different
    /// shard of the same plan fails loudly.
    std::string checkpoint_path;
    /// With checkpoint_path set: load an existing journal, skip the jobs it
    /// already holds, and merge their cached results — the resumed
    /// campaign's deterministic reports are byte-identical to an
    /// uninterrupted run. When false, an existing journal is overwritten
    /// and every job runs fresh.
    bool resume_from_checkpoint = true;
    /// Query-memo policy for the per-group oracle services.
    OracleCacheMode oracle_cache = OracleCacheMode::Auto;
    /// Memo byte cap per defense-instance group.
    std::size_t oracle_cache_bytes = std::size_t{256} << 20;
};

class CampaignRunner {
public:
    explicit CampaignRunner(CampaignOptions options = {});

    /// plan + execute + aggregate: plans the matrix under the configured
    /// campaign seed and runs this process's shard of it. Individual job
    /// failures are captured in JobResult::error; run() itself only throws
    /// on setup errors (invalid shard, unusable journal path, a journal
    /// stamped by a different shard of the same plan).
    CampaignResult run(const std::vector<JobSpec>& jobs) const;

    /// Same, over an already-built plan (must carry this runner's campaign
    /// seed).
    CampaignResult run(const JobPlan& plan) const;

    /// Executor: runs exactly the given plan indices across the thread
    /// pool, returning their results in the order of `indices`. `on_done`
    /// (optional) fires once per finished job, serialized, from worker
    /// threads; exceptions it throws are swallowed. No checkpointing here —
    /// run() layers that on top.
    std::vector<JobResult> execute(
        const JobPlan& plan, const std::vector<std::size_t>& indices,
        const std::function<void(const JobResult&)>& on_done = {}) const;

    /// The deterministic per-job seed (splitmix64-style mixing of the
    /// campaign seed, the job's matrix index and its spec seed).
    static std::uint64_t derive_seed(std::uint64_t campaign_seed,
                                     std::size_t job_index,
                                     std::uint64_t spec_seed);

    /// Builds the full cross-product matrix in row-major order
    /// (circuit, then defense, then attack, then seed).
    static std::vector<JobSpec> cross_product(
        const std::vector<std::string>& circuits,
        const std::vector<DefenseConfig>& defenses,
        const std::vector<std::string>& attacks,
        const std::vector<std::uint64_t>& seeds,
        const attack::AttackOptions& attack_options);

private:
    struct GroupRuntime;
    struct Execution;
    /// Worker-pool size for `jobs` runnable jobs: options_.threads
    /// (0 = all cores), never more threads than jobs, at least 1.
    /// CampaignResult::threads reports this for the jobs that actually ran
    /// (resumed jobs need no workers).
    std::size_t resolve_threads(std::size_t jobs) const;

    CampaignOptions options_;
};

}  // namespace gshe::engine
