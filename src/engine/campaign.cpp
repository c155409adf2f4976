#include "engine/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/timer.hpp"
#include "engine/checkpoint.hpp"
#include "engine/reuse_cell.hpp"
#include "netlist/corpus.hpp"

namespace gshe::engine {

// ---- shards -----------------------------------------------------------------

std::string ShardSpec::label() const {
    return std::to_string(index) + "/" + std::to_string(total);
}

namespace {

void validate_shard(const ShardSpec& shard) {
    if (shard.total == 0)
        throw std::invalid_argument("shard total must be at least 1");
    if (shard.index >= shard.total)
        throw std::invalid_argument("shard index " + std::to_string(shard.index) +
                                    " out of range for " +
                                    std::to_string(shard.total) + " shard(s)");
}

}  // namespace

// ---- planner ----------------------------------------------------------------

std::vector<std::size_t> JobPlan::shard_indices(const ShardSpec& shard) const {
    validate_shard(shard);
    std::vector<std::size_t> indices;
    indices.reserve(jobs.size() / shard.total + 1);
    for (std::size_t i = shard.index; i < jobs.size(); i += shard.total)
        indices.push_back(i);
    return indices;
}

const DefenseGroup& JobPlan::group_of(std::size_t job_index) const {
    if (job_index >= jobs.size())
        throw std::invalid_argument("group_of: plan index " +
                                    std::to_string(job_index) +
                                    " out of range");
    const std::size_t id = jobs[job_index].group;
    for (const DefenseGroup& g : groups)
        if (g.id == id) return g;
    throw std::logic_error("group_of: plan has no group with id " +
                           std::to_string(id));
}

JobPlan plan_jobs(const std::vector<JobSpec>& specs,
                  std::uint64_t campaign_seed) {
    JobPlan plan;
    plan.campaign_seed = campaign_seed;
    plan.jobs.reserve(specs.size());
    std::vector<std::uint64_t> keys;
    keys.reserve(specs.size());
    // Defense-instance grouping: jobs whose fingerprint matches attack a
    // byte-identical instance, so the executor builds it once and shares
    // it. Group id = plan index of the first member, making group columns
    // pure plan data (identical across shards, threads and resumes).
    std::unordered_map<std::uint64_t, std::size_t> group_by_fingerprint;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        PlannedJob job;
        job.index = i;
        job.spec = specs[i];
        job.key = checkpoint::job_key(campaign_seed, i, specs[i]);
        job.derived_seed =
            CampaignRunner::derive_seed(campaign_seed, i, specs[i].seed);
        job.defense_fingerprint = defense_fingerprint(
            specs[i].circuit, specs[i].defense, job.derived_seed, i);
        const auto [it, fresh] = group_by_fingerprint.emplace(
            job.defense_fingerprint, plan.groups.size());
        if (fresh) {
            DefenseGroup g;
            g.fingerprint = job.defense_fingerprint;
            g.id = i;
            plan.groups.push_back(std::move(g));
        }
        plan.groups[it->second].members.push_back(i);
        job.group = plan.groups[it->second].id;
        keys.push_back(job.key);
        plan.jobs.push_back(std::move(job));
    }
    plan.fingerprint = checkpoint::plan_fingerprint(campaign_seed, keys);
    return plan;
}

// ---- aggregator -------------------------------------------------------------

std::size_t CampaignResult::succeeded() const {
    std::size_t n = 0;
    for (const auto& j : jobs)
        if (j.error.empty() &&
            j.result.status == attack::AttackResult::Status::Success)
            ++n;
    return n;
}

std::size_t CampaignResult::errored() const {
    std::size_t n = 0;
    for (const auto& j : jobs)
        if (!j.error.empty()) ++n;
    return n;
}

CampaignResult aggregate_results(std::vector<JobResult> results, int threads,
                                 double wall_seconds, std::size_t resumed,
                                 std::string checkpoint_error) {
    std::sort(results.begin(), results.end(),
              [](const JobResult& a, const JobResult& b) {
                  return a.index < b.index;
              });
    for (std::size_t i = 1; i < results.size(); ++i)
        if (results[i].index == results[i - 1].index)
            throw std::invalid_argument(
                "aggregate: duplicate result for job index " +
                std::to_string(results[i].index));
    CampaignResult out;
    out.jobs = std::move(results);
    out.threads = threads;
    out.wall_seconds = wall_seconds;
    out.resumed = resumed;
    out.checkpoint_error = std::move(checkpoint_error);
    out.plan_size = out.jobs.size();
    return out;
}

// ---- executor ---------------------------------------------------------------

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)) {
    if (!options_.netlist_provider)
        options_.netlist_provider = [](const std::string& name) {
            return netlist::build_benchmark(name);
        };
}

std::uint64_t CampaignRunner::derive_seed(std::uint64_t campaign_seed,
                                          std::size_t job_index,
                                          std::uint64_t spec_seed) {
    auto mix = [](std::uint64_t z) {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    const std::uint64_t golden = 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = campaign_seed;
    z = mix(z + golden * (static_cast<std::uint64_t>(job_index) + 1));
    z = mix(z + golden * (spec_seed + 1));
    return z;
}

std::size_t CampaignRunner::resolve_threads(std::size_t jobs) const {
    const std::size_t requested =
        options_.threads > 0
            ? static_cast<std::size_t>(options_.threads)
            : std::max(1u, std::thread::hardware_concurrency());
    return std::min(requested, std::max<std::size_t>(jobs, 1));
}

/// Per-execute() state of one defense-instance sharing group: the instance
/// and its oracle service, built once by whichever worker reaches the group
/// first, shared by every member job this call runs, and released when the
/// last of them finishes (so a long campaign holds only the netlists its
/// in-flight jobs need).
///
/// It also holds one ReuseCell per reuse key (the spec with its replicate
/// seed cleared): the first member to arrive runs the attack, and later
/// members copy its result. A member arriving mid-run is parked in the cell
/// and its worker takes the next job; the donor's worker finishes it. A
/// throw reopens the cell, so a parked member runs the attack itself and an
/// error is never reused.
struct CampaignRunner::GroupRuntime {
    /// What a donor hands its siblings.
    struct Reused {
        std::size_t donor = 0;  ///< plan index of the job that ran the attack
        attack::AttackResult result;
        attack::OracleStats oracle_stats;
        std::uint64_t oracle_epochs = 0;
        std::uint64_t oracle_unique = 0;
    };
    /// A job between set-up and its result: its slot in execute()'s index
    /// list and its result with the set-up filled in. It waits in a reuse
    /// cell while a sibling's attack runs.
    struct Pending {
        std::size_t slot = 0;
        JobResult result;
    };
    using Cell = ReuseCell<Reused, Pending>;

    const PlannedJob* canonical = nullptr;  ///< the group's first plan member
    std::size_t plan_members = 1;           ///< group size across the whole plan
    bool cache_enabled = false;
    std::once_flag once;
    std::unique_ptr<DefenseInstance> instance;
    std::unique_ptr<attack::OracleService> service;
    std::string build_error;                ///< non-empty: the build threw
    /// Member jobs left in this call, parked ones included.
    std::atomic<std::size_t> remaining{0};
    std::mutex reuse_mutex;
    std::unordered_map<std::string, std::unique_ptr<Cell>> reuse;

    Cell& reuse_cell(const JobSpec& spec) {
        JobSpec sibling = spec;
        sibling.seed = 0;
        std::string key = checkpoint::spec_json(sibling);
        const std::lock_guard<std::mutex> lock(reuse_mutex);
        auto& cell = reuse[std::move(key)];
        if (!cell) cell = std::make_unique<Cell>();
        return *cell;
    }

    /// Counts one member finished. Last member out releases the shared
    /// instance; memory stays bounded by the set of groups with unfinished
    /// jobs, not by the whole campaign.
    void finish_member() {
        if (remaining.fetch_sub(1) == 1) {
            service.reset();
            instance.reset();
            reuse.clear();
        }
    }
};

/// One execute() call: the worker pool's shared state and the path of one
/// job through set-up, its group's reuse cell and its attack. Every job is
/// finished (result stored, group member counted, on_done fired) exactly
/// once, by whichever worker produced its result.
struct CampaignRunner::Execution {
    using Reused = GroupRuntime::Reused;
    using Pending = GroupRuntime::Pending;
    using Cell = GroupRuntime::Cell;

    const CampaignRunner& runner;
    const JobPlan& plan;
    const std::vector<std::size_t>& indices;
    const std::function<void(const JobResult&)>& on_done;
    std::vector<JobResult> out;
    /// One GroupRuntime per sharing group with members in this index
    /// subset. Keyed by group id; membership counts cover only this call (a
    /// sharded or resumed run frees an instance as soon as *its* members
    /// finish).
    std::unordered_map<std::size_t, std::unique_ptr<GroupRuntime>> groups;
    std::mutex done_mutex;

    Execution(const CampaignRunner& r, const JobPlan& p,
              const std::vector<std::size_t>& i,
              const std::function<void(const JobResult&)>& d)
        : runner(r), plan(p), indices(i), on_done(d), out(i.size()) {
        for (const std::size_t index : indices) {
            const PlannedJob& job = plan.jobs[index];
            auto& slot = groups[job.group];
            if (!slot) {
                slot = std::make_unique<GroupRuntime>();
                const DefenseGroup& g = plan.group_of(index);
                slot->canonical = &plan.jobs[g.id];
                slot->plan_members = g.members.size();
                switch (runner.options_.oracle_cache) {
                    case OracleCacheMode::Off: slot->cache_enabled = false; break;
                    case OracleCacheMode::On: slot->cache_enabled = true; break;
                    case OracleCacheMode::Auto:
                        slot->cache_enabled = g.members.size() > 1;
                        break;
                }
            }
            slot->remaining.fetch_add(1);
        }
    }

    const PlannedJob& job_at(std::size_t slot) const {
        return plan.jobs[indices[slot]];
    }
    GroupRuntime& group_at(std::size_t slot) const {
        return *groups.at(job_at(slot).group);
    }

    /// Runs the job in `slot` as far as it can without waiting: to its
    /// result, or into its reuse cell when a sibling's attack is running.
    void run_slot(std::size_t slot) {
        Timer timer;
        const PlannedJob& planned = job_at(slot);
        GroupRuntime& group = group_at(slot);
        Pending job{slot, {}};
        Cell* cell = nullptr;
        try {
            cell = set_up(planned, group, job.result);
            if (!cell) attack(planned, group, job.result);
        } catch (const std::exception& e) {
            job.result.error = e.what();
        } catch (...) {
            job.result.error = "unknown exception";
        }
        job.result.job_seconds = timer.seconds();
        if (!cell) return finish(std::move(job));
        switch (cell->arrive(std::move(job))) {
            case Cell::Arrival::Deferred: return;
            case Cell::Arrival::Done:
                copy(cell->result(), job.result);
                return finish(std::move(job));
            case Cell::Arrival::Donor: return donate(*cell, std::move(job));
        }
    }

    /// Runs the attack for `cell` as its donor and finishes every member
    /// parked meanwhile with the result. When the attack throws, the first
    /// member handed back becomes the next donor.
    void donate(Cell& cell, Pending donor) {
        while (true) {
            Timer timer;
            try {
                attack(job_at(donor.slot), group_at(donor.slot), donor.result);
            } catch (const std::exception& e) {
                donor.result.error = e.what();
            } catch (...) {
                donor.result.error = "unknown exception";
            }
            donor.result.job_seconds += timer.seconds();
            if (donor.result.error.empty()) {
                const Reused reused{donor.result.index, donor.result.result,
                                    donor.result.oracle_stats,
                                    donor.result.oracle_epochs,
                                    donor.result.oracle_unique};
                std::vector<Pending> parked = cell.complete(reused);
                finish(std::move(donor));
                for (Pending& p : parked) {
                    copy(reused, p.result);
                    finish(std::move(p));
                }
                return;
            }
            std::vector<Pending> parked = cell.abandon();
            // The parked members still count toward the group, so the cell
            // outlives this finish whenever `parked` is non-empty.
            finish(std::move(donor));
            std::optional<Pending> next;
            for (Pending& p : parked) {
                switch (cell.arrive(std::move(p))) {
                    case Cell::Arrival::Deferred: break;
                    case Cell::Arrival::Done:
                        copy(cell.result(), p.result);
                        finish(std::move(p));
                        break;
                    case Cell::Arrival::Donor: next = std::move(p); break;
                }
            }
            if (!next) return;
            donor = std::move(*next);
        }
    }

    /// Set-up: identity columns, the group's shared instance and the oracle
    /// columns. Returns the reuse cell the attack goes through, or nullptr
    /// when the job attacks on its own.
    Cell* set_up(const PlannedJob& job, GroupRuntime& group,
                 JobResult& r) const {
        const JobSpec& spec = job.spec;
        r.index = job.index;
        r.circuit = spec.circuit;
        r.defense = spec.defense.label();
        r.attack = spec.attack;
        r.solver_backend = spec.attack_options.solver_backend;
        r.spec_seed = spec.seed;
        r.derived_seed = job.derived_seed;
        r.oracle_group = static_cast<std::uint64_t>(job.group);
        r.oracle_group_size = static_cast<std::uint64_t>(group.plan_members);
        const attack::Attack& attack = attack::attack_by_name(spec.attack);
        // Build-once: the group's instance is constructed from its
        // canonical (first-in-plan) member, which by fingerprint equality
        // is byte-identical to what this job would have built privately.
        std::call_once(group.once, [&] {
            try {
                const PlannedJob& c = *group.canonical;
                const netlist::Netlist base =
                    runner.options_.netlist_provider(c.spec.circuit);
                group.instance = std::make_unique<DefenseInstance>(
                    DefenseFactory::build(base, c.spec.defense,
                                          c.derived_seed));
                // Prewarm the netlist's lazily built topo/fanout/key-cone
                // caches while the group is still single-threaded: member
                // jobs encode and simulate this netlist concurrently, and
                // the lazy fill is mutable-under-const with no lock.
                (void)group.instance->netlist->topological_order();
                (void)group.instance->netlist->key_cone();
                (void)group.instance->netlist->sim_plan();
                (void)group.instance->netlist->frontier_plan();
                (void)group.instance->netlist->key_support();
                attack::OracleService::Options sopts;
                sopts.enable_cache = group.cache_enabled;
                sopts.max_bytes = runner.options_.oracle_cache_bytes;
                group.service = std::make_unique<attack::OracleService>(
                    *group.instance->oracle, sopts);
            } catch (const std::exception& e) {
                group.build_error = e.what();
                group.service.reset();
                group.instance.reset();
            } catch (...) {
                group.build_error = "unknown exception";
                group.service.reset();
                group.instance.reset();
            }
        });
        if (!group.build_error.empty())
            throw std::runtime_error(group.build_error);
        r.protected_cells = group.instance->protected_cells;
        r.key_bits = group.instance->key_bits;
        const attack::OracleContract contract =
            group.instance->oracle->contract();
        r.oracle_contract = attack::oracle_contract_name(contract);
        r.oracle_cache_enabled = group.service->cache_active();
        // Only the internal backend is deterministic under max_conflicts,
        // and only a deterministic oracle answers every sibling alike.
        const bool reusable =
            group.plan_members > 1 && !attack.reads_seed() &&
            contract == attack::OracleContract::Deterministic &&
            spec.attack_options.solver_backend == "internal";
        return reusable ? &group.reuse_cell(spec) : nullptr;
    }

    /// Runs the job's attack on its own client of the group's oracle: the
    /// attack cannot tell it from a dedicated instance, and all metering
    /// (logical queries, epochs, memo hits) is attributed to this job.
    static void attack(const PlannedJob& job, GroupRuntime& group,
                       JobResult& r) {
        attack::AttackOptions options = job.spec.attack_options;
        options.seed = r.derived_seed;
        const std::unique_ptr<attack::OracleService::Client> oracle =
            group.service->make_client();
        r.result = attack::attack_by_name(job.spec.attack)
                       .run(*group.instance->netlist, *oracle, options);
        r.oracle_stats = oracle->stats();
        r.oracle_epochs = oracle->epochs_elapsed();
        r.oracle_cache = oracle->cache_stats();
        r.oracle_unique = r.oracle_cache.unique_patterns;
    }

    static void copy(const Reused& from, JobResult& r) {
        r.result = from.result;
        r.oracle_stats = from.oracle_stats;
        r.oracle_epochs = from.oracle_epochs;
        r.oracle_unique = from.oracle_unique;
        r.reused_from = from.donor;
    }

    void finish(Pending job) {
        group_at(job.slot).finish_member();
        if (on_done) {
            // Serialized, and a throw escaping a worker thread would
            // std::terminate the whole campaign; progress reporting is
            // not worth that.
            const std::lock_guard<std::mutex> lock(done_mutex);
            try {
                on_done(job.result);
            } catch (...) {
            }
        }
        out[job.slot] = std::move(job.result);
    }
};

std::vector<JobResult> CampaignRunner::execute(
    const JobPlan& plan, const std::vector<std::size_t>& indices,
    const std::function<void(const JobResult&)>& on_done) const {
    for (const std::size_t i : indices)
        if (i >= plan.jobs.size())
            throw std::invalid_argument("execute: plan index " +
                                        std::to_string(i) + " out of range");
    Execution run(*this, plan, indices, on_done);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        while (true) {
            const std::size_t slot = next.fetch_add(1);
            if (slot >= indices.size()) break;
            run.run_slot(slot);
        }
    };

    const std::size_t threads = resolve_threads(indices.size());
    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
        for (auto& t : pool) t.join();
    }
    return std::move(run.out);
}

// ---- run: plan + resume + execute + aggregate -------------------------------

CampaignResult CampaignRunner::run(const std::vector<JobSpec>& jobs) const {
    return run(plan_jobs(jobs, options_.campaign_seed));
}

CampaignResult CampaignRunner::run(const JobPlan& plan) const {
    Timer timer;
    if (plan.campaign_seed != options_.campaign_seed)
        throw std::invalid_argument(
            "campaign: plan was built for campaign seed " +
            std::to_string(plan.campaign_seed) + ", runner is configured for " +
            std::to_string(options_.campaign_seed));
    const ShardSpec shard = options_.shard;
    validate_shard(shard);
    const std::vector<std::size_t> mine = plan.shard_indices(shard);

    const checkpoint::ShardStamp stamp{
        plan.fingerprint, static_cast<std::uint64_t>(plan.jobs.size()),
        static_cast<std::uint64_t>(shard.index),
        static_cast<std::uint64_t>(shard.total)};

    // Resume: match journal records to this shard's slots by key. A record
    // whose key matches no slot is stale (different seed, spec or position)
    // and is dropped from the rewritten journal — unless it carries this
    // very plan's fingerprint under a different shard id, which is an
    // operator error (pointing shard i at shard j's journal would silently
    // discard shard j's completed work), so it fails loudly instead.
    std::vector<JobResult> cached_results;
    std::size_t resumed = 0;
    std::unique_ptr<checkpoint::Journal> journal;
    std::vector<char> cached(plan.jobs.size(), 0);
    if (!options_.checkpoint_path.empty()) {
        std::vector<std::string> kept;
        if (options_.resume_from_checkpoint) {
            // Key → owning plan index, to recognize completed work that
            // belongs to ANOTHER shard of this very plan (regardless of
            // how — or whether — the record is stamped): rewriting the
            // journal would silently discard it, so that fails loudly.
            std::unordered_map<std::uint64_t, std::size_t> plan_index_by_key;
            if (shard.is_sharded())
                for (const auto& job : plan.jobs)
                    plan_index_by_key.emplace(job.key, job.index);
            std::unordered_map<std::uint64_t, checkpoint::Record> by_key;
            for (auto& record :
                 checkpoint::load_journal(options_.checkpoint_path)) {
                if (record.stamp.plan_fingerprint == plan.fingerprint &&
                    (record.stamp.shard_index != stamp.shard_index ||
                     record.stamp.shard_total != stamp.shard_total)) {
                    const ShardSpec other{
                        static_cast<std::size_t>(record.stamp.shard_index),
                        static_cast<std::size_t>(record.stamp.shard_total)};
                    throw std::runtime_error(
                        "checkpoint: journal " + options_.checkpoint_path +
                        " was written by shard " + other.label() +
                        " of this plan; this run is shard " + shard.label() +
                        " (use the matching --shard or a fresh journal)");
                }
                if (shard.is_sharded()) {
                    const auto owner = plan_index_by_key.find(record.key);
                    if (owner != plan_index_by_key.end() &&
                        !shard.contains(owner->second))
                        throw std::runtime_error(
                            "checkpoint: journal " + options_.checkpoint_path +
                            " holds a completed job of this plan (index " +
                            std::to_string(owner->second) +
                            ") owned by shard " +
                            ShardSpec{owner->second % shard.total, shard.total}
                                .label() +
                            ", not this shard " + shard.label() +
                            "; resuming would discard that work — resume the "
                            "journal unsharded or with the owning shard");
                }
                by_key.emplace(record.key, std::move(record));
            }
            for (const std::size_t i : mine) {
                const auto it = by_key.find(plan.jobs[i].key);
                if (it == by_key.end()) continue;
                // Errored jobs are never cached (errors are environmental,
                // not a function of the spec — a preemption-induced failure
                // must retry on resume). This runner does not journal them;
                // the guard also covers journals from other writers.
                if (!it->second.result.error.empty()) continue;
                JobResult r = std::move(it->second.result);
                r.index = i;  // slot identity comes from the live plan
                // Rewrite with this run's stamp when the record's differs
                // (a pre-sharding journal, or a prefix salvaged from a
                // since-extended plan): otherwise the journal would stay
                // unmergeable forever, with merge_journals advising a
                // resume that never restamps. Same-stamp records keep
                // their original bytes, preserving any fields a newer
                // writer may have added.
                kept.push_back(it->second.stamp == stamp
                                   ? std::move(it->second.line)
                                   : checkpoint::encode_record(
                                         plan.jobs[i].key, plan.jobs[i].spec,
                                         r, stamp));
                cached_results.push_back(std::move(r));
                cached[i] = 1;
                ++resumed;
                by_key.erase(it);  // one record satisfies one slot
            }
        }
        journal = std::make_unique<checkpoint::Journal>(
            options_.checkpoint_path);
        journal->reset(kept);
    }

    std::vector<std::size_t> pending;
    pending.reserve(mine.size());
    for (const std::size_t i : mine)
        if (!cached[i]) pending.push_back(i);

    std::string checkpoint_error;
    // on_done is serialized by execute(), so plain captures are safe.
    auto on_done = [&](const JobResult& r) {
        // Only clean results are journaled: a thrown job is not a pure
        // function of its spec (out-of-memory, missing file), so resuming
        // must retry it rather than replay the error. Journal before
        // reporting so a crash inside the progress hook never loses a
        // finished job; a journal failure (disk full, unlinked directory)
        // is recorded and disables journaling rather than killing the
        // campaign.
        if (journal && r.error.empty()) {
            try {
                journal->append(checkpoint::encode_record(
                    plan.jobs[r.index].key, plan.jobs[r.index].spec, r,
                    stamp));
            } catch (const std::exception& e) {
                checkpoint_error = e.what();
                journal.reset();
            }
        }
        if (options_.on_job_done) options_.on_job_done(r);
    };

    std::vector<JobResult> fresh = execute(plan, pending, on_done);

    // Aggregate: cached + fresh results, packed in matrix order through the
    // same path tools/merge_campaign uses for shard journals.
    std::vector<JobResult> results = std::move(cached_results);
    results.reserve(mine.size());
    for (auto& r : fresh) results.push_back(std::move(r));

    CampaignResult out = aggregate_results(
        std::move(results),
        static_cast<int>(resolve_threads(pending.size())), timer.seconds(),
        resumed, std::move(checkpoint_error));
    out.shard = shard;
    out.plan_size = plan.jobs.size();
    out.plan_fingerprint = plan.fingerprint;
    return out;
}

std::vector<JobSpec> CampaignRunner::cross_product(
    const std::vector<std::string>& circuits,
    const std::vector<DefenseConfig>& defenses,
    const std::vector<std::string>& attacks,
    const std::vector<std::uint64_t>& seeds,
    const attack::AttackOptions& attack_options) {
    std::vector<JobSpec> jobs;
    jobs.reserve(circuits.size() * defenses.size() * attacks.size() *
                 seeds.size());
    for (const auto& circuit : circuits)
        for (const auto& defense : defenses)
            for (const auto& attack : attacks)
                for (const auto seed : seeds) {
                    JobSpec spec;
                    spec.circuit = circuit;
                    spec.defense = defense;
                    spec.attack = attack;
                    spec.seed = seed;
                    spec.attack_options = attack_options;
                    jobs.push_back(std::move(spec));
                }
    return jobs;
}

}  // namespace gshe::engine
