// End-to-end campaign benchmark: runs one named workload through the
// library's public campaign calls and prints its metrics (see README.md).
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--campaign-seed N]
//
// --trace 0 times set-up and CampaignRunner::run (repeated while the next
// repetition fits the time budget) and prints the end-to-end metrics. --trace 1 runs the
// campaign once untraced, then drives every planned job again through the
// layer calls with spans recorded, checks that the traced pass reproduces
// the campaign job by job, checks every recovered key formally, and prints
// the per-layer metrics. Human-readable lines come first; the last line of
// standard output is one JSON object. The exit code is non-zero on any
// failed job, refuted key, fidelity mismatch or unstable digest.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/attack.hpp"
#include "attack/equivalence.hpp"
#include "attack/oracle_service.hpp"
#include "engine/campaign.hpp"
#include "engine/defense.hpp"
#include "engine/report.hpp"
#include "measure.hpp"
#include "netlist/corpus.hpp"

namespace {

using namespace gshe;
using perfbench::Scope;
using perfbench::Trace;
using Clock = std::chrono::steady_clock;
using Status = attack::AttackResult::Status;

constexpr std::uint64_t kDefaultCampaignSeed = 0x6a0b5eed;  // run_campaign's
// Far above any run, so only max_conflicts decides a t-o cell.
constexpr double kTimeoutSeconds = 3600.0;
// Set-up is about a millisecond; its median over this many repetitions is
// what setup_s reports.
constexpr int kSetupReps = 101;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads --------------------------------------------------------------

struct Workload {
    std::string name;
    std::vector<engine::JobSpec> specs;
    int threads = 1;
    bool journal = false;
};

/// run_campaign's defense settings for `kind`.
engine::DefenseConfig defense(const std::string& kind) {
    engine::DefenseConfig d;
    d.kind = kind;
    d.library = "gshe16";
    d.fraction = 0.05;
    d.sarlock_bits = 4;
    d.accuracy = 0.95;
    return d;
}

Workload make_workload(const std::string& name) {
    using engine::CampaignRunner;
    attack::AttackOptions opts;
    opts.timeout_seconds = kTimeoutSeconds;
    if (name == "default_matrix") {
        opts.max_conflicts = 50000;
        return {name,
                CampaignRunner::cross_product(
                    {"ex1010", "c7552"},
                    {defense("camo"), defense("sarlock"), defense("stochastic")},
                    {"sat", "double_dip"}, {1, 2}, opts),
                1, false};
    }
    if (name == "scaled_matrix") {
        opts.max_conflicts = 20000;
        return {name,
                CampaignRunner::cross_product(
                    {"aes_core", "b14", "b21", "pci_bridge32"},
                    {defense("camo"), defense("sarlock")}, {"sat"}, {1}, opts),
                1, false};
    }
    if (name == "point_function") {
        opts.max_conflicts = 50000;
        engine::DefenseConfig d = defense("sarlock");
        d.sarlock_bits = 8;
        d.protect_seed = 0x5a8;  // one shared instance per circuit
        return {name,
                CampaignRunner::cross_product({"ex1010", "c7552"}, {d},
                                              {"sat", "appsat"}, {1, 2, 3, 4},
                                              opts),
                2, true};
    }
    throw std::invalid_argument("unknown workload '" + name +
                                "' (default_matrix, scaled_matrix, "
                                "point_function)");
}

// ---- set-up -----------------------------------------------------------------

/// The plan plus each named circuit generated once; the campaign receives
/// the netlists through CampaignOptions::netlist_provider.
struct Setup {
    engine::JobPlan plan;
    std::map<std::string, netlist::Netlist> netlists;
    double plan_s = 0.0;
    double corpus_s = 0.0;
};

Setup set_up(const Workload& w, std::uint64_t campaign_seed) {
    Setup s;
    const auto t0 = Clock::now();
    s.plan = engine::plan_jobs(w.specs, campaign_seed);
    s.plan_s = seconds_since(t0);
    const auto t1 = Clock::now();
    for (const engine::JobSpec& spec : w.specs)
        if (!s.netlists.count(spec.circuit))
            s.netlists.emplace(spec.circuit,
                               netlist::build_benchmark(spec.circuit));
    s.corpus_s = seconds_since(t1);
    return s;
}

// ---- the campaign, untraced -------------------------------------------------

struct CampaignRun {
    engine::CampaignResult result;
    double seconds = 0.0;
};

CampaignRun run_campaign(const Workload& w, const Setup& s,
                         const std::filesystem::path& work_dir) {
    engine::CampaignOptions o;
    o.threads = w.threads;
    o.campaign_seed = s.plan.campaign_seed;
    o.netlist_provider = [&s](const std::string& name) {
        return s.netlists.at(name);
    };
    if (w.journal) {
        o.checkpoint_path = (work_dir / (w.name + ".journal.jsonl")).string();
        o.resume_from_checkpoint = false;
    }
    const engine::CampaignRunner runner(o);
    const auto t0 = Clock::now();
    CampaignRun run{runner.run(s.plan), 0.0};
    run.seconds = seconds_since(t0);
    return run;
}

bool is_deterministic(const std::string& contract) {
    return contract ==
           attack::oracle_contract_name(attack::OracleContract::Deterministic);
}

// AppSAT promises only a probably-approximately-correct key: it settles
// once a candidate agrees with the oracle on a settlement sample of 128
// random patterns (AppSatOptions::sample_words = 2). By the rule of three,
// a candidate that passes has an error rate below 3/128 with 95%
// confidence; that is the bound its sampled key_error_rate is held to.
constexpr double kAppSatTolerance = 3.0 / 128.0;

/// Whether the attack promises an exact key (every attack but AppSAT).
bool exact_attack(const std::string& attack) { return attack != "appsat"; }

/// Why a job fails the benchmark; empty when it passes. A t-o cell passes.
std::string job_failure(const engine::JobResult& j) {
    if (!j.error.empty()) return "error: " + j.error;
    if (!is_deterministic(j.oracle_contract)) return {};
    const attack::AttackResult& r = j.result;
    if (r.status == Status::Inconsistent)
        return "inconsistent against a deterministic oracle";
    if (r.status != Status::Success || r.key_exact) return {};
    if (exact_attack(j.attack))
        return "inexact key against a deterministic oracle";
    if (r.key_error_rate > kAppSatTolerance)
        return "approximate key error rate " +
               std::to_string(r.key_error_rate) + " above " +
               std::to_string(kAppSatTolerance);
    return {};
}

bool resolved(const engine::JobResult& j) {
    return j.error.empty() && (j.result.status == Status::Success ||
                               j.result.status == Status::Inconsistent);
}

std::string job_label(const engine::JobResult& j) {
    return "job " + std::to_string(j.index) + " (" + j.circuit + " " +
           j.defense + " " + j.attack + " seed " + std::to_string(j.spec_seed) +
           ")";
}

// ---- results ----------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome {
    std::vector<Metric> metrics;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void metric(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void fail(std::string why) { failures.push_back(std::move(why)); }

    /// Counts the campaign's jobs and records each failed one.
    void check(const engine::CampaignResult& r) {
        if (!r.checkpoint_error.empty())
            fail("checkpoint journal: " + r.checkpoint_error);
        for (const engine::JobResult& j : r.jobs) {
            ++attempted;
            const std::string why = job_failure(j);
            if (!why.empty()) {
                ++failed;
                fail(job_label(j) + ": " + why);
            }
        }
    }

    /// Prints every metric, the failures, and the closing JSON line.
    int finish() const {
        for (const Metric& m : metrics)
            std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        for (const std::string& f : failures)
            std::printf("FAIL %s\n", f.c_str());
        const bool correct = failures.empty();
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    correct ? "true" : "false", attempted, failed);
        for (std::size_t i = 0; i < metrics.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics[i].name.c_str(),
                        std::isfinite(metrics[i].value) ? metrics[i].value
                                                        : 0.0,
                        metrics[i].unit.c_str());
        std::printf("}}\n");
        return correct ? 0 : 1;
    }
};

std::size_t count_resolved(const engine::CampaignResult& r) {
    std::size_t n = 0;
    for (const engine::JobResult& j : r.jobs) n += resolved(j);
    return n;
}

void print_digest(const std::string& workload, std::uint64_t campaign_seed,
                  std::uint64_t digest) {
    std::printf("digest %s campaign_seed=0x%" PRIx64 " csv_fnv1a=0x%016" PRIx64
                "\n",
                workload.c_str(), campaign_seed, digest);
}

void print_statuses(const engine::CampaignResult& r) {
    std::map<std::string, int> by_status;
    for (const engine::JobResult& j : r.jobs)
        ++by_status[j.error.empty()
                        ? attack::AttackResult::status_name(j.result.status)
                        : "error"];
    std::printf("statuses");
    for (const auto& [status, n] : by_status)
        std::printf(" %s=%d", status.c_str(), n);
    std::printf(" of %zu jobs\n", r.jobs.size());
}

// ---- the traced pass --------------------------------------------------------

struct TracedJob {
    attack::AttackResult result;
    attack::OracleCacheStats cache;
    std::string contract;
    std::string error;
    /// Formal verdict on the recovered key; set for successes only.
    std::optional<attack::EquivStatus> equivalence;
};

struct TracedPass {
    std::vector<TracedJob> jobs;  ///< plan order
    std::size_t defense_builds = 0;
};

/// Drives every planned job through the public layer calls the campaign
/// makes — defense build, netlist prewarm, oracle service, attack.run —
/// with a span around each, then checks each recovered key formally.
/// Jobs run one at a time in an order drawn from `order_seed`; a defense
/// instance is built once per sharing group, as the campaign does.
TracedPass traced_pass(const Setup& s, Trace& trace, std::uint64_t order_seed) {
    const engine::JobPlan& plan = s.plan;
    struct Group {
        std::unique_ptr<engine::DefenseInstance> instance;
        std::unique_ptr<attack::OracleService> service;
        std::size_t remaining = 0;
    };
    std::map<std::size_t, Group> groups;
    for (const engine::PlannedJob& job : plan.jobs) ++groups[job.group].remaining;

    std::vector<std::size_t> order(plan.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), std::mt19937_64(order_seed));

    TracedPass pass;
    pass.jobs.resize(plan.size());
    for (const std::size_t i : order) {
        const engine::PlannedJob& job = plan.jobs[i];
        TracedJob& t = pass.jobs[i];
        Group& g = groups.at(job.group);
        const Scope job_span(trace, "job", -1, i);
        try {
            if (!g.service) {
                const engine::DefenseGroup& dg = plan.group_of(i);
                const engine::PlannedJob& c = plan.jobs[dg.id];
                std::unique_ptr<netlist::Netlist> base;
                {
                    const Scope span(trace, "netlist.provide", job_span.id(), i);
                    base = std::make_unique<netlist::Netlist>(
                        s.netlists.at(c.spec.circuit));
                }
                {
                    const Scope span(trace, "engine.defense_build",
                                     job_span.id(), i);
                    g.instance = std::make_unique<engine::DefenseInstance>(
                        engine::DefenseFactory::build(*base, c.spec.defense,
                                                      c.derived_seed));
                    attack::OracleService::Options so;
                    so.enable_cache = dg.members.size() > 1;  // memo policy Auto
                    g.service = std::make_unique<attack::OracleService>(
                        *g.instance->oracle, so);
                }
                {
                    const Scope span(trace, "netlist.prewarm", job_span.id(), i);
                    const netlist::Netlist& nl = *g.instance->netlist;
                    (void)nl.topological_order();
                    (void)nl.key_cone();
                    (void)nl.sim_plan();
                    (void)nl.frontier_plan();
                    (void)nl.key_support();
                }
                ++pass.defense_builds;
            }
            const auto client = g.service->make_client();
            t.contract = attack::oracle_contract_name(client->contract());
            attack::AttackOptions options = job.spec.attack_options;
            options.seed = job.derived_seed;
            const attack::Attack& attack = attack::attack_by_name(job.spec.attack);
            {
                const Scope span(trace, "attack.run", job_span.id(), i);
                perfbench::TimedOracle oracle(*client, trace, span.id(), i);
                t.result = attack.run(*g.instance->netlist, oracle, options);
            }
            t.cache = client->cache_stats();
            if (t.result.status == Status::Success) {
                const Scope span(trace, "attack.verify", job_span.id(), i);
                t.equivalence = attack::check_key_equivalence(
                                    *g.instance->netlist, t.result.key)
                                    .status;
            }
        } catch (const std::exception& e) {
            t.error = e.what();
        }
        if (--g.remaining == 0) {
            g.service.reset();
            g.instance.reset();
        }
    }
    return pass;
}

/// Job by job, the traced pass must reproduce the untraced campaign.
void check_fidelity(const engine::CampaignResult& campaign,
                    const TracedPass& pass, Outcome& out) {
    for (const engine::JobResult& j : campaign.jobs) {
        const TracedJob& t = pass.jobs.at(j.index);
        const attack::AttackResult& a = j.result;
        const attack::AttackResult& b = t.result;
        const auto differs = [&](const char* field, std::uint64_t x,
                                 std::uint64_t y) {
            if (x != y)
                out.fail("fidelity: " + job_label(j) + " " + field +
                         " campaign " + std::to_string(x) + " traced " +
                         std::to_string(y));
        };
        differs("errored", !j.error.empty(), !t.error.empty());
        differs("status", static_cast<std::uint64_t>(a.status),
                static_cast<std::uint64_t>(b.status));
        differs("iterations", a.iterations, b.iterations);
        differs("oracle_patterns", a.oracle_patterns, b.oracle_patterns);
        differs("conflicts", a.solver_stats.conflicts, b.solver_stats.conflicts);
        differs("decisions", a.solver_stats.decisions, b.solver_stats.decisions);
        differs("propagations", a.solver_stats.propagations,
                b.solver_stats.propagations);
    }
}

void write_spans(const std::filesystem::path& path, const Trace& trace) {
    std::ofstream f(path);
    f << "{\"traceEvents\": [\n";
    const auto& spans = trace.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const perfbench::Span& s = spans[i];
        char line[256];
        std::snprintf(line, sizeof line,
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                      "{\"id\": %zu, \"parent\": %d, \"job\": %zu}}",
                      i ? ",\n" : "", s.name, s.start * 1e6,
                      s.duration() * 1e6, i, s.parent, s.job);
        f << line;
    }
    f << "\n]}\n";
}

// ---- self-test of the benchmark's own arithmetic ----------------------------

/// Oracle stub whose hooks are observable, for the decorator check.
class ProbeOracle final : public attack::Oracle {
public:
    explicit ProbeOracle(attack::OracleContract c) : contract_(c) {}
    attack::OracleContract contract() const override { return contract_; }
    std::uint64_t cache_epoch() override { return ++epoch_; }
    void on_cache_hit() override { ++hits; }
    std::uint64_t epochs_elapsed() const override { return 10 * epoch_; }

    std::uint64_t hits = 0;

protected:
    std::vector<std::uint64_t> evaluate(
        std::span<const std::uint64_t> pi_words) override {
        return {pi_words.begin(), pi_words.end()};
    }

private:
    attack::OracleContract contract_;
    std::uint64_t epoch_ = 0;
};

std::vector<std::string> self_test() {
    std::vector<std::string> errors;
    const auto expect = [&](bool ok, const char* what) {
        if (!ok) errors.emplace_back(what);
    };
    const auto near = [](double a, double b) { return std::abs(a - b) < 1e-9; };
    using perfbench::Span;

    // Self time: overlapping children count once, overhang is clipped.
    Trace t;
    const int root = t.add(Span{"root", 0, 10, -1, 0});
    t.add(Span{"a", 1, 3, root, 0});
    t.add(Span{"b", 2, 5, root, 0});
    t.add(Span{"c", 9, 12, root, 0});
    const int d = t.add(Span{"d", 6, 8, root, 0});
    t.add(Span{"e", 6.5, 7, d, 0});
    const std::vector<double> self = perfbench::self_times(t.spans());
    expect(near(self[static_cast<std::size_t>(root)], 3.0),
           "self time of a span with overlapping and overhanging children");
    expect(near(self[static_cast<std::size_t>(d)], 1.5),
           "self time of a nested span");
    expect(near(self[1], 2.0), "self time of a leaf span");

    // Order statistics and the percentile rule.
    expect(near(perfbench::median({4, 1, 3, 2}), 2.5), "median, even count");
    expect(near(perfbench::median({5, 1, 4}), 4.0), "median, odd count");
    std::vector<double> ten(10);
    std::iota(ten.begin(), ten.end(), 1.0);
    expect(near(perfbench::percentile(ten, 50), 5.0), "nearest-rank p50");
    expect(near(perfbench::percentile(ten, 90), 9.0), "nearest-rank p90");
    expect(near(perfbench::percentile(ten, 100), 10.0), "nearest-rank p100");
    expect(near(perfbench::percentile(ten, 0), 1.0), "nearest-rank p0");
    expect(!perfbench::tail_percentile(10), "no tail percentile at n=10");
    expect(perfbench::tail_percentile(11) == 9, "tail percentile at n=11");
    expect(perfbench::tail_percentile(24) == 58, "tail percentile at n=24");
    expect(perfbench::tail_percentile(100) == 90, "tail percentile at n=100");
    expect(perfbench::tail_percentile(1000) == 99, "tail percentile at n=1000");

    // Pool idle share.
    expect(near(perfbench::pool_idle_share({1, 1, 2}, 2, 2.0), 0.0),
           "idle share of a saturated pool");
    expect(near(perfbench::pool_idle_share({1}, 2, 2.0), 0.75),
           "idle share of a mostly idle pool");

    // Digest: FNV-1a 64 reference values.
    expect(perfbench::fnv1a("") == 0xcbf29ce484222325ULL, "FNV-1a of \"\"");
    expect(perfbench::fnv1a("a") == 0xaf63dc4c8601ec8cULL, "FNV-1a of \"a\"");

    // The decorator forwards the contract and the epoch hooks, and a memo
    // in front of it treats it exactly as the oracle it wraps.
    for (const auto contract : {attack::OracleContract::Deterministic,
                                attack::OracleContract::EpochKeyed,
                                attack::OracleContract::NonCacheable}) {
        ProbeOracle inner(contract);
        Trace tr;
        perfbench::TimedOracle outer(inner, tr, -1, 7);
        expect(outer.contract() == contract, "decorator forwards contract()");
        expect(outer.cache_epoch() == 1, "decorator forwards cache_epoch()");
        outer.on_cache_hit();
        expect(inner.hits == 1, "decorator forwards on_cache_hit()");
        expect(outer.epochs_elapsed() == 10,
               "decorator forwards epochs_elapsed()");
        const std::vector<std::uint64_t> words = {3, 5};
        expect(outer.query(words) == words, "decorator forwards query()");
        expect(tr.spans().size() == 1 &&
                   std::string(tr.spans()[0].name) == "attack.oracle" &&
                   tr.spans()[0].job == 7,
               "decorator records one oracle span per query");
        const attack::OracleService service(outer);
        expect(service.cache_active() ==
                   (contract != attack::OracleContract::NonCacheable),
               "memo treats the decorator as the oracle it wraps");
    }
    return errors;
}

// ---- the two modes ----------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    std::uint64_t campaign_seed = kDefaultCampaignSeed;
    std::filesystem::path work_dir = ".";
};

/// Set-up repeated kSetupReps times; returns the last and the medians.
struct SetupTimes {
    Setup setup;
    double total_s = 0.0, plan_s = 0.0, corpus_s = 0.0;
};

SetupTimes timed_setups(const Workload& w, std::uint64_t campaign_seed) {
    std::vector<double> total, plan, corpus;
    SetupTimes out;
    for (int k = 0; k < kSetupReps; ++k) {
        const auto t0 = Clock::now();
        out.setup = set_up(w, campaign_seed);
        total.push_back(seconds_since(t0));
        plan.push_back(out.setup.plan_s);
        corpus.push_back(out.setup.corpus_s);
    }
    out.total_s = perfbench::median(total);
    out.plan_s = perfbench::median(plan);
    out.corpus_s = perfbench::median(corpus);
    return out;
}

int end_to_end(const Args& args, const Workload& w) {
    Outcome out;
    const SetupTimes st = timed_setups(w, args.campaign_seed);
    std::vector<double> campaign_s;
    std::uint64_t digest = 0;
    std::size_t cells = 0;
    const auto start = Clock::now();
    do {
        const CampaignRun run = run_campaign(w, st.setup, args.work_dir);
        campaign_s.push_back(run.seconds);
        out.check(run.result);
        const std::uint64_t d = perfbench::fnv1a(engine::campaign_csv(run.result));
        const std::size_t c = count_resolved(run.result);
        if (campaign_s.size() == 1) {
            digest = d;
            cells = c;
            print_statuses(run.result);
        } else if (d != digest || c != cells) {
            out.fail("repetition " + std::to_string(campaign_s.size()) +
                     " changed the determinism digest");
        }
    } while (seconds_since(start) + campaign_s.back() <= args.seconds);

    // The peak over every repetition: at 2 threads one repetition's peak
    // depends on which big jobs happen to overlap.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    print_digest(w.name, args.campaign_seed, digest);
    std::printf("campaign repetitions (s):");
    for (const double s : campaign_s) std::printf(" %.4f", s);
    std::printf("\njobs_failed %" PRIu64 " of jobs_attempted %" PRIu64 "\n",
                out.failed, out.attempted);
    out.metric("campaign_s", perfbench::median(campaign_s), "s");
    out.metric("setup_s", st.total_s, "s");
    out.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    out.metric("cells_resolved", static_cast<double>(cells), "count");
    return out.finish();
}

int per_layer(const Args& args, const Workload& w) {
    Outcome out;
    const SetupTimes st = timed_setups(w, args.campaign_seed);
    const engine::JobPlan& plan = st.setup.plan;

    const CampaignRun run = run_campaign(w, st.setup, args.work_dir);
    out.check(run.result);
    print_statuses(run.result);
    print_digest(w.name, args.campaign_seed,
                 perfbench::fnv1a(engine::campaign_csv(run.result)));

    Trace trace;
    const TracedPass pass = traced_pass(st.setup, trace, args.seed);
    check_fidelity(run.result, pass, out);

    // Counters from the traced pass's results.
    std::uint64_t propagations = 0, conflicts = 0, decisions = 0, dips = 0;
    std::uint64_t patterns = 0, hits = 0, lookups = 0;
    std::uint64_t proven = 0, refuted = 0, undecided = 0;
    sat::EncoderStats enc;
    for (std::size_t i = 0; i < pass.jobs.size(); ++i) {
        const TracedJob& t = pass.jobs[i];
        ++out.attempted;
        if (!t.error.empty()) {
            ++out.failed;
            out.fail("traced job " + std::to_string(i) + ": " + t.error);
            continue;
        }
        propagations += t.result.solver_stats.propagations;
        conflicts += t.result.solver_stats.conflicts;
        decisions += t.result.solver_stats.decisions;
        dips += t.result.iterations;
        patterns += t.result.oracle_patterns;
        hits += t.cache.hits;
        lookups += t.cache.hits + t.cache.misses;
        sat::accumulate(enc, t.result.encoder_stats);
        if (!t.equivalence) continue;
        switch (*t.equivalence) {
            case attack::EquivStatus::Equivalent: ++proven; break;
            case attack::EquivStatus::Unknown: ++undecided; break;
            case attack::EquivStatus::Different:
                ++refuted;
                if (is_deterministic(t.contract) &&
                    exact_attack(plan.jobs[i].spec.attack))
                    out.fail("traced job " + std::to_string(i) +
                             ": key refuted against a deterministic oracle");
                break;
        }
    }

    // Self times from the spans.
    const auto& spans = trace.spans();
    const std::vector<double> self = perfbench::self_times(spans);
    std::map<std::string, double> self_by_name, by_attack;
    std::uint64_t oracle_calls = 0;
    double traced_jobs_s = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string name = spans[i].name;
        self_by_name[name] += self[i];
        if (name == "attack.run")
            by_attack[plan.jobs[spans[i].job].spec.attack] += self[i];
        else if (name == "attack.oracle")
            ++oracle_calls;
        else if (name == "job")
            traced_jobs_s += spans[i].duration();
    }
    const double run_s = self_by_name["attack.run"];
    const double verify_s = self_by_name["attack.verify"];

    std::vector<double> job_s;
    for (const engine::JobResult& j : run.result.jobs)
        job_s.push_back(j.job_seconds);
    const double campaign_jobs_s = std::accumulate(job_s.begin(), job_s.end(), 0.0);
    if (const auto p = perfbench::tail_percentile(job_s.size()))
        std::printf("job time tail: p%d = %.6g s over n=%zu jobs (highest "
                    "percentile with >=10 jobs beyond it)\n",
                    *p, perfbench::percentile(job_s, *p), job_s.size());
    else
        std::printf("job time tail: n=%zu jobs, too few for any percentile "
                    "with >=10 jobs beyond it; p50/p90 are nearest-rank "
                    "order statistics\n",
                    job_s.size());
    std::printf("campaign run (untraced) %.6g s; traced pass %zu spans\n",
                run.seconds, spans.size());

    const auto share = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    out.metric("sat.props_per_s", share(static_cast<double>(propagations), run_s),
               "1/s");
    out.metric("sat.propagations", static_cast<double>(propagations), "count");
    out.metric("sat.conflicts", static_cast<double>(conflicts), "count");
    out.metric("sat.decisions", static_cast<double>(decisions), "count");
    out.metric("sat.enc_vars", static_cast<double>(enc.vars), "count");
    out.metric("sat.enc_clauses", static_cast<double>(enc.clauses), "count");
    out.metric("sat.agreement_vars", static_cast<double>(enc.agreement_vars),
               "count");
    out.metric("sat.agreement_clauses",
               static_cast<double>(enc.agreement_clauses), "count");
    out.metric("attack.run_s", run_s, "s");
    out.metric("attack.sat_s", by_attack["sat"], "s");
    out.metric("attack.double_dip_s", by_attack["double_dip"], "s");
    out.metric("attack.appsat_s", by_attack["appsat"], "s");
    out.metric("attack.dips", static_cast<double>(dips), "count");
    out.metric("attack.ms_per_dip", 1e3 * share(run_s, static_cast<double>(dips)),
               "ms");
    out.metric("attack.oracle_s", self_by_name["attack.oracle"], "s");
    out.metric("attack.oracle_calls", static_cast<double>(oracle_calls), "count");
    out.metric("attack.oracle_patterns", static_cast<double>(patterns), "count");
    out.metric("attack.memo_hit_ratio",
               share(static_cast<double>(hits), static_cast<double>(lookups)),
               "ratio");
    out.metric("attack.verify_s", verify_s, "s");
    out.metric("attack.keys_proven", static_cast<double>(proven), "count");
    out.metric("attack.keys_refuted", static_cast<double>(refuted), "count");
    out.metric("attack.keys_undecided", static_cast<double>(undecided), "count");
    out.metric("engine.defense_build_s", self_by_name["engine.defense_build"], "s");
    out.metric("engine.instance_reuse",
               share(static_cast<double>(plan.size()),
                     static_cast<double>(pass.defense_builds)),
               "ratio");
    out.metric("netlist.prewarm_s", self_by_name["netlist.prewarm"], "s");
    out.metric("engine.job_p50_s", perfbench::percentile(job_s, 50), "s");
    out.metric("engine.job_p90_s", perfbench::percentile(job_s, 90), "s");
    out.metric("engine.job_max_s", perfbench::percentile(job_s, 100), "s");
    out.metric("engine.pool_idle_share",
               perfbench::pool_idle_share(job_s, run.result.threads, run.seconds),
               "share");
    out.metric("engine.plan_s", st.plan_s, "s");
    out.metric("netlist.corpus_s", st.corpus_s, "s");
    out.metric("trace_overhead_share",
               share(traced_jobs_s - verify_s, campaign_jobs_s) - 1.0, "share");

    write_spans(args.work_dir / (w.name + ".trace.json"), trace);
    return out.finish();
}

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "%s\nusage: campaign_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--campaign-seed N]\n",
                 why.c_str());
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") a.workload = value;
            else if (flag == "--seed") a.seed = std::stoull(value, nullptr, 0);
            else if (flag == "--seconds") a.seconds = std::stod(value);
            else if (flag == "--trace") a.trace = std::stoi(value);
            else if (flag == "--campaign-seed")
                a.campaign_seed = std::stoull(value, nullptr, 0);
            else if (flag == "--work-dir") a.work_dir = value;
            else usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
    return a;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    const std::vector<std::string> errors = self_test();
    for (const std::string& e : errors)
        std::fprintf(stderr, "self-test failed: %s\n", e.c_str());
    if (!errors.empty()) return 1;
    try {
        std::filesystem::create_directories(args.work_dir);
        const Workload w = make_workload(args.workload);
        return args.trace ? per_layer(args, w) : end_to_end(args, w);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "campaign_bench: %s\n", e.what());
        return 1;
    }
}
