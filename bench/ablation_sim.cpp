// Ablation: the levelized bit-sliced simulation engine on the default camo
// matrix. Three axes:
//
//   kernel      reference per-gate walk vs the compiled SimPlan sweep
//               (same 64-pattern workload, word-identical results)
//   multi-word  1024 patterns as sixteen 64-bit sweeps vs one
//               run_words(16) pass (the OracleService / AppSAT shape)
//   cone        per-DIP full run_single_all vs the cone-restricted
//               run_frontier_single the CNF encoder uses
//
// Gated only on deterministic counters: kernel/frontier word equality and a
// >= 2x geomean reduction in per-DIP sweep cost (full-plan steps vs frontier sub-plan steps — the step count a
// DIP sweep executes, independent of the host). Wall-clock speedups are
// reported and recorded in BENCH_sim.json but never gated on.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "camo/cell_library.hpp"
#include "camo/protect.hpp"
#include "common/ascii_table.hpp"
#include "netlist/corpus.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sim_plan.hpp"
#include "netlist/simulator.hpp"

using namespace gshe;

namespace {

/// Seconds per call, with the call repeated until ~50 ms of wall time so
/// fast kernels are not measured at clock resolution.
template <typename Fn>
double time_per_call(Fn&& fn) {
    using clock = std::chrono::steady_clock;
    std::size_t reps = 1;
    for (;;) {
        const auto t0 = clock::now();
        for (std::size_t i = 0; i < reps; ++i) fn();
        const double s = std::chrono::duration<double>(clock::now() - t0).count();
        if (s >= 0.05 || reps >= (1u << 20))
            return s / static_cast<double>(reps);
        reps *= 4;
    }
}

double geomean(const std::vector<double>& ratios) {
    if (ratios.empty()) return 0.0;
    double log_sum = 0.0;
    for (const double r : ratios) log_sum += std::log(r);
    return std::exp(log_sum / static_cast<double>(ratios.size()));
}

}  // namespace

int main() {
    bench::banner("ABLATION",
                  "levelized bit-sliced simulation engine (SimPlan kernel)");
    const std::vector<std::string> circuits{"ex1010", "c7552"};
    constexpr double kFraction = 0.05;  // run_campaign's default camo matrix
    constexpr std::uint64_t kSeed = 0xEC0;

    bool words_match = true;
    std::vector<bench::SimCircuitSummary> rows;
    std::vector<double> step_reductions, kernel_speedups, multiword_speedups,
        cone_speedups;
    for (const std::string& name : circuits) {
        const netlist::Netlist plain = netlist::build_benchmark(name);
        const camo::Protection prot = camo::apply_camouflage(
            plain, camo::select_gates(plain, kFraction, kSeed), camo::gshe16(),
            kSeed);
        const netlist::Netlist& nl = prot.netlist;
        const netlist::Simulator sim(nl);

        bench::SimCircuitSummary row;
        row.name = name;
        row.gates = nl.size();
        row.camo_cells = nl.camo_cells().size();
        row.inputs = nl.inputs().size();
        const std::vector<char>& support = nl.key_support();
        for (const netlist::GateId pi : nl.inputs())
            if (support[pi]) ++row.support_inputs;
        row.full_steps = nl.sim_plan().steps();
        row.frontier_steps = nl.frontier_plan().steps();

        std::mt19937_64 rng(kSeed ^ nl.size());
        std::vector<std::uint64_t> pi(nl.inputs().size());
        for (auto& w : pi) w = rng();
        std::vector<bool> pattern(nl.inputs().size());
        for (std::size_t i = 0; i < pattern.size(); ++i)
            pattern[i] = (pi[i] & 1) != 0;

        // Deterministic equality checks (gated): the plan kernel and the
        // cone-restricted sweep reproduce the reference walk bit for bit.
        if (sim.run(pi) != sim.run_reference(pi)) words_match = false;
        const std::vector<char> full_values = sim.run_single_all(pattern);
        const std::span<const char> frontier = sim.run_frontier_single(pattern);
        for (const netlist::GateId g : nl.frontier_read_set())
            if (frontier[g] != full_values[g]) words_match = false;

        // Measured sweep timings (reported, never gated).
        row.reference_sweep_s = time_per_call([&] { (void)sim.run_reference(pi); });
        row.kernel_sweep_s = time_per_call([&] { (void)sim.run(pi); });
        constexpr std::size_t kWords = 16;
        std::vector<std::uint64_t> pi_words(nl.inputs().size() * kWords);
        for (auto& w : pi_words) w = rng();
        row.single_word_s = time_per_call([&] {
            std::vector<std::uint64_t> slice(nl.inputs().size());
            for (std::size_t w = 0; w < kWords; ++w) {
                for (std::size_t i = 0; i < slice.size(); ++i)
                    slice[i] = pi_words[i * kWords + w];
                (void)sim.run(slice);
            }
        });
        row.multi_word_s =
            time_per_call([&] { (void)sim.run_words(pi_words, kWords); });
        row.full_dip_s =
            time_per_call([&] { (void)sim.run_single_all_span(pattern); });
        row.frontier_dip_s =
            time_per_call([&] { (void)sim.run_frontier_single(pattern); });

        step_reductions.push_back(static_cast<double>(row.full_steps) /
                                  static_cast<double>(row.frontier_steps));
        kernel_speedups.push_back(row.reference_sweep_s / row.kernel_sweep_s);
        multiword_speedups.push_back(row.single_word_s / row.multi_word_s);
        cone_speedups.push_back(row.full_dip_s / row.frontier_dip_s);
        rows.push_back(row);
    }

    AsciiTable t("Per-DIP sweep cost: full plan vs key-cone frontier sub-plan");
    t.header({"circuit", "gates", "camo", "full steps", "cone steps",
              "step red.", "kernel", "x16 words", "cone sweep"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const bench::SimCircuitSummary& r = rows[i];
        t.row({r.name, AsciiTable::num(static_cast<double>(r.gates), 6),
               AsciiTable::num(static_cast<double>(r.camo_cells), 4),
               AsciiTable::num(static_cast<double>(r.full_steps), 6),
               AsciiTable::num(static_cast<double>(r.frontier_steps), 6),
               AsciiTable::num(step_reductions[i], 3) + "x",
               AsciiTable::num(kernel_speedups[i], 3) + "x",
               AsciiTable::num(multiword_speedups[i], 3) + "x",
               AsciiTable::num(cone_speedups[i], 3) + "x"});
    }
    std::puts(t.render().c_str());

    const double step_reduction_geomean = geomean(step_reductions);
    std::printf("per-DIP sweep step reduction geomean: %.2fx (gate: >= 2x)\n",
                step_reduction_geomean);
    std::printf("kernel speedup geomean: %.2fx; multi-word: %.2fx; cone "
                "sweep: %.2fx (measured, not gated)\n",
                geomean(kernel_speedups), geomean(multiword_speedups),
                geomean(cone_speedups));
    std::printf("kernel/frontier words match reference: %s\n",
                words_match ? "yes" : "NO (BUG)");

    bench::write_sim_bench_json("BENCH_sim.json", rows, step_reduction_geomean,
                                geomean(kernel_speedups),
                                geomean(multiword_speedups),
                                geomean(cone_speedups));
    const bool ok =
        words_match && !step_reductions.empty() && step_reduction_geomean >= 2.0;
    return ok ? 0 : 1;
}
