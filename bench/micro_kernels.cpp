// A3 — google-benchmark microbenchmarks of the computational kernels under
// the paper's experiments: sLLGS integration, device evaluation, packed
// logic simulation, CNF encoding and SAT solving.
#include <benchmark/benchmark.h>

#include <optional>

#include "attack/oracle.hpp"
#include "camo/cell_library.hpp"
#include "camo/protect.hpp"
#include "common/rng.hpp"
#include "core/gshe_switch.hpp"
#include "core/primitive.hpp"
#include "netlist/corpus.hpp"
#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"
#include "sat/solver.hpp"
#include "sat/tseitin.hpp"
#include "sta/sta.hpp"

namespace {

using namespace gshe;

void BM_LlgsHeunStep(benchmark::State& state) {
    const core::GsheSwitch device;
    auto sys = device.make_system();
    spin::SpinTorque t;
    t.polarization = {1, 0, 0};
    t.spin_current = 20e-6;
    sys.set_torque(0, t);
    Rng rng(1);
    for (auto _ : state) {
        sys.step_heun(1e-12, rng);
        benchmark::DoNotOptimize(sys.m(1));
    }
}
BENCHMARK(BM_LlgsHeunStep);

void BM_SwitchingTransient(benchmark::State& state) {
    const core::GsheSwitch device;
    Rng rng(2);
    for (auto _ : state) {
        Rng trial = rng.fork();
        benchmark::DoNotOptimize(
            device.simulate_switching(60e-6, true, trial));
    }
}
BENCHMARK(BM_SwitchingTransient)->Unit(benchmark::kMicrosecond);

void BM_PrimitiveEval(benchmark::State& state) {
    const core::Primitive prim(core::Bool2::NAND());
    bool a = false, b = true;
    for (auto _ : state) {
        benchmark::DoNotOptimize(prim.eval(a, b));
        a = !a;
        b ^= a;
    }
}
BENCHMARK(BM_PrimitiveEval);

void BM_PackedSimulation(benchmark::State& state) {
    const auto nl = netlist::build_benchmark("c7552");
    const netlist::Simulator sim(nl);
    Rng rng(3);
    std::vector<std::uint64_t> pi(nl.inputs().size());
    for (auto& w : pi) w = rng();
    for (auto _ : state) benchmark::DoNotOptimize(sim.run(pi));
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PackedSimulation);

void BM_ReferenceWalkSimulation(benchmark::State& state) {
    // The pre-SimPlan per-gate topological walk, kept as the executable
    // spec — the baseline the compiled kernel above is measured against.
    const auto nl = netlist::build_benchmark("c7552");
    const netlist::Simulator sim(nl);
    Rng rng(3);
    std::vector<std::uint64_t> pi(nl.inputs().size());
    for (auto& w : pi) w = rng();
    for (auto _ : state) benchmark::DoNotOptimize(sim.run_reference(pi));
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ReferenceWalkSimulation);

void BM_MultiWordSimulation(benchmark::State& state) {
    // One run_words(16) pass = 1024 patterns, the OracleService batch /
    // AppSAT error-estimation sweep shape.
    const auto nl = netlist::build_benchmark("c7552");
    const netlist::Simulator sim(nl);
    constexpr std::size_t kWords = 16;
    Rng rng(5);
    std::vector<std::uint64_t> pi(nl.inputs().size() * kWords);
    for (auto& w : pi) w = rng();
    for (auto _ : state) benchmark::DoNotOptimize(sim.run_words(pi, kWords));
    state.SetItemsProcessed(state.iterations() * 64 * kWords);
}
BENCHMARK(BM_MultiWordSimulation);

void BM_FrontierSweepSingle(benchmark::State& state) {
    // The compact encoder's per-DIP sweep: the cone-restricted sub-plan on
    // a 10%-camouflaged c7552 stand-in, one pattern per call.
    const auto nl = netlist::build_benchmark("c7552");
    const auto sel = camo::select_gates(nl, 0.10, 1);
    const auto prot = camo::apply_camouflage(nl, sel, camo::gshe16(), 1);
    const netlist::Simulator sim(prot.netlist);
    Rng rng(6);
    std::vector<bool> pattern(prot.netlist.inputs().size());
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = (rng() & 1) != 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.run_frontier_single(pattern));
}
BENCHMARK(BM_FrontierSweepSingle);

void BM_FrontierSweepWords(benchmark::State& state) {
    // The batched agreement path: one cone-restricted run_frontier_words(16)
    // serving up to 1024 queued DIP lanes.
    const auto nl = netlist::build_benchmark("c7552");
    const auto sel = camo::select_gates(nl, 0.10, 1);
    const auto prot = camo::apply_camouflage(nl, sel, camo::gshe16(), 1);
    const netlist::Simulator sim(prot.netlist);
    constexpr std::size_t kWords = 16;
    Rng rng(7);
    std::vector<std::uint64_t> pi(prot.netlist.inputs().size() * kWords);
    for (auto& w : pi) w = rng();
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.run_frontier_words(pi, kWords));
    state.SetItemsProcessed(state.iterations() * 64 * kWords);
}
BENCHMARK(BM_FrontierSweepWords);

void BM_TseitinEncode(benchmark::State& state) {
    const auto nl = netlist::build_benchmark("c7552");
    for (auto _ : state) {
        sat::Solver solver;
        benchmark::DoNotOptimize(sat::encode_circuit(solver, nl));
    }
}
BENCHMARK(BM_TseitinEncode)->Unit(benchmark::kMillisecond);

void BM_SatSolveMiter(benchmark::State& state) {
    // One miter solve (first DIP) of a 10%-camouflaged c7552 stand-in.
    const auto nl = netlist::build_benchmark("c7552");
    const auto sel = camo::select_gates(nl, 0.10, 1);
    const auto prot = camo::apply_camouflage(nl, sel, camo::gshe16(), 1);
    for (auto _ : state) {
        sat::Solver solver;
        const auto e1 = sat::encode_circuit(solver, prot.netlist);
        const auto e2 = sat::encode_circuit(solver, prot.netlist, e1.pis);
        sat::add_difference(solver, e1.outs, e2.outs);
        benchmark::DoNotOptimize(solver.solve());
    }
}
BENCHMARK(BM_SatSolveMiter)->Unit(benchmark::kMillisecond);

void BM_PropagateMiter(benchmark::State& state) {
    // Propagation throughput on the BM_SatSolveMiter instance: only the
    // solve is timed (encoding and teardown run paused or after the loop),
    // and the rate counter is the solve's propagations per second. It is
    // the kernel-level view of the end-to-end benchmark's per-layer
    // sat.props_per_s. Recorded only; no gate.
    const auto nl = netlist::build_benchmark("c7552");
    const auto sel = camo::select_gates(nl, 0.10, 1);
    const auto prot = camo::apply_camouflage(nl, sel, camo::gshe16(), 1);
    std::optional<sat::Solver> solver;
    double propagations = 0.0;
    for (auto _ : state) {
        state.PauseTiming();
        solver.emplace();
        const auto e1 = sat::encode_circuit(*solver, prot.netlist);
        const auto e2 = sat::encode_circuit(*solver, prot.netlist, e1.pis);
        sat::add_difference(*solver, e1.outs, e2.outs);
        const auto before = solver->stats().propagations;
        state.ResumeTiming();
        benchmark::DoNotOptimize(solver->solve());
        propagations += static_cast<double>(solver->stats().propagations - before);
    }
    state.counters["props_per_s"] =
        benchmark::Counter(propagations, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PropagateMiter)->Unit(benchmark::kMillisecond);

void BM_StaAnalyze(benchmark::State& state) {
    const auto nl = netlist::build_benchmark("sb18");
    const auto delays = sta::gate_delays(nl);
    for (auto _ : state)
        benchmark::DoNotOptimize(sta::analyze(nl, delays));
}
BENCHMARK(BM_StaAnalyze)->Unit(benchmark::kMillisecond);

void BM_StochasticOracleQuery(benchmark::State& state) {
    const auto nl = netlist::build_benchmark("c7552");
    const auto sel = camo::select_gates(nl, 0.10, 2);
    const auto prot = camo::apply_camouflage(nl, sel, camo::gshe16(), 2);
    attack::StochasticOracle oracle(prot.netlist, 0.95, 3);
    Rng rng(4);
    std::vector<std::uint64_t> pi(nl.inputs().size());
    for (auto& w : pi) w = rng();
    for (auto _ : state) benchmark::DoNotOptimize(oracle.query(pi));
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_StochasticOracleQuery);

}  // namespace

BENCHMARK_MAIN();
