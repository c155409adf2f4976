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
#include "sat/encoder.hpp"
#include "sat/solver.hpp"
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
    // The CNF encoder's per-DIP sweep: the cone-restricted sub-plan on
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

void BM_CircuitEncode(benchmark::State& state) {
    const auto nl = netlist::build_benchmark("c7552");
    for (auto _ : state) {
        sat::Solver solver;
        sat::CircuitEncoder encoder(solver);
        benchmark::DoNotOptimize(encoder.encode(nl));
    }
}
BENCHMARK(BM_CircuitEncode)->Unit(benchmark::kMillisecond);

/// The closing miter of a SAT attack on a 10%-camouflaged c7552 stand-in:
/// two copies sharing the primary inputs, outputs forced to differ, plus
/// the agreements of every DIP the attack found. Its solve is the attack's
/// final Unsat proof (about 2M propagations and 16k conflicts). The
/// first-DIP miter alone is no longer a solver workload: its propagation-
/// complete CNF finishes in a few conflicts.
class ClosingMiter {
public:
    ClosingMiter() {
        const auto nl = netlist::build_benchmark("c7552");
        const auto sel = camo::select_gates(nl, 0.10, 1);
        camo_nl_ = camo::apply_camouflage(nl, sel, camo::gshe16(), 1).netlist;
        // Run the DIP loop once to collect the observations.
        attack::ExactOracle oracle(camo_nl_);
        sat::Solver solver;
        sat::CircuitEncoder encoder(solver);
        const auto e1 = encoder.encode(camo_nl_);
        const auto e2 = encoder.encode(camo_nl_, e1.pis);
        encoder.add_difference(e1.outs, e2.outs);
        while (solver.solve() == sat::SolveResult::Sat) {
            std::vector<bool> x;
            for (const sat::Var v : e1.pis) x.push_back(solver.model_bool(v));
            ys_.push_back(oracle.query_single(x));
            xs_.push_back(std::move(x));
            encoder.add_agreement_pair(camo_nl_, e1.keys, e2.keys, xs_.back(),
                                       ys_.back());
        }
    }

    void encode(sat::Solver& solver) const {
        sat::CircuitEncoder encoder(solver);
        const auto e1 = encoder.encode(camo_nl_);
        const auto e2 = encoder.encode(camo_nl_, e1.pis);
        encoder.add_difference(e1.outs, e2.outs);
        for (std::size_t i = 0; i < xs_.size(); ++i)
            encoder.add_agreement_pair(camo_nl_, e1.keys, e2.keys, xs_[i], ys_[i]);
    }

private:
    netlist::Netlist camo_nl_;
    std::vector<std::vector<bool>> xs_;
    std::vector<std::vector<bool>> ys_;
};

const ClosingMiter& closing_miter() {
    static const ClosingMiter miter;
    return miter;
}

void BM_SatSolveMiter(benchmark::State& state) {
    const ClosingMiter& miter = closing_miter();
    for (auto _ : state) {
        sat::Solver solver;
        miter.encode(solver);
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
    const ClosingMiter& miter = closing_miter();
    std::optional<sat::Solver> solver;
    double propagations = 0.0;
    for (auto _ : state) {
        state.PauseTiming();
        solver.emplace();
        miter.encode(*solver);
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
