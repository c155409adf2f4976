#include "attack/double_dip.hpp"

#include "attack/miter_detail.hpp"
#include "attack/sat_attack.hpp"
#include "common/timer.hpp"

namespace gshe::attack {

using detail::History;

AttackResult double_dip_attack(const netlist::Netlist& camo_nl, Oracle& oracle,
                               const AttackOptions& options) {
    Timer timer;
    AttackResult res;
    if (camo_nl.camo_cells().empty()) {
        res.status = AttackResult::Status::Success;
        res.seconds = timer.seconds();
        res.key_error_rate = 0.0;
        res.key_exact = true;
        return res;
    }

    // Phase 1: 2-DIP miter. Four circuit copies share the inputs; pairs
    // (k1,k2) and (k3,k4) each disagree; all cross pairs are distinct keys.
    const std::unique_ptr<sat::SolverBackend> solver_ptr =
        detail::make_attack_solver(options);
    sat::SolverBackend& solver = *solver_ptr;
    sat::CircuitEncoder encoder(solver);
    const auto enc1 = encoder.encode(camo_nl);
    const auto enc2 = encoder.encode(camo_nl, enc1.pis);
    const auto enc3 = encoder.encode(camo_nl, enc1.pis);
    const auto enc4 = encoder.encode(camo_nl, enc1.pis);
    encoder.add_difference(enc1.outs, enc2.outs);
    encoder.add_difference(enc3.outs, enc4.outs);
    encoder.add_difference(enc1.keys, enc3.keys);
    encoder.add_difference(enc1.keys, enc4.keys);
    encoder.add_difference(enc2.keys, enc3.keys);
    encoder.add_difference(enc2.keys, enc4.keys);

    History history;
    while (true) {
        if (res.iterations >= options.max_iterations) {
            res.status = AttackResult::Status::IterationCap;
            res.solver_stats = solver.stats();
            sat::accumulate(res.encoder_stats, encoder.stats());
            detail::finalize_result(res, camo_nl, oracle, options, timer);
            return res;
        }
        if (options.timeout_seconds - timer.seconds() <= 0.0) {
            res.status = AttackResult::Status::TimedOut;
            res.solver_stats = solver.stats();
            sat::accumulate(res.encoder_stats, encoder.stats());
            detail::finalize_result(res, camo_nl, oracle, options, timer);
            return res;
        }
        detail::set_remaining_budget(solver, options, timer);

        const auto r = solver.solve();
        if (r == sat::SolveResult::Unknown) {
            res.status = AttackResult::Status::TimedOut;
            res.solver_stats = solver.stats();
            sat::accumulate(res.encoder_stats, encoder.stats());
            detail::finalize_result(res, camo_nl, oracle, options, timer);
            return res;
        }
        if (r == sat::SolveResult::Unsat) break;  // no 2-DIP remains

        ++res.iterations;
        std::vector<bool> dip = detail::model_values(solver, enc1.pis);
        std::vector<bool> response = oracle.query_single(dip);
        // Two pair agreements instead of four singles: the encoder simulates
        // the DIP once per pair, with an unchanged clause stream.
        encoder.add_agreement_pair(camo_nl, enc1.keys, enc2.keys, dip,
                                   response);
        encoder.add_agreement_pair(camo_nl, enc3.keys, enc4.keys, dip,
                                   response);
        history.add(std::move(dip), std::move(response));
    }

    // Phase 2: fewer than two eliminable keys remain; the standard
    // single-DIP loop finishes the job, seeded with the phase-1
    // observations.
    AttackResult final_res = detail::run_single_dip_loop(
        camo_nl, oracle, options, timer, history, res.iterations);
    sat::accumulate(final_res.solver_stats, solver.stats());
    sat::accumulate(final_res.encoder_stats, encoder.stats());
    detail::finalize_result(final_res, camo_nl, oracle, options, timer);
    return final_res;
}

}  // namespace gshe::attack
