#include "attack/miter_detail.hpp"

#include "attack/sat_attack.hpp"

namespace gshe::attack::detail {

std::unique_ptr<sat::SolverBackend> make_attack_solver(
    const AttackOptions& options) {
    // The attack seed (engine-derived, per job) rides into the solver
    // options: the portfolio backend diversifies its workers from it, so a
    // job's portfolio is a pure function of its derived seed. The internal
    // backend draws nothing from it under default options.
    sat::SolverOptions solver_opts = options.solver;
    solver_opts.seed = options.seed;
    return sat::make_backend(options.solver_backend, solver_opts);
}

void pin_off_support_inputs(sat::SolverBackend& solver,
                            const netlist::Netlist& camo_nl,
                            const std::vector<sat::Var>& pis) {
    const std::vector<char>& support = camo_nl.key_support();
    const std::vector<netlist::GateId>& inputs = camo_nl.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i)
        if (support[inputs[i]] == 0)
            solver.add_clause(sat::Lit(pis[i], true));  // pin to 0
}

void capture_solver_identity(AttackResult& res,
                             const sat::SolverBackend& solver) {
    res.portfolio_width = solver.portfolio_width();
    res.portfolio_winner = solver.portfolio_last_winner();
}

void set_remaining_budget(sat::SolverBackend& solver,
                          const AttackOptions& options, const Timer& timer) {
    solver.set_budget(options.timeout_seconds - timer.seconds(),
                      options.max_conflicts);
}

std::vector<bool> model_values(const sat::SolverBackend& solver,
                               const std::vector<sat::Var>& vars) {
    std::vector<bool> out(vars.size());
    for (std::size_t i = 0; i < vars.size(); ++i)
        out[i] = solver.model_bool(vars[i]);
    return out;
}

std::optional<camo::Key> extract_key(sat::SolverBackend& solver,
                                     const std::vector<sat::Var>& keys,
                                     sat::Lit guard,
                                     const AttackOptions& options,
                                     const Timer& timer, bool* timed_out) {
    if (timed_out != nullptr) *timed_out = false;
    set_remaining_budget(solver, options, timer);
    switch (solver.solve({~guard})) {
        case sat::SolveResult::Sat: {
            camo::Key key;
            key.bits = model_values(solver, keys);
            return key;
        }
        case sat::SolveResult::Unsat:
            return std::nullopt;
        case sat::SolveResult::Unknown:
            if (timed_out != nullptr) *timed_out = true;
            return std::nullopt;
    }
    return std::nullopt;
}

void finish_by_extraction(AttackResult& res, sat::SolverBackend& solver,
                          const std::vector<sat::Var>& keys, sat::Lit guard,
                          const AttackOptions& options, const Timer& timer) {
    bool timed_out = false;
    const std::optional<camo::Key> key =
        extract_key(solver, keys, guard, options, timer, &timed_out);
    if (key) {
        res.status = AttackResult::Status::Success;
        res.key = *key;
    } else {
        res.status = timed_out ? AttackResult::Status::TimedOut
                               : AttackResult::Status::Inconsistent;
    }
}

AttackResult run_single_dip_loop(const netlist::Netlist& camo_nl,
                                 Oracle& oracle, const AttackOptions& options,
                                 const Timer& timer, History& history,
                                 std::size_t prior_iterations) {
    AttackResult res;
    res.iterations = prior_iterations;

    const std::unique_ptr<sat::SolverBackend> solver_ptr =
        make_attack_solver(options);
    sat::SolverBackend& solver = *solver_ptr;
    sat::CircuitEncoder encoder(solver);
    const auto enc1 = encoder.encode(camo_nl);
    const auto enc2 = encoder.encode(camo_nl, enc1.pis);
    // The difference rides a selector literal, so the one solver serves
    // both faces of the attack: DIP solves assume {guard}, key extraction
    // assumes {~guard}.
    const sat::Lit guard(solver.new_var(), false);
    encoder.add_difference(enc1.outs, enc2.outs, guard);
    pin_off_support_inputs(solver, camo_nl, enc1.pis);
    encoder.add_agreement_batch(camo_nl, {enc1.keys, enc2.keys},
                                history.inputs, history.outputs);

    while (true) {
        if (res.iterations >= options.max_iterations) {
            res.status = AttackResult::Status::IterationCap;
            break;
        }
        if (options.timeout_seconds - timer.seconds() <= 0.0) {
            res.status = AttackResult::Status::TimedOut;
            break;
        }
        set_remaining_budget(solver, options, timer);

        const auto r = solver.solve({guard});
        if (r == sat::SolveResult::Unknown) {
            res.status = AttackResult::Status::TimedOut;
            break;
        }
        if (r == sat::SolveResult::Unsat) {
            // No distinguishing input remains: extract any consistent key.
            finish_by_extraction(res, solver, enc1.keys, guard, options, timer);
            break;
        }

        // A DIP was found: query the oracle and pin both key copies to it.
        ++res.iterations;
        std::vector<bool> dip = model_values(solver, enc1.pis);
        std::vector<bool> response = oracle.query_single(dip);
        encoder.add_agreement_pair(camo_nl, enc1.keys, enc2.keys, dip,
                                   response);
        history.add(std::move(dip), std::move(response));
    }

    res.solver_stats = solver.stats();
    capture_solver_identity(res, solver);
    sat::accumulate(res.encoder_stats, encoder.stats());
    return res;
}

void finalize_result(AttackResult& res, const netlist::Netlist& nl,
                     const Oracle& oracle, const AttackOptions& options,
                     const Timer& timer) {
    res.seconds = timer.seconds();
    res.oracle_patterns = oracle.patterns_queried();
    if (res.status == AttackResult::Status::Success) {
        res.key_error_rate = key_error_rate(nl, res.key, options.verify_patterns,
                                            options.verify_seed);
        res.key_exact = res.key_error_rate == 0.0;
    }
}

}  // namespace gshe::attack::detail
