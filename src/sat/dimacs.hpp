#pragma once
// DIMACS CNF import/export and solver-output parsing — the interop layer
// behind the "dimacs" subprocess backend (sat/dimacs_backend.hpp) and a
// debugging aid for the attack miters.

#include <iosfwd>
#include <string>
#include <vector>

#include "sat/backend.hpp"
#include "sat/types.hpp"

namespace gshe::sat {

/// A standalone CNF formula (1-based DIMACS variable numbering kept
/// internally 0-based).
struct CnfFormula {
    int num_vars = 0;
    std::vector<Clause> clauses;
};

/// Parses DIMACS text ("p cnf V C" header plus zero-terminated clauses).
/// Throws std::runtime_error on malformed input: non-cnf formats, headers
/// with the wrong arity ("p cnf 3"), a clause token that is not a whole
/// base-10 int ("x", "3abc", "99999999999"), a variable past 2^30 (whose
/// literal would not fit a Lit code; INT_MIN included), or a clause
/// missing its 0 terminator.
CnfFormula read_dimacs(std::istream& in);
CnfFormula read_dimacs_string(const std::string& text);

/// Writes DIMACS text.
void write_dimacs(std::ostream& out, const CnfFormula& f);

/// Loads a formula into a solver backend (creates vars 0..num_vars-1).
/// Returns false if the formula is trivially unsatisfiable during load.
bool load_into_solver(const CnfFormula& f, SolverBackend& solver);

/// Parsed SAT-competition style solver output: an "s SATISFIABLE" /
/// "s UNSATISFIABLE" status line (bare MiniSat-style "SATISFIABLE" lines
/// are accepted too), a model spread over one or more "v " records
/// terminated by 0, and whatever work counters the solver reports in its
/// comment lines ("c conflicts : 123 ...").
struct SolverOutput {
    SolveResult status = SolveResult::Unknown;
    /// Model by 0-based variable; Undef for variables the solver never
    /// mentioned. Meaningful only for status == Sat.
    std::vector<LBool> model;
    /// True once the model's terminating 0 was seen (a missing terminator
    /// means the output was truncated mid-model).
    bool model_complete = false;
    /// Work counters scraped from comment lines; zero when unreported.
    SolverStats stats;
};

/// `num_vars` is the variable count of the formula the solver was given.
/// The text comes from another process, so it is untrusted: a model token
/// that is not a whole base-10 int, or a literal naming a variable outside
/// 1..num_vars, throws std::runtime_error (the model never grows past
/// num_vars entries).
SolverOutput parse_solver_output(std::istream& in, int num_vars);
SolverOutput parse_solver_output_string(const std::string& text,
                                        int num_vars);

}  // namespace gshe::sat
