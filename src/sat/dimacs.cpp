#include "sat/dimacs.hpp"

#include <cctype>
#include <charconv>
#include <climits>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace gshe::sat {

namespace {

/// Largest 1-based DIMACS variable whose literals still fit a Lit code
/// (2 * var + 1 <= INT_MAX for the 0-based var).
constexpr int kMaxDimacsVar = INT_MAX / 2 + 1;

/// Parses a whole token as a base-10 DIMACS literal in
/// [-kMaxDimacsVar, kMaxDimacsVar]. Anything else (trailing junk, a value
/// outside the range, INT_MIN included) throws std::runtime_error naming
/// `what`.
int parse_literal(const std::string& tok, const char* what) {
    int v = 0;
    const char* const end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
    if (ec != std::errc() || ptr != end || v < -kMaxDimacsVar ||
        v > kMaxDimacsVar)
        throw std::runtime_error(std::string(what) + ": bad literal '" + tok +
                                 "'");
    return v;
}

}  // namespace

CnfFormula read_dimacs(std::istream& in) {
    CnfFormula f;
    std::string tok;
    int expected_clauses = -1;
    Clause current;
    while (in >> tok) {
        if (tok == "c") {
            std::string rest;
            std::getline(in, rest);
            continue;
        }
        if (tok == "p") {
            // The header is line-scoped: parse the remainder of its line so
            // a wrong-arity header ("p cnf 3") cannot silently swallow the
            // first clause token as its clause count.
            std::string rest;
            std::getline(in, rest);
            std::istringstream header(rest);
            std::string fmt;
            header >> fmt;
            if (fmt != "cnf")
                throw std::runtime_error("dimacs: unsupported format " + fmt);
            if (!(header >> f.num_vars >> expected_clauses))
                throw std::runtime_error(
                    "dimacs: malformed header (expected \"p cnf V C\")");
            if (f.num_vars < 0 || expected_clauses < 0)
                throw std::runtime_error("dimacs: negative header counts");
            if (f.num_vars > kMaxDimacsVar)
                throw std::runtime_error("dimacs: too many variables");
            continue;
        }
        const int v = parse_literal(tok, "dimacs");
        if (v == 0) {
            f.clauses.push_back(current);
            current.clear();
        } else {
            const Var var = std::abs(v) - 1;
            if (var >= f.num_vars) f.num_vars = var + 1;
            current.push_back(Lit(var, v < 0));
        }
    }
    if (!current.empty())
        throw std::runtime_error("dimacs: clause not zero-terminated");
    return f;
}

CnfFormula read_dimacs_string(const std::string& text) {
    std::istringstream in(text);
    return read_dimacs(in);
}

void write_dimacs(std::ostream& out, const CnfFormula& f) {
    out << "p cnf " << f.num_vars << ' ' << f.clauses.size() << '\n';
    for (const Clause& c : f.clauses) {
        for (Lit l : c) out << (l.negated() ? -(l.var() + 1) : l.var() + 1) << ' ';
        out << "0\n";
    }
}

bool load_into_solver(const CnfFormula& f, SolverBackend& solver) {
    while (solver.num_vars() < f.num_vars) solver.new_var();
    for (const Clause& c : f.clauses)
        if (!solver.add_clause(c)) return false;
    return true;
}

namespace {

/// Scans a comment/stat line for "<key> ... : <number>" (the shape both
/// MiniSat's and CryptoMiniSat's end-of-run statistics use) and adds the
/// number to *counter. Lenient by design: absent keys leave counters alone.
void scrape_counter(const std::string& line, const char* key,
                    std::uint64_t* counter) {
    const std::size_t at = line.find(key);
    if (at == std::string::npos) return;
    std::size_t i = at + std::string(key).size();
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || line[i] != ':') return;
    ++i;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || !std::isdigit(static_cast<unsigned char>(line[i])))
        return;
    *counter += std::strtoull(line.c_str() + i, nullptr, 10);
}

}  // namespace

SolverOutput parse_solver_output(std::istream& in, int num_vars) {
    SolverOutput out;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;

        // Status: "s SATISFIABLE" (SAT competition) or a bare
        // "SATISFIABLE" line (MiniSat's stdout).
        std::string status;
        if (line.rfind("s ", 0) == 0)
            status = line.substr(2);
        else if (line == "SATISFIABLE" || line == "UNSATISFIABLE" ||
                 line == "INDETERMINATE" || line == "UNKNOWN")
            status = line;
        if (!status.empty()) {
            while (!status.empty() && status.back() == ' ') status.pop_back();
            if (status == "SATISFIABLE")
                out.status = SolveResult::Sat;
            else if (status == "UNSATISFIABLE")
                out.status = SolveResult::Unsat;
            else
                out.status = SolveResult::Unknown;
            continue;
        }

        // Model: one or more "v " records, 0-terminated. MiniSat writes the
        // same "<lit>... 0" payload without the prefix into its output file;
        // accept both by treating any line that parses as literals as model
        // content once a SAT status or "v" record has been seen.
        std::string payload;
        if (line.rfind("v ", 0) == 0 || line == "v") {
            payload = line.size() > 1 ? line.substr(2) : "";
        } else if (line.rfind("c", 0) == 0) {
            scrape_counter(line, "conflicts", &out.stats.conflicts);
            scrape_counter(line, "decisions", &out.stats.decisions);
            scrape_counter(line, "propagations", &out.stats.propagations);
            scrape_counter(line, "restarts", &out.stats.restarts);
            continue;
        } else if (out.status == SolveResult::Sat && !out.model_complete &&
                   (line[0] == '-' ||
                    std::isdigit(static_cast<unsigned char>(line[0])))) {
            payload = line;
        } else {
            // MiniSat-style statistics lines carry no "c" prefix.
            scrape_counter(line, "conflicts", &out.stats.conflicts);
            scrape_counter(line, "decisions", &out.stats.decisions);
            scrape_counter(line, "propagations", &out.stats.propagations);
            scrape_counter(line, "restarts", &out.stats.restarts);
            continue;
        }

        std::istringstream lits(payload);
        std::string tok;
        while (lits >> tok) {
            const int v = parse_literal(tok, "solver output");
            if (v == 0) {
                out.model_complete = true;
                break;
            }
            const int var = std::abs(v) - 1;
            if (var >= num_vars)
                throw std::runtime_error(
                    "solver output: literal " + tok +
                    " names a variable outside the formula's " +
                    std::to_string(num_vars) + " variables");
            if (out.model.size() <= static_cast<std::size_t>(var))
                out.model.resize(static_cast<std::size_t>(var) + 1,
                                 LBool::Undef);
            out.model[static_cast<std::size_t>(var)] =
                v > 0 ? LBool::True : LBool::False;
        }
    }
    return out;
}

SolverOutput parse_solver_output_string(const std::string& text,
                                        int num_vars) {
    std::istringstream in(text);
    return parse_solver_output(in, num_vars);
}

}  // namespace gshe::sat
