#include "sat/dimacs_backend.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/timer.hpp"

namespace gshe::sat {

namespace {

/// Creates a unique temp file via mkstemp and returns its path (the
/// descriptor is closed; the exporter reopens by name).
std::string make_temp_cnf_path() {
    std::string templ = "/tmp/gshe_dimacs_XXXXXX";
    const char* tmpdir = std::getenv("TMPDIR");
    if (tmpdir != nullptr && *tmpdir != '\0')
        templ = std::string(tmpdir) + "/gshe_dimacs_XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    const int fd = ::mkstemp(buf.data());
    if (fd < 0)
        throw std::runtime_error("dimacs backend: mkstemp failed for " + templ);
    ::close(fd);
    return std::string(buf.data());
}

struct RunOutcome {
    /// Shell exit code; -1 when the fork/exec plumbing itself failed or the
    /// child died on a signal we did not send.
    int exit_code = -1;
    /// True when the wall-clock deadline expired and the child was killed.
    bool deadline_expired = false;
};

/// Runs `command` through /bin/sh in its own process group, capturing
/// stdout, with the wall-clock deadline enforced in-process: the parent
/// polls the output pipe against a monotonic timer and SIGKILLs the whole
/// process group on expiry (no dependency on a coreutils `timeout` binary
/// being on PATH). Solvers signal SAT/UNSAT via output, not exit codes,
/// but the shell's 126/127 codes are the only way to tell "no such binary"
/// apart from a solver that timed out — the caller must not fold them into
/// Unknown.
RunOutcome run_and_capture(const std::string& command, double deadline_seconds,
                           std::string& stdout_text) {
    RunOutcome outcome;
    int fds[2];
    if (::pipe(fds) != 0) return outcome;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return outcome;
    }
    if (pid == 0) {
        // Child: own process group, so the kill on expiry reaps the solver
        // the shell spawned, not just the shell.
        ::setpgid(0, 0);
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execl("/bin/sh", "sh", "-c", command.c_str(),
                static_cast<char*>(nullptr));
        ::_exit(127);
    }
    ::close(fds[1]);
    const bool bounded = std::isfinite(deadline_seconds);
    Timer timer;
    bool killed = false;
    char chunk[4096];
    while (true) {
        if (bounded && !killed && timer.seconds() > deadline_seconds) {
            // Group kill; direct kill as fallback for the narrow window
            // before the child's setpgid has run.
            if (::kill(-pid, SIGKILL) != 0) ::kill(pid, SIGKILL);
            killed = true;
        }
        // Poll in short slices so the deadline check above stays live even
        // while the solver is silent.
        struct pollfd pfd = {fds[0], POLLIN, 0};
        const int ready = ::poll(&pfd, 1, killed || !bounded ? 200 : 50);
        if (ready < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (ready == 0) {
            if (killed) break;  // child killed; nothing more is coming
            continue;
        }
        const ssize_t n = ::read(fds[0], chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (n == 0) break;  // EOF: the child closed its end
        stdout_text.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    outcome.deadline_expired = killed;
    if (!killed && WIFEXITED(wstatus)) outcome.exit_code = WEXITSTATUS(wstatus);
    return outcome;
}

std::string shell_quote(const std::string& s) {
    std::string quoted = "'";
    for (const char c : s) {
        if (c == '\'')
            quoted += "'\\''";
        else
            quoted += c;
    }
    quoted += "'";
    return quoted;
}

}  // namespace

DimacsBackend::DimacsBackend(std::string command, SolverOptions opts)
    : command_(std::move(command)), opts_(opts) {
    if (command_.empty())
        throw std::invalid_argument("dimacs backend: empty solver command");
}

const std::string& DimacsBackend::backend_name() const {
    static const std::string name = "dimacs";
    return name;
}

Var DimacsBackend::new_var() { return cnf_.num_vars++; }

bool DimacsBackend::add_clause(Clause c) {
    if (c.empty()) ok_ = false;
    for (const Lit l : c)
        if (l.var() >= cnf_.num_vars) cnf_.num_vars = l.var() + 1;
    cnf_.clauses.push_back(std::move(c));
    return ok_;
}

LBool DimacsBackend::model_value(Var v) const {
    const auto i = static_cast<std::size_t>(v);
    return i < model_.size() ? model_[i] : LBool::Undef;
}

SolveResult DimacsBackend::solve(const std::vector<Lit>& assumptions) {
    model_.clear();
    if (!ok_) return SolveResult::Unsat;
    if (budget_.max_seconds <= 0.0) return SolveResult::Unknown;

    // Re-encode the full problem; assumptions become unit clauses of this
    // solve only (the non-incremental protocol). Streamed straight to the
    // file — no CNF copy, no intermediate string — since this runs once
    // per DIP-loop solve on formulas that can reach tens of MB.
    Timer encode_timer;
    const std::string path = make_temp_cnf_path();
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << "p cnf " << cnf_.num_vars << ' '
          << cnf_.clauses.size() + assumptions.size() << '\n';
        for (const Clause& c : cnf_.clauses) {
            for (const Lit l : c)
                f << (l.negated() ? -(l.var() + 1) : l.var() + 1) << ' ';
            f << "0\n";
        }
        for (const Lit a : assumptions)
            f << (a.negated() ? -(a.var() + 1) : a.var() + 1) << " 0\n";
        f.flush();
        if (!f.good()) {
            std::remove(path.c_str());
            throw std::runtime_error("dimacs backend: cannot write " + path);
        }
        const auto bytes = f.tellp();
        if (bytes > 0) sub_.encoded_bytes += static_cast<std::uint64_t>(bytes);
    }
    sub_.encoded_clauses += cnf_.clauses.size() + assumptions.size();
    sub_.encode_seconds += encode_timer.seconds();

    // Wall-clock budget is enforced in-process by run_and_capture (fork +
    // poll against a monotonic deadline, SIGKILL on expiry) — no reliance
    // on a coreutils `timeout` binary being installed.
    const std::string command =
        command_ + " " + shell_quote(path) + " 2>/dev/null";

    Timer solve_timer;
    std::string output;
    const RunOutcome outcome =
        run_and_capture(command, budget_.max_seconds, output);
    sub_.solve_seconds += solve_timer.seconds();
    ++sub_.solves;
    std::remove(path.c_str());
    // 127/126 are the shell's "not found"/"not executable" — a
    // misconfigured GSHE_DIMACS_SOLVER must fail loudly, not masquerade as
    // a campaign full of timeout cells. A launch-plumbing failure (fork or
    // pipe) is equally loud. Any other non-zero exit is judged by the
    // output below; a deadline kill is the budget-style Unknown.
    if (outcome.deadline_expired) return SolveResult::Unknown;
    if (outcome.exit_code == 127 || outcome.exit_code == 126)
        throw std::runtime_error(
            "dimacs backend: solver command failed to launch (shell exit " +
            std::to_string(outcome.exit_code) + "): " + command_);
    if (outcome.exit_code < 0)
        throw std::runtime_error(
            "dimacs backend: could not run solver subprocess (fork/pipe "
            "failed or the child died on an unexpected signal): " +
            command_);

    const SolverOutput parsed =
        parse_solver_output_string(output, cnf_.num_vars);
    stats_.conflicts += parsed.stats.conflicts;
    stats_.decisions += parsed.stats.decisions;
    stats_.propagations += parsed.stats.propagations;
    stats_.restarts += parsed.stats.restarts;

    if (parsed.status == SolveResult::Sat) {
        // A Sat claim is only usable with its full model: a solver killed
        // mid-"v"-record (or one that never prints models, like bare
        // MiniSat writing to an output file) would otherwise read as an
        // all-false assignment and corrupt the DIP loop. Treat it as a
        // budget-style Unknown instead.
        if (!parsed.model_complete) return SolveResult::Unknown;
        model_ = parsed.model;
        if (model_.size() < static_cast<std::size_t>(cnf_.num_vars))
            model_.resize(static_cast<std::size_t>(cnf_.num_vars),
                          LBool::Undef);
        return SolveResult::Sat;
    }
    return parsed.status;
}

}  // namespace gshe::sat
