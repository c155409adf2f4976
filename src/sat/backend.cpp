#include "sat/backend.hpp"

#include <cstdlib>
#include <stdexcept>

#include "sat/dimacs_backend.hpp"
#include "sat/solver.hpp"

namespace gshe::sat {

namespace {

const char* dimacs_command() {
    const char* cmd = std::getenv(kDimacsSolverEnv);
    return (cmd != nullptr && *cmd != '\0') ? cmd : nullptr;
}

class InternalFactory final : public BackendFactory {
public:
    const std::string& name() const override {
        static const std::string n = "internal";
        return n;
    }
    const std::string& label() const override {
        static const std::string l =
            "in-tree incremental CDCL solver (deterministic)";
        return l;
    }
    bool available() const override { return true; }
    std::unique_ptr<SolverBackend> create(
        const SolverOptions& opts) const override {
        return std::make_unique<Solver>(opts);
    }
};

class DimacsFactory final : public BackendFactory {
public:
    const std::string& name() const override {
        static const std::string n = "dimacs";
        return n;
    }
    const std::string& label() const override {
        static const std::string l =
            "external MiniSat/CryptoMiniSat-compatible binary via DIMACS "
            "(set GSHE_DIMACS_SOLVER)";
        return l;
    }
    bool available() const override { return dimacs_command() != nullptr; }
    std::unique_ptr<SolverBackend> create(
        const SolverOptions& opts) const override {
        const char* cmd = dimacs_command();
        if (cmd == nullptr)
            throw std::runtime_error(
                "solver backend 'dimacs' is not configured: set " +
                std::string(kDimacsSolverEnv) +
                " to a MiniSat/CryptoMiniSat-compatible command");
        return std::make_unique<DimacsBackend>(cmd, opts);
    }
};

const std::vector<std::unique_ptr<BackendFactory>>& registry() {
    static const auto* backends = [] {
        auto* v = new std::vector<std::unique_ptr<BackendFactory>>();
        v->push_back(std::make_unique<InternalFactory>());
        v->push_back(std::make_unique<DimacsFactory>());
        return v;
    }();
    return *backends;
}

}  // namespace

void accumulate(SolverStats& into, const SolverStats& from) {
    into.decisions += from.decisions;
    into.propagations += from.propagations;
    into.conflicts += from.conflicts;
    into.restarts += from.restarts;
    into.learnt_clauses += from.learnt_clauses;
    into.removed_clauses += from.removed_clauses;
    into.inprocessings += from.inprocessings;
    into.gc_runs += from.gc_runs;
    into.vivified_lits += from.vivified_lits;
    into.xors_recovered += from.xors_recovered;
    into.eliminated_vars += from.eliminated_vars;
}

const BackendFactory* find_backend(const std::string& name) {
    for (const auto& backend : registry())
        if (backend->name() == name) return backend.get();
    return nullptr;
}

const BackendFactory& backend_by_name(const std::string& name) {
    const BackendFactory* backend = find_backend(name);
    if (backend == nullptr) {
        std::string registered;
        for (const auto& b : registry()) {
            if (!registered.empty()) registered += ", ";
            registered += b->name();
        }
        throw std::invalid_argument("unknown solver backend: " + name +
                                    " (registered: " + registered + ")");
    }
    return *backend;
}

std::vector<std::string> backend_names() {
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto& backend : registry()) names.push_back(backend->name());
    return names;
}

std::unique_ptr<SolverBackend> make_backend(const std::string& name,
                                            const SolverOptions& opts) {
    return backend_by_name(name).create(opts);
}

}  // namespace gshe::sat
