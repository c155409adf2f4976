#pragma once
// The benchmark's own measuring tools: in-memory spans with self-time
// accounting, the order statistics it reports, and the timing Oracle
// decorator the traced pass hands to the attacks. Everything here is
// checked by campaign_bench's self-test on every run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "attack/oracle.hpp"

namespace perfbench {

/// One timed call at a layer boundary. Times are seconds since the trace's
/// origin; `parent` is the index of the enclosing span (-1 for a root) and
/// `job` the plan index the call worked for.
struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::size_t job = 0;

    double duration() const { return end - start; }
};

/// Spans kept in memory and written out once the run ends.
class Trace {
public:
    Trace() : origin_(clock::now()) {}

    int open(const char* name, int parent, std::size_t job) {
        spans_.push_back(Span{name, now(), 0.0, parent, job});
        return static_cast<int>(spans_.size()) - 1;
    }
    void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

    /// Adds an already-timed span (used by the self-test).
    int add(Span span) {
        spans_.push_back(span);
        return static_cast<int>(spans_.size()) - 1;
    }

    const std::vector<Span>& spans() const { return spans_; }

private:
    using clock = std::chrono::steady_clock;
    double now() const {
        return std::chrono::duration<double>(clock::now() - origin_).count();
    }

    clock::time_point origin_;
    std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class Scope {
public:
    Scope(Trace& trace, const char* name, int parent, std::size_t job)
        : trace_(trace), id_(trace.open(name, parent, job)) {}
    ~Scope() { trace_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int id() const { return id_; }

private:
    Trace& trace_;
    int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once, and
/// a child running past its parent's end counts only inside the parent).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const Span& s : spans)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                      s.end);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = children[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double reach = spans[i].start;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            b = std::min(b, spans[i].end);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[i] = spans[i].duration() - covered;
    }
    return self;
}

inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]) of a non-empty sample.
inline double percentile(std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t r = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::max(rank, 1.0)), 1, v.size());
    return v[r - 1];
}

/// The highest whole percentile a sample of n values supports: the largest
/// p whose nearest rank leaves at least ten samples beyond it. Empty when
/// n <= 10, where no percentile has ten samples beyond it.
inline std::optional<int> tail_percentile(std::size_t n) {
    for (int p = 99; p >= 1; --p) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        if (rank >= 1 && n - rank >= 10) return p;
    }
    return std::nullopt;
}

/// Share of a pool's capacity (threads x wall seconds) that no job used.
inline double pool_idle_share(const std::vector<double>& job_seconds,
                              int threads, double wall_seconds) {
    double busy = 0.0;
    for (const double s : job_seconds) busy += s;
    return 1.0 - busy / (static_cast<double>(threads) * wall_seconds);
}

/// FNV-1a over a byte string: the determinism digest of a campaign CSV.
inline std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

/// Oracle decorator for the traced pass: records one "attack.oracle" span
/// per query and forwards the determinism contract and the epoch hooks, so
/// a memo in front of it sees exactly the oracle it wraps.
class TimedOracle final : public gshe::attack::Oracle {
public:
    TimedOracle(gshe::attack::Oracle& inner, Trace& trace, int parent,
                std::size_t job)
        : inner_(inner), trace_(trace), parent_(parent), job_(job) {}

    gshe::attack::OracleContract contract() const override {
        return inner_.contract();
    }
    std::uint64_t cache_epoch() override { return inner_.cache_epoch(); }
    void on_cache_hit() override { inner_.on_cache_hit(); }
    std::uint64_t epochs_elapsed() const override {
        return inner_.epochs_elapsed();
    }

protected:
    std::vector<std::uint64_t> evaluate(
        std::span<const std::uint64_t> pi_words) override {
        const Scope span(trace_, "attack.oracle", parent_, job_);
        return inner_.query(pi_words);
    }

private:
    gshe::attack::Oracle& inner_;
    Trace& trace_;
    int parent_;
    std::size_t job_;
};

}  // namespace perfbench
