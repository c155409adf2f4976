#pragma once
// The executor's per-reuse-key cell for sibling-seed result reuse: a small
// mutex-guarded state machine {open -> running -> done} that never blocks a
// caller for longer than its own critical section.
//
//   open     arrive() makes the caller the donor (-> running); it runs the
//            work itself.
//   running  arrive() parks the caller's follower in the cell and returns
//            at once, so the caller's worker can take other work.
//            complete() stores the donor's result (-> done) and hands back
//            every parked follower, each exactly once, for the donor's
//            worker to finish with that result. abandon() (the donor threw)
//            reopens the cell (-> open) and hands the followers back
//            instead; the caller re-arrives them, so the first becomes the
//            new donor and a failed run is never copied.
//   done     arrive() tells the caller to copy result().
//
// The cell knows nothing of attacks or jobs: Result is what a donor hands
// its siblings, Follower whatever a parked caller needs to be finished
// later.

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace gshe::engine {

template <class Result, class Follower>
class ReuseCell {
public:
    enum class Arrival {
        Donor,     ///< the cell was open: run the work, then complete/abandon
        Deferred,  ///< a donor is running: the follower is parked in the cell
        Done,      ///< a donor finished: copy result()
    };

    /// Moves `follower` into the cell only when it returns Deferred (like
    /// try_emplace, the argument is left untouched otherwise).
    Arrival arrive(Follower&& follower) {
        const std::lock_guard<std::mutex> lock(mutex_);
        switch (state_) {
            case State::Open:
                state_ = State::Running;
                return Arrival::Donor;
            case State::Running:
                followers_.push_back(std::move(follower));
                return Arrival::Deferred;
            case State::Done:
                break;
        }
        return Arrival::Done;
    }

    /// running -> done. Returns the parked followers; later arrivals get
    /// Done.
    std::vector<Follower> complete(Result result) {
        const std::lock_guard<std::mutex> lock(mutex_);
        expect_running("complete");
        result_ = std::move(result);
        state_ = State::Done;
        return std::exchange(followers_, {});
    }

    /// running -> open: the donor failed. Returns the parked followers for
    /// the caller to re-arrive.
    std::vector<Follower> abandon() {
        const std::lock_guard<std::mutex> lock(mutex_);
        expect_running("abandon");
        state_ = State::Open;
        return std::exchange(followers_, {});
    }

    /// The donor's result. Valid once an arrive() has returned Done; it
    /// never changes after that, so it is read without the lock.
    const Result& result() const { return result_; }

private:
    enum class State : std::uint8_t { Open, Running, Done };

    void expect_running(const char* what) const {
        if (state_ != State::Running)
            throw std::logic_error(std::string("ReuseCell::") + what +
                                   ": no donor is running");
    }

    std::mutex mutex_;
    State state_ = State::Open;
    std::vector<Follower> followers_;
    Result result_{};
};

}  // namespace gshe::engine
