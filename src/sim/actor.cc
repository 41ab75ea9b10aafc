#include "sim/actor.hh"

#include <cassert>

namespace pagesim
{

SimActor::SimActor(Simulation &sim, std::string name, bool foreground)
    : sim_(sim), name_(std::move(name)), foreground_(foreground)
{
}

SimActor::~SimActor() = default;

void
SimActor::start(SimDuration initial_delay)
{
    assert(state_ == State::Created);
    if (foreground_)
        sim_.foregroundStarted();
    sim_.cpus().onRunnable(now());
    state_ = State::Runnable;
    scheduleStep(now() + initial_delay);
}

void
SimActor::scheduleStep(SimTime when)
{
    const std::uint64_t epoch = ++epoch_;
    pendingAt_ = when;
    pendingSeq_ = sim_.events().schedule(when, [this, epoch] {
        if (epoch == epoch_)
            dispatch();
    });
}

void
SimActor::dispatch()
{
    if (state_ == State::Finished)
        return;
    assert(state_ == State::Runnable);
    state_ = State::Running;
    step();
    // step() must transition away from Running via yieldAfter(),
    // block(), sleepFor(), or finish().
    assert(state_ != State::Running);
}

void
SimActor::yieldAfter(SimDuration cpu_work)
{
    assert(state_ == State::Running);
    cpuWork_ += cpu_work;
    const SimDuration wall = sim_.cpus().wallTimeFor(cpu_work);
    state_ = State::Runnable;
    scheduleStep(now() + wall);
}

void
SimActor::block()
{
    assert(state_ == State::Running);
    sim_.cpus().onBlocked(now());
    state_ = State::Blocked;
    blockedSince_ = now();
    ++epoch_; // invalidate any stale scheduled dispatch
}

void
SimActor::sleepFor(SimDuration wall)
{
    assert(state_ == State::Running);
    sim_.cpus().onBlocked(now());
    state_ = State::Sleeping;
    blockedSince_ = now();
    const std::uint64_t epoch = ++epoch_;
    pendingAt_ = now() + wall;
    pendingSeq_ = sim_.events().schedule(pendingAt_, [this, epoch] {
        if (epoch == epoch_ && state_ == State::Sleeping)
            wake();
    });
}

void
SimActor::wake()
{
    if (state_ != State::Blocked && state_ != State::Sleeping)
        return;
    blockedTime_ += now() - blockedSince_;
    sim_.cpus().onRunnable(now());
    state_ = State::Runnable;
    scheduleStep(now());
}

void
SimActor::reschedulePending()
{
    if (state_ == State::Runnable) {
        scheduleStep(pendingAt_);
    } else if (state_ == State::Sleeping) {
        const std::uint64_t epoch = ++epoch_;
        pendingSeq_ = sim_.events().schedule(pendingAt_, [this, epoch] {
            if (epoch == epoch_ && state_ == State::Sleeping)
                wake();
        });
    }
}

void
SimActor::finish()
{
    assert(state_ == State::Running);
    sim_.cpus().onBlocked(now());
    state_ = State::Finished;
    ++epoch_;
    if (foreground_)
        sim_.foregroundFinished();
}

} // namespace pagesim
