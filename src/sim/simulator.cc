#include "sim/simulator.hh"

#include <algorithm>

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace sim {

Simulator::~Simulator()
{
    telemetry::flush();
}

bool
EventHandle::pending() const
{
    return sim_ && sim_->slotPending(slot_, gen_);
}

void
EventHandle::cancel()
{
    if (!sim_ || !sim_->slotPending(slot_, gen_))
        return;
    // Freeing bumps the generation, so the queue entry (and any other
    // handle copies) referring to this occupant become inert; the
    // entry itself is popped lazily when it reaches the top.
    sim_->freeSlot(slot_);
    CHAMELEON_ASSERT(sim_->live_ > 0, "live-event underflow");
    --sim_->live_;
}

uint32_t
Simulator::allocSlot()
{
    if (!freeSlots_.empty()) {
        uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        return slot;
    }
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
}

void
Simulator::freeSlot(uint32_t slot)
{
    Slot &s = slots_[slot];
    s.fn.reset();
    ++s.gen;
    freeSlots_.push_back(slot);
}

EventHandle
Simulator::schedule(SimTime when, Callback fn)
{
    CHAMELEON_ASSERT(when >= now_, "scheduling into the past: ", when,
                     " < ", now_);
    const uint32_t slot = allocSlot();
    slots_[slot].fn = std::move(fn);
    EventHandle handle;
    handle.sim_ = this;
    handle.slot_ = slot;
    handle.gen_ = slots_[slot].gen;
    queue_.push(QueueEntry{when, seq_++, slot, handle.gen_});
    ++live_;
    return handle;
}

EventHandle
Simulator::scheduleAfter(SimTime delay, Callback fn)
{
    CHAMELEON_ASSERT(delay >= 0, "negative delay: ", delay);
    return schedule(now_ + delay, std::move(fn));
}

bool
Simulator::compactTop()
{
    while (!queue_.empty()) {
        const QueueEntry &top = queue_.top();
        if (slotPending(top.slot, top.gen))
            return true;
        queue_.pop();
    }
    return false;
}

void
Simulator::setPreAdvanceHook(PreAdvanceHook hook)
{
    CHAMELEON_ASSERT(!preAdvance_,
                     "simulator already has a pre-advance hook");
    preAdvance_ = std::move(hook);
}

void
Simulator::runTop()
{
    QueueEntry entry = queue_.top();
    queue_.pop();
    now_ = entry.when;
    // Move the callback out and free the slot first, so the callback
    // can freely schedule new events (possibly reusing this very
    // slot) and handles to this event read not-pending while it runs.
    Callback fn = std::move(slots_[entry.slot].fn);
    freeSlot(entry.slot);
    --live_;
    fn();
    ++executed_;
}

std::size_t
Simulator::run(SimTime until)
{
    std::size_t ran = 0;
    for (;;) {
        const bool have = compactTop();
        const SimTime next = have ? queue_.top().when : kTimeNever;
        if (preAdvance(std::min(next, until)))
            continue;
        if (!have || next > until)
            break;
        runTop();
        ++ran;
    }
    if (until != kTimeNever && until > now_)
        now_ = until;
    return ran;
}

bool
Simulator::step()
{
    for (;;) {
        const bool have = compactTop();
        if (preAdvance(have ? queue_.top().when : kTimeNever))
            continue;
        if (!have)
            return false;
        runTop();
        return true;
    }
}

} // namespace sim
} // namespace chameleon
