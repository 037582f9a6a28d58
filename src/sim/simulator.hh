/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single Simulator owns virtual time. Components schedule callbacks
 * at absolute times; the kernel pops them in (time, insertion) order,
 * so same-time events run deterministically in scheduling order.
 * Events can be cancelled (used by the fluid-flow network to
 * invalidate stale completion predictions when rates change).
 *
 * The event core is allocation-light: callbacks live in a slab of
 * reusable slots (small-buffer SmallFunction storage, so typical
 * lambda captures never touch the heap) and handles are plain
 * (slot, generation) pairs — scheduling an event performs no heap
 * allocation beyond amortized slab/queue growth. A live-event
 * counter makes idle() O(1) even when cancelled entries linger in
 * the heap; dead entries are popped lazily as they surface.
 *
 * One component may register a pre-advance hook: it runs after the
 * last event of an instant, just before run()/step() move now()
 * forward. The fluid network uses it to defer every max-min re-solve
 * of an instant into one (DESIGN.md §5g).
 */

#ifndef CHAMELEON_SIM_SIMULATOR_HH_
#define CHAMELEON_SIM_SIMULATOR_HH_

#include <cstdint>
#include <queue>
#include <vector>

#include "util/small_function.hh"
#include "util/types.hh"

namespace chameleon {
namespace sim {

class Simulator;

/**
 * Handle used to cancel a scheduled event.
 *
 * A plain (slot, generation) reference into the simulator's event
 * slab: copyable, trivially destructible, and safe to hold after the
 * event ran or was cancelled (the generation check makes stale
 * handles inert). Handles must not outlive the Simulator.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True if the event is still pending (not run, not cancelled). */
    bool pending() const;

    /** Cancels the event if still pending; idempotent. */
    void cancel();

  private:
    friend class Simulator;
    Simulator *sim_ = nullptr;
    uint32_t slot_ = 0;
    uint64_t gen_ = 0;
};

/** The event loop; see file comment. */
class Simulator
{
  public:
    /** Event callback; captures up to 48 bytes stay inline. */
    using Callback = util::SmallFunction<void()>;

    /** Pre-advance hook; returns true if it did work (it may have
     * scheduled events, so the loop looks at the queue again). */
    using PreAdvanceHook = util::SmallFunction<bool()>;

    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Flushes configured telemetry sinks so traces survive runs
     * that end without an explicit export. */
    ~Simulator();

    /** Current virtual time in seconds. */
    SimTime now() const { return now_; }

    /**
     * Schedules fn at absolute time `when` (>= now()).
     * @return a handle that can cancel the event.
     */
    EventHandle schedule(SimTime when, Callback fn);

    /** Schedules fn after a relative delay (>= 0). */
    EventHandle scheduleAfter(SimTime delay, Callback fn);

    /**
     * Runs events until the queue is empty or `until` is reached.
     * Advances now() to `until` if the queue drains earlier and
     * `until` is finite. The pre-advance hook runs before every move
     * of now(), including that final one.
     * @return number of events executed.
     */
    std::size_t run(SimTime until = kTimeNever);

    /** Executes exactly one event if any is pending (running the
     * pre-advance hook first if the event lies in the future). */
    bool step();

    /**
     * Registers the pre-advance hook (see file comment). At most one
     * per simulator: registering a second one asserts.
     */
    void setPreAdvanceHook(PreAdvanceHook hook);

    /** Removes the pre-advance hook (no-op if none). */
    void clearPreAdvanceHook() { preAdvance_.reset(); }

    /** True if no events are pending; O(1) via the live counter.
     * Work the pre-advance hook has not done yet does not count:
     * run() and step() do it before they report the queue empty. */
    bool idle() const { return live_ == 0; }

    /** Events pending (scheduled, not yet run or cancelled). */
    std::size_t pendingEvents() const { return live_; }

    /** Total events executed over the simulator's lifetime. */
    uint64_t eventsExecuted() const { return executed_; }

  private:
    friend class EventHandle;

    /** One slab entry; freed slots recycle through freeSlots_ with a
     * bumped generation, so queue entries and handles referring to
     * the old occupant become inert automatically. */
    struct Slot
    {
        Callback fn;
        uint64_t gen = 0;
    };

    struct QueueEntry
    {
        SimTime when;
        uint64_t seq;
        uint32_t slot;
        uint64_t gen;

        bool operator>(const QueueEntry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    bool slotPending(uint32_t slot, uint64_t gen) const
    {
        return slot < slots_.size() && slots_[slot].gen == gen;
    }

    uint32_t allocSlot();
    void freeSlot(uint32_t slot);

    /** Pops dead (cancelled/stale) entries off the queue top; returns
     * false when the queue is exhausted. */
    bool compactTop();

    /** Runs the pre-advance hook if now() would move to `next`;
     * true if the hook did work and the queue must be re-read. */
    bool preAdvance(SimTime next)
    {
        return next > now_ && preAdvance_ && preAdvance_();
    }

    /** Pops the queue top and runs its callback. */
    void runTop();

    SimTime now_ = 0.0;
    uint64_t seq_ = 0;
    uint64_t executed_ = 0;
    std::size_t live_ = 0;
    std::vector<Slot> slots_;
    std::vector<uint32_t> freeSlots_;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<>> queue_;
    PreAdvanceHook preAdvance_;
};

} // namespace sim
} // namespace chameleon

#endif // CHAMELEON_SIM_SIMULATOR_HH_
