/**
 * @file
 * Kernel tracepoints: a low-overhead, compile-always, runtime-toggled
 * event ring modeled on Linux tracepoints (trace_pgdemote_*,
 * trace_mm_numa_migrate_*, the vmscan trace events).
 *
 * Every mm hot path — allocation fallback, NUMA hint faults, promotion
 * candidate/attempt/success/failure by cause, demotion, kswapd
 * wake/sleep, direct reclaim and swap-in/out — emits a fixed-size
 * TraceRecord stamped with simulated time, node and page identity into
 * the kernel's TraceBuffer. Tracing is disabled by default: a disabled
 * emit is a single predictable branch, records nothing, and the
 * simulation is bit-identical with tracing on or off (tracepoints only
 * observe, never steer).
 *
 * The buffer is a fixed-capacity ring: when full, the oldest record is
 * overwritten and counted as dropped, so a run can never grow memory
 * without bound (the Linux ftrace ring behaves the same way). Its
 * storage is reserved, not filled, when tracing is enabled: records are
 * appended until the ring is full, so a run pays only for the pages it
 * writes.
 *
 * This header is intentionally header-only and free of ostream/string
 * dependencies so the mm hot paths pay no extra include or link cost;
 * naming, serialisation and aggregation live in trace/trace_io.hh and
 * trace/summary.hh (library tpp_trace).
 */

#ifndef TPP_TRACE_TRACE_HH
#define TPP_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace tpp {

/** Every tracepoint the mm layer can fire. */
enum class TraceEvent : std::uint8_t {
    // Allocation path.
    AllocFallback = 0,   //!< allocation left the preferred node; aux = preferred
    AllocStall,          //!< allocation entered direct reclaim; node = preferred

    // NUMA-hint sampling / promotion (§5.3, §5.5).
    HintFault,           //!< NUMA hint fault taken; aux = faulting task's node
    PromoteCandidate,    //!< hint-faulted page accepted as a candidate
    PromoteTry,          //!< promotion migration attempted; aux = dst node
    PromoteSuccess,      //!< promotion completed; node = src, aux = dst
    PromoteFailLowMem,   //!< failed: target below the promotion gate
    PromoteFailIsolate,  //!< failed: page already isolated / gone
    PromoteFailRateLimit,//!< failed: promotion rate limit exceeded

    // Demotion (§5.1).
    Demote,              //!< page demoted; node = src, aux = dst
    DemoteFail,          //!< no CXL room: fell back to classic reclaim

    // Reclaim daemons.
    KswapdWake,          //!< background reclaim scheduled on `node`
    KswapdSleep,         //!< background reclaim went idle on `node`
    DirectReclaim,       //!< synchronous reclaim pass; aux = pages reclaimed

    // Swap.
    SwapOut,             //!< page written to the swap device
    SwapIn,              //!< page read back on a major fault

    // MigrationEngine (async queues, admission, transactional copy).
    MigrateQueued,       //!< request accepted into a queue; aux = dst
    MigrateDeferred,     //!< request deferred (admission / full queue)
    MigrateAbort,        //!< transactional copy aborted; aux = dst

    // Hotness subsystem (src/hotness).
    HotnessEpoch,        //!< epoch boundary; aux = pages promoted
    HotnessThreshold,    //!< hot threshold retuned; aux = new threshold
    HotnessEvict,        //!< counter-table entry evicted (LRU, full)

    // Memory cgroups (src/mm/memcg).
    MemcgEvent,          //!< aux = (cgroup id << 8) | MemcgEventKind

    // Ping-pong throttling (src/mm/ppt).
    PptThrottle,         //!< migration denied; aux = PptHop direction
    PptEscalate,         //!< cooldown escalated; aux = new cooldown (ms)
    PptEvict,            //!< history-table entry evicted (LRU, full)

    // Phase-adaptive placement (src/policy/adaptive). aux of the knob
    // events packs (knob id << 24) | knob value — see adaptive_policy.hh.
    AdaptiveWindow,      //!< profiling window closed; aux = score (milli)
    AdaptiveTune,        //!< knob step applied; aux = (knob << 24) | value
    AdaptiveRevert,      //!< trial rolled back; aux = (knob << 24) | value
    AdaptiveSettle,      //!< tuner parked after a no-improvement round
    AdaptiveWake,        //!< score drift re-armed a settled tuner

    NumEvents,
};

inline constexpr std::size_t kNumTraceEvents =
    static_cast<std::size_t>(TraceEvent::NumEvents);

/** `type` value of a record whose event has no associated page. */
inline constexpr std::uint8_t kTraceNoType = 0xff;

/**
 * One fixed-size tracepoint record (32 bytes). Page identity is the
 * stable (asid, vpn) pair — a pfn changes on every migration, which is
 * exactly what ping-pong analysis must see through.
 */
struct TraceRecord {
    Tick tick = 0;              //!< simulated time of the event
    Vpn vpn = 0;                //!< virtual page (valid when hasPage)
    std::uint32_t pfn = kInvalidPfn; //!< frame at emission time
    std::uint32_t asid = 0;     //!< owning address space (valid when hasPage)
    std::uint32_t aux = 0;      //!< event-specific (dst node, preferred, count)
    TraceEvent event = TraceEvent::AllocFallback;
    std::uint8_t node = kInvalidNode; //!< node the event happened on
    std::uint8_t type = kTraceNoType; //!< PageType, or kTraceNoType
    std::uint8_t hasPage = 0;   //!< vpn/pfn/asid fields are meaningful
};

static_assert(sizeof(TraceRecord) == 32,
              "TraceRecord must stay one fixed 32-byte slot");

/**
 * Fixed-capacity ring of TraceRecords owned by one Kernel.
 *
 * Not thread-safe by design: only the thread running a simulation
 * touches its Kernel (a workload's draw-ahead helper never does), and
 * parallel sweeps give every Kernel its own buffer (no global state).
 */
class TraceBuffer
{
  public:
    /** Default ring capacity in records (8 MiB of records). */
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

    explicit TraceBuffer(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity ? capacity : 1)
    {
    }

    bool enabled() const { return enabled_; }

    /** Turn emission on; reserves the ring storage on first use. */
    void
    enable()
    {
        ring_.reserve(capacity_);
        enabled_ = true;
    }

    /** Turn emission off; already-recorded events stay readable. */
    void disable() { enabled_ = false; }

    /**
     * Resize the ring. Discards recorded events and resets the
     * counters; capacity 0 is clamped to 1.
     */
    void
    setCapacity(std::size_t capacity)
    {
        capacity_ = capacity ? capacity : 1;
        std::vector<TraceRecord>().swap(ring_);
        if (enabled_)
            ring_.reserve(capacity_);
        clear();
    }

    std::size_t capacity() const { return capacity_; }
    /** Records currently held (≤ capacity). */
    std::size_t size() const { return ring_.size(); }
    /** Total records emitted since the last clear, drops included. */
    std::uint64_t emitted() const { return emitted_; }
    /** Records overwritten because the ring wrapped. */
    std::uint64_t dropped() const { return dropped_; }

    /** Forget all recorded events; keeps the enable state. */
    void
    clear()
    {
        ring_.clear();
        head_ = 0;
        emitted_ = 0;
        dropped_ = 0;
    }

    /** Fire a node-scoped tracepoint (no page attached). */
    void
    emit(TraceEvent event, Tick tick, NodeId node, std::uint32_t aux = 0)
    {
        if (!enabled_)
            return;
        TraceRecord r;
        r.tick = tick;
        r.event = event;
        r.node = node;
        r.aux = aux;
        push(r);
    }

    /** Fire a tracepoint with a page type but no page identity yet
     *  (e.g. an allocation that has not been mapped). */
    void
    emitTyped(TraceEvent event, Tick tick, NodeId node, PageType type,
              std::uint32_t aux = 0)
    {
        if (!enabled_)
            return;
        TraceRecord r;
        r.tick = tick;
        r.event = event;
        r.node = node;
        r.type = static_cast<std::uint8_t>(type);
        r.aux = aux;
        push(r);
    }

    /** Fire a page-scoped tracepoint. */
    void
    emitPage(TraceEvent event, Tick tick, NodeId node, PageType type,
             Pfn pfn, Asid asid, Vpn vpn, std::uint32_t aux = 0)
    {
        if (!enabled_)
            return;
        TraceRecord r;
        r.tick = tick;
        r.event = event;
        r.node = node;
        r.type = static_cast<std::uint8_t>(type);
        r.pfn = pfn;
        r.asid = asid;
        r.vpn = vpn;
        r.aux = aux;
        r.hasPage = 1;
        push(r);
    }

    /** Recorded events in chronological (emission) order. */
    std::vector<TraceRecord>
    snapshot() const
    {
        // Oldest record sits at head_ once the ring has wrapped (head_
        // is 0 until then).
        std::vector<TraceRecord> out;
        out.reserve(ring_.size());
        out.insert(out.end(), ring_.begin() + head_, ring_.end());
        out.insert(out.end(), ring_.begin(), ring_.begin() + head_);
        return out;
    }

  private:
    void
    push(const TraceRecord &r)
    {
        emitted_++;
        if (ring_.size() < capacity_) {
            ring_.push_back(r);
            return;
        }
        ring_[head_] = r;
        if (++head_ == capacity_)
            head_ = 0;
        dropped_++;
    }

    std::vector<TraceRecord> ring_;
    std::size_t capacity_;
    /** Oldest record (and next overwrite) once the ring is full. */
    std::size_t head_ = 0;
    std::uint64_t emitted_ = 0;
    std::uint64_t dropped_ = 0;
    bool enabled_ = false;
};

/** Stable lower-snake name for reports and JSONL ("pg_demote", ...). */
const char *traceEventName(TraceEvent event);

} // namespace tpp

#endif // TPP_TRACE_TRACE_HH
