/**
 * @file
 * The access-event pipe: the one interface through which anything
 * watches the access stream.
 *
 * Kernel::access reports every access, once, to each attached
 * KernelAccessTap as soon as it knows the frame that serves it: after
 * fault and hint-fault handling, before the frame's bandwidth,
 * referenced/dirty and traffic accounting. The record carries both
 * views of the access: the virtual reference a user-space profiler
 * samples (Chameleon, a trace recorder, the harness's hot-set
 * counter) and the frame that serves it, which a device on the memory
 * path sees (NeoMem's CXL counter engine). An access that failed to
 * get a frame (OOM) is still reported, with invalid frame fields.
 *
 * The interface lives in src/mm so every consumer depends on the
 * kernel alone. A tap only records what it is told; it must not touch
 * the page, so attaching one never changes what the access path does.
 * With no tap attached the access path tests one empty list.
 */

#ifndef TPP_MM_ACCESS_TAP_HH
#define TPP_MM_ACCESS_TAP_HH

#include "sim/types.hh"

namespace tpp {

/** One access, as Kernel::access reports it to its taps. */
struct AccessEvent {
    Asid asid;
    Vpn vpn;
    AccessKind kind;
    Tick tick;
    Pfn pfn;    //!< serving frame; kInvalidPfn when the access OOM'd
    NodeId nid; //!< serving node; kInvalidNode when the access OOM'd
};

/** Observer of the kernel's access stream (Kernel::addAccessTap). */
class KernelAccessTap
{
  public:
    KernelAccessTap() = default;
    /** The kernel holds a tap by its address, so a tap stays put. */
    KernelAccessTap(const KernelAccessTap &) = delete;
    KernelAccessTap &operator=(const KernelAccessTap &) = delete;
    virtual ~KernelAccessTap() = default;

    /**
     * One access. The frame fields name the frame that serves it,
     * after any migration its hint fault triggered.
     */
    virtual void onKernelAccess(const AccessEvent &event) = 0;
};

} // namespace tpp

#endif // TPP_MM_ACCESS_TAP_HH
