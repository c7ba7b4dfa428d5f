/**
 * @file
 * Kernel core: construction, process management, the access/fault path,
 * NUMA-hint sampling and traffic statistics. Allocation, reclaim and
 * migration live in their own translation units.
 */

#include "mm/kernel.hh"

#include <utility>

#include "mm/migration/migration_engine.hh"
#include "mm/ppt/ppt.hh"
#include "sim/logging.hh"

namespace tpp {

Kernel::Kernel(MemorySystem &mem, EventQueue &eq,
               std::unique_ptr<PlacementPolicy> policy, MmCosts costs,
               MigrationConfig migration)
    : mem_(mem), eq_(eq), policy_(std::move(policy)), costs_(costs),
      memcg_(mem.numNodes(), sysctl_, eq)
{
    if (!policy_)
        tpp_fatal("Kernel requires a placement policy");
    const std::size_t n = mem_.numNodes();
    lrus_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        lrus_.emplace_back(mem_, static_cast<NodeId>(i));
    traffic_.resize(n);
    latencyMemo_.resize(n);
    kswapd_.resize(n);
    scanCursor_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        scanCursor_[i] = mem_.node(static_cast<NodeId>(i)).firstPfn();
    // PPT before the engine (the engine consults it on admission), the
    // engine before the policy attaches: both register their sysctls
    // here, so a policy can already tune every migration knob at
    // attach time.
    ppt_ = std::make_unique<PingPongThrottle>(vmstat_, trace_);
    ppt_->registerSysctls(sysctl_);
    migration_ = std::make_unique<MigrationEngine>(*this, migration);
    policy_->attach(*this);
}

Kernel::~Kernel() = default;

void
Kernel::start()
{
    if (started_)
        tpp_panic("Kernel::start called twice");
    started_ = true;
    policy_->start();
}

Asid
Kernel::createProcess()
{
    const Asid asid = static_cast<Asid>(spaces_.size());
    spaces_.push_back(std::make_unique<AddressSpace>(asid));
    memcg_.noteProcess(asid);
    return asid;
}

AddressSpace &
Kernel::addressSpace(Asid asid)
{
    if (asid >= spaces_.size())
        tpp_panic("bad asid %u", asid);
    return *spaces_[asid];
}

const AddressSpace &
Kernel::addressSpace(Asid asid) const
{
    if (asid >= spaces_.size())
        tpp_panic("bad asid %u", asid);
    return *spaces_[asid];
}

Vpn
Kernel::mmap(Asid asid, std::uint64_t pages, PageType type,
             std::string label, bool disk_backed)
{
    return addressSpace(asid).mmap(pages, type, std::move(label),
                                   disk_backed);
}

void
Kernel::munmap(Asid asid, Vpn start, std::uint64_t pages)
{
    AddressSpace &as = addressSpace(asid);
    for (std::uint64_t i = 0; i < pages; ++i) {
        Pte &pte = as.pte(start + i);
        if (pte.present())
            freeFrame(pte.pfn);
        if (pte.swapped()) {
            mem_.swapDevice().release(pte.swapSlot);
            pte.clear(Pte::BitSwapped);
        }
    }
    as.munmap(start, pages);
}

Pte &
Kernel::pteOf(const PageFrame &frame)
{
    const PageFrameCold &cold = mem_.frameCold(frame.pfn);
    return addressSpace(cold.ownerAsid).pte(cold.ownerVpn);
}

void
Kernel::unmapFrame(PageFrame &frame)
{
    Pte &pte = pteOf(frame);
    if (!pte.present() || pte.pfn != frame.pfn)
        tpp_panic("unmapFrame: rmap out of sync for pfn %u", frame.pfn);
    pte.clear(Pte::BitPresent);
    pte.clear(Pte::BitProtNone);
    frame.clearFlag(PageFrame::FlagHintPending);
    pte.pfn = kInvalidPfn;
    const Asid owner = mem_.frameCold(frame.pfn).ownerAsid;
    addressSpace(owner).noteUnmapped(frame.type);
    memcg_.uncharge(owner, frame.nid);
}

void
Kernel::freeFrame(Pfn pfn)
{
    PageFrame &frame = mem_.frame(pfn);
    if (frame.isFree())
        tpp_panic("freeFrame: pfn %u already free", pfn);
    if (frame.underMigration())
        migration_->abortOnFree(pfn);
    if (frame.lru != LruListId::None)
        lrus_[frame.nid].remove(pfn);
    unmapFrame(frame);
    mem_.node(frame.nid).putFree(pfn);
    frame.resetForFree();
    mem_.frameCold(pfn).resetForFree();
    vmstat_.inc(Vm::PgFree);
}

double
Kernel::faultIn(AddressSpace &as, Vpn vpn, Pte &pte, NodeId task_nid,
                AccessResult &res)
{
    // Stamp the owning VMA's attributes into the PTE on first fault;
    // mmap no longer walks the region's PTEs. The caller already did
    // the page-table walk — this only pays the VMA lookup once per
    // page lifetime.
    if (!pte.mapped())
        as.stampFromVma(vpn, pte);
    vmstat_.inc(Vm::PgFault);

    NodeId preferred = policy_->allocPreferredNode(pte.type, task_nid);
    // A cgroup placement preference (mempolicy opt-out, §5.4) overrides
    // the policy's choice; the zonelist fallback may still spill it.
    switch (memcg_.placementOf(as.asid())) {
      case MemcgPlacement::LocalOnly:
        // Nearest toptier node in zonelist order, not cpuNodes()
        // .front(): on a multi-socket machine a task on socket 1 must
        // stay on its own socket, not hop to socket 0.
        for (NodeId nid : mem_.fallbackOrder(task_nid)) {
            if (mem_.tiers().isToptier(nid)) {
                preferred = nid;
                break;
            }
        }
        break;
      case MemcgPlacement::CxlOnly:
        // Nearest below-toptier node by distance from the task, so a
        // middle tier is preferred over the far one when both exist.
        for (NodeId nid : mem_.fallbackOrder(task_nid)) {
            if (!mem_.tiers().isToptier(nid)) {
                preferred = nid;
                break;
            }
        }
        break;
      case MemcgPlacement::None:
        break;
    }
    double stall_ns = 0.0;
    const AllocReason reason =
        pte.swapped() ? AllocReason::SwapIn : AllocReason::App;
    const Pfn pfn = allocPage(preferred, pte.type, reason, &stall_ns);
    if (pfn == kInvalidPfn) {
        res.oom = true;
        return stall_ns;
    }

    double latency = stall_ns;
    bool refault = false;
    if (pte.swapped()) {
        // Major fault: wait for the swap device.
        res.majorFault = true;
        refault = true;
        vmstat_.inc(Vm::PgMajFault);
        vmstat_.inc(Vm::PswpIn);
        trace_.emitPage(TraceEvent::SwapIn, eq_.now(),
                        mem_.frame(pfn).nid, pte.type, pfn, as.asid(),
                        vpn);
        mem_.swapDevice().pageIn(pte.swapSlot);
        pte.clear(Pte::BitSwapped);
        pte.swapSlot = 0;
        latency += costs_.majorFaultFixed +
                   static_cast<double>(mem_.swapDevice().profile().readLatency);
    } else if (pte.type == PageType::File && pte.diskBacked() &&
               pte.touched()) {
        // A dropped file page refaults from the backing store.
        res.majorFault = true;
        refault = true;
        vmstat_.inc(Vm::PgMajFault);
        latency += costs_.majorFaultFixed + costs_.diskReadNs;
    } else {
        // First-touch population. Disk-backed file pages pay the initial
        // read from storage (the warm-up file I/O of §3.5).
        res.minorFault = true;
        latency += costs_.minorFault;
        if (pte.type == PageType::File && pte.diskBacked())
            latency += costs_.diskReadNs;
    }

    // Map the frame.
    PageFrame &frame = mem_.frame(pfn);
    PageFrameCold &cold = mem_.frameCold(pfn);
    frame.markAllocated();
    frame.type = pte.type;
    cold.ownerAsid = as.asid();
    cold.ownerVpn = vpn;
    cold.allocatedAt = eq_.now();
    frame.setFlag(PageFrame::FlagReferenced);
    if (pte.type == PageType::Anon)
        frame.setFlag(PageFrame::FlagDirty);
    pte.pfn = pfn;
    pte.set(Pte::BitPresent);
    pte.set(Pte::BitTouched);
    as.noteMapped(pte.type);
    memcg_.charge(as.asid(), frame.nid);

    // New and swapped-in pages start on the inactive list, as in Linux
    // since the anon-workingset rework; reclaim's second chance or TPP's
    // hint-fault path activates them later. Exception: workingset
    // refaults — an eviction undone within the workingset window means
    // reclaim picked a hot page, so it re-enters active.
    bool activate = false;
    if (refault) {
        vmstat_.inc(Vm::WorkingsetRefault);
        if (eq_.now() - pte.evictedAt <= costs_.workingsetWindow) {
            vmstat_.inc(Vm::WorkingsetActivate);
            activate = true;
        }
    }
    lrus_[frame.nid].addHead(lruListFor(frame.type, activate), pfn);
    return latency;
}

AccessResult
Kernel::accessSlow(Asid asid, Vpn vpn, AccessKind kind, NodeId task_nid)
{
    AccessResult res;
    AddressSpace &as = addressSpace(asid);
    // One page-table walk per access. A vpn inside the table but outside
    // any live VMA still panics — on the fault path, when the VMA lookup
    // comes up empty.
    if (vpn >= as.tableSize())
        tpp_panic("access to unmapped vpn %llu in asid %u",
                  static_cast<unsigned long long>(vpn), asid);
    Pte &pte = as.pte(vpn);

    double latency = 0.0;
    if (!pte.present()) {
        latency += faultIn(as, vpn, pte, task_nid, res);
        if (res.oom) {
            res.latencyNs = latency;
            notifyTaps(
                {asid, vpn, kind, eq_.now(), kInvalidPfn, kInvalidNode});
            return res;
        }
    }

    // A transactional copy in flight loses the race with this access:
    // abort it (pgmigrate_fail_busy) so the page stays where it is.
    if (mem_.frame(pte.pfn).underMigration())
        migration_->abortOnAccess(pte.pfn);

    if (pte.protNone()) {
        // NUMA hint fault (§4.2): record and let the policy react. The
        // policy may migrate the page, updating pte.pfn in place.
        pte.clear(Pte::BitProtNone);
        mem_.frame(pte.pfn).clearFlag(PageFrame::FlagHintPending);
        res.hintFault = true;
        vmstat_.inc(Vm::NumaHintFaults);
        const PageFrame &hinted = mem_.frame(pte.pfn);
        if (hinted.nid == task_nid)
            vmstat_.inc(Vm::NumaHintFaultsLocal);
        trace_.emitPage(TraceEvent::HintFault, eq_.now(), hinted.nid,
                        hinted.type, pte.pfn, asid, vpn, task_nid);
        latency += costs_.hintFaultFixed;
        latency += policy_->onHintFault(pte.pfn, task_nid);
    }

    PageFrame &frame = mem_.frame(pte.pfn);
    notifyTaps({asid, vpn, kind, eq_.now(), pte.pfn, frame.nid});
    latency += serveAccess(frame, kind);
    res.servedBy = frame.nid;
    res.latencyNs = latency;
    return res;
}

std::uint64_t
Kernel::sampleNode(NodeId nid, std::uint64_t batch)
{
    const MemoryNode &node = mem_.node(nid);
    const Pfn first = node.firstPfn();
    const Pfn end = first + static_cast<Pfn>(node.capacity());
    Pfn cursor = scanCursor_[nid];
    std::uint64_t sampled = 0;
    std::uint64_t visited = 0;
    const std::uint64_t max_visit = node.capacity();

    // Scan the hot array directly: the cursor stays inside this node's
    // [first, end) range, and each visit touches one 16-byte record.
    PageFrame *const frames = mem_.frameData();
    while (sampled < batch && visited < max_visit) {
        if (cursor >= end)
            cursor = first;
        PageFrame &frame = frames[cursor];
        cursor++;
        visited++;
        // Hot-array-only skips: free, off-LRU, or already armed (the
        // FlagHintPending mirror of the PTE's prot_none bit). Only a
        // frame that will actually be sampled pays the reverse-map and
        // page-table walk.
        if (frame.isFree() || frame.lru == LruListId::None ||
            frame.hintPending()) {
            continue;
        }
        Pte &pte = pteOf(frame);
        if (!pte.present() || pte.protNone())
            continue;
        pte.set(Pte::BitProtNone);
        frame.setFlag(PageFrame::FlagHintPending);
        vmstat_.inc(Vm::NumaPteUpdates);
        sampled++;
    }
    scanCursor_[nid] = cursor;
    return sampled;
}

void
Kernel::resetTraffic()
{
    for (auto &t : traffic_)
        t = NodeTraffic{};
}

std::uint64_t
Kernel::residentPages(NodeId nid, PageType type) const
{
    return lrus_[nid].countType(type);
}

double
Kernel::trafficShare(NodeId nid) const
{
    std::uint64_t total = 0;
    for (const auto &t : traffic_)
        total += t.accesses;
    if (total == 0)
        return 0.0;
    return static_cast<double>(traffic_[nid].accesses) /
           static_cast<double>(total);
}

} // namespace tpp
