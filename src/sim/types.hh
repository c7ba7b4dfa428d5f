/**
 * @file
 * Fundamental scalar types shared by every simulator subsystem.
 *
 * The simulation measures time in integer nanoseconds (Tick). Memory is
 * tracked at page granularity: physical frames are identified by Pfn,
 * virtual pages by Vpn, address spaces by Asid and memory nodes by NodeId.
 */

#ifndef TPP_SIM_TYPES_HH
#define TPP_SIM_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <limits>

namespace tpp {

/** Simulated time in nanoseconds. */
using Tick = std::uint64_t;

/** Physical frame number (index into the global frame table). */
using Pfn = std::uint32_t;

/** Virtual page number within an address space. */
using Vpn = std::uint64_t;

/** Address-space (process) identifier. */
using Asid = std::uint32_t;

/** Memory-node (NUMA node) identifier. */
using NodeId = std::uint8_t;

/** Sentinel for "no frame". */
inline constexpr Pfn kInvalidPfn = std::numeric_limits<Pfn>::max();

/** Sentinel for "no node". */
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/** Base page size in bytes (4 KiB, the only granularity we model). */
inline constexpr std::uint64_t kPageSize = 4096;

/** Convenience tick constants. */
inline constexpr Tick kNanosecond = 1;
inline constexpr Tick kMicrosecond = 1000 * kNanosecond;
inline constexpr Tick kMillisecond = 1000 * kMicrosecond;
inline constexpr Tick kSecond = 1000 * kMillisecond;
/** Later than any event: "never". */
inline constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/** Page content classification, mirroring the kernel's anon/file split. */
enum class PageType : std::uint8_t {
    Anon,  //!< anonymous memory: heap, stack, private mmap
    File,  //!< page-cache backed: binaries, data files, tmpfs
};

/** Number of distinct PageType values. */
inline constexpr std::size_t kNumPageTypes = 2;

/** Access direction for a memory reference. */
enum class AccessKind : std::uint8_t {
    Load,
    Store,
};

} // namespace tpp

#endif // TPP_SIM_TYPES_HH
