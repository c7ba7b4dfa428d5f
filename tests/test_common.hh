/**
 * @file
 * Shared fixtures for the unit and integration tests: a small tiered
 * machine with a kernel, one process, and helpers to populate memory.
 */

#ifndef TPP_TESTS_TEST_COMMON_HH
#define TPP_TESTS_TEST_COMMON_HH

#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "mm/kernel.hh"
#include "policy/default_linux.hh"
#include "sim/logging.hh"

namespace tpp {
namespace test {

/**
 * A machine with one local and one CXL node plus a kernel and process.
 */
struct TestMachine {
    EventQueue eq;
    MemorySystem mem;
    Kernel kernel;
    Asid asid;

    explicit TestMachine(std::uint64_t local_pages = 1024,
                         std::uint64_t cxl_pages = 1024,
                         std::unique_ptr<PlacementPolicy> policy =
                             std::make_unique<DefaultLinuxPolicy>(),
                         MigrationConfig migration = {})
        : mem(TopologyBuilder::cxlSystem(local_pages, cxl_pages)),
          kernel(mem, eq, std::move(policy), MmCosts{}, migration),
          asid(kernel.createProcess())
    {
        setLogVerbose(false);
        kernel.start();
    }

    /** Map a region and touch every page once. */
    Vpn
    populate(std::uint64_t pages, PageType type = PageType::Anon,
             bool disk_backed = false, NodeId task_nid = 0)
    {
        const Vpn base =
            kernel.mmap(asid, pages, type, "test", disk_backed);
        for (std::uint64_t i = 0; i < pages; ++i)
            kernel.access(asid, base + i, AccessKind::Store, task_nid);
        return base;
    }

    Pte &pte(Vpn vpn) { return kernel.addressSpace(asid).pte(vpn); }

    PageFrame &frameOf(Vpn vpn) { return mem.frame(pte(vpn).pfn); }

    NodeId local() const { return mem.cpuNodes().front(); }
    NodeId cxl() const { return mem.cxlNodes().front(); }
};

/** FNV-1a over the eight bytes of `word`, for golden stream hashes. */
inline std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (word >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace test
} // namespace tpp

#endif // TPP_TESTS_TEST_COMMON_HH
