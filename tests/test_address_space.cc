/**
 * @file
 * Unit tests for AddressSpace: VMAs, PTEs and range recycling, and for
 * PageSlots, the per-page side table laid out like its page table.
 */

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "mm/address_space.hh"
#include "sim/logging.hh"
#include "sim/page_slots.hh"

namespace tpp {
namespace {

TEST(AddressSpace, MmapReservesDense)
{
    AddressSpace as(0);
    const Vpn a = as.mmap(10, PageType::Anon, "a");
    const Vpn b = as.mmap(5, PageType::File, "b");
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 10u);
    EXPECT_EQ(as.tableSize(), 15u);
    EXPECT_TRUE(as.isMapped(0));
    EXPECT_TRUE(as.isMapped(14));
    EXPECT_FALSE(as.isMapped(15));
}

TEST(AddressSpace, PteTypeMatchesRegion)
{
    AddressSpace as(0);
    const Vpn a = as.mmap(2, PageType::Anon, "a");
    const Vpn f = as.mmap(2, PageType::File, "f", true);
    // Attributes are stamped lazily from the VMA at first fault.
    EXPECT_EQ(as.materialize(a).type, PageType::Anon);
    EXPECT_EQ(as.materialize(f).type, PageType::File);
    EXPECT_FALSE(as.materialize(a).diskBacked());
    EXPECT_TRUE(as.materialize(f).diskBacked());
}

TEST(AddressSpace, VmaLookupFindsOwningRegion)
{
    AddressSpace as(0);
    const Vpn a = as.mmap(4, PageType::Anon, "a");
    const Vpn f = as.mmap(4, PageType::File, "f", true);
    ASSERT_NE(as.vmaOf(a + 3), nullptr);
    EXPECT_EQ(as.vmaOf(a + 3)->type, PageType::Anon);
    ASSERT_NE(as.vmaOf(f), nullptr);
    EXPECT_TRUE(as.vmaOf(f)->diskBacked);
    EXPECT_EQ(as.vmaOf(f + 4), nullptr);
}

TEST(AddressSpace, VmasTracked)
{
    AddressSpace as(0);
    as.mmap(4, PageType::Anon, "heap");
    ASSERT_EQ(as.vmas().size(), 1u);
    EXPECT_EQ(as.vmas()[0].label, "heap");
    EXPECT_EQ(as.vmas()[0].pages, 4u);
    EXPECT_EQ(as.vmas()[0].end(), 4u);
}

TEST(AddressSpace, MunmapClearsAndRecycles)
{
    AddressSpace as(0);
    const Vpn a = as.mmap(8, PageType::Anon, "a");
    as.munmap(a, 8);
    EXPECT_FALSE(as.isMapped(a));
    EXPECT_TRUE(as.vmas().empty());
    // Same-size reservation reuses the vpn range (no table growth).
    const Vpn b = as.mmap(8, PageType::File, "b");
    EXPECT_EQ(b, a);
    EXPECT_EQ(as.tableSize(), 8u);
    EXPECT_EQ(as.materialize(b).type, PageType::File);
}

TEST(AddressSpace, DifferentSizeDoesNotRecycle)
{
    AddressSpace as(0);
    const Vpn a = as.mmap(8, PageType::Anon, "a");
    as.munmap(a, 8);
    const Vpn b = as.mmap(4, PageType::Anon, "b");
    EXPECT_EQ(b, 8u);
}

TEST(AddressSpace, ResidentCounters)
{
    AddressSpace as(0);
    as.mmap(4, PageType::Anon, "a");
    EXPECT_EQ(as.residentPages(), 0u);
    as.noteMapped(PageType::Anon);
    as.noteMapped(PageType::File);
    EXPECT_EQ(as.residentPages(), 2u);
    EXPECT_EQ(as.residentPages(PageType::Anon), 1u);
    EXPECT_EQ(as.residentPages(PageType::File), 1u);
    as.noteUnmapped(PageType::Anon);
    EXPECT_EQ(as.residentPages(PageType::Anon), 0u);
}

TEST(AddressSpace, PteBitOperations)
{
    Pte pte;
    EXPECT_FALSE(pte.present());
    pte.set(Pte::BitPresent);
    pte.set(Pte::BitProtNone);
    EXPECT_TRUE(pte.present());
    EXPECT_TRUE(pte.protNone());
    pte.clear(Pte::BitProtNone);
    EXPECT_FALSE(pte.protNone());
    EXPECT_TRUE(pte.present());
}

TEST(AddressSpaceDeathTest, DiskBackedAnonIsFatal)
{
    setLogVerbose(false);
    AddressSpace as(0);
    EXPECT_DEATH(as.mmap(1, PageType::Anon, "x", true), "file regions");
}

TEST(AddressSpaceDeathTest, ZeroPageMmapIsFatal)
{
    setLogVerbose(false);
    AddressSpace as(0);
    EXPECT_DEATH(as.mmap(0, PageType::Anon), "zero");
}

TEST(AddressSpaceDeathTest, MunmapUnknownVmaPanics)
{
    setLogVerbose(false);
    AddressSpace as(0);
    as.mmap(8, PageType::Anon, "a");
    EXPECT_DEATH(as.munmap(1, 4), "unknown VMA");
}

TEST(AddressSpaceDeathTest, MunmapPresentPtePanics)
{
    setLogVerbose(false);
    AddressSpace as(0);
    const Vpn a = as.mmap(2, PageType::Anon, "a");
    as.pte(a).set(Pte::BitPresent);
    EXPECT_DEATH(as.munmap(a, 2), "present");
}

TEST(PageSlots, ReadsZeroWithoutAllocatingAndVisitsInOrder)
{
    PageSlots<std::uint64_t> slots;
    EXPECT_EQ(slots.find(0, 0), nullptr);
    EXPECT_EQ(slots.find(3, Vpn{1} << 40), nullptr);
    slots(2, 5) = 7;
    slots(0, PageSlots<std::uint64_t>::kChunkSlots + 1) = 9;
    ASSERT_NE(slots.find(2, 5), nullptr);
    EXPECT_EQ(*slots.find(2, 5), 7u);
    EXPECT_EQ(*slots.find(2, 6), 0u); // same chunk, never written
    EXPECT_EQ(slots.find(1, 5), nullptr);
    EXPECT_EQ(slots.find(2, PageSlots<std::uint64_t>::kChunkSlots), nullptr);

    std::vector<std::tuple<Asid, Vpn, std::uint64_t>> seen;
    slots.forEach([&](Asid asid, Vpn vpn, std::uint64_t value) {
        if (value != 0)
            seen.emplace_back(asid, vpn, value);
    });
    const std::vector<std::tuple<Asid, Vpn, std::uint64_t>> want = {
        {0, PageSlots<std::uint64_t>::kChunkSlots + 1, 9}, {2, 5, 7}};
    EXPECT_EQ(seen, want);

    slots.clear();
    EXPECT_EQ(slots.find(2, 5), nullptr);
}

} // namespace
} // namespace tpp
