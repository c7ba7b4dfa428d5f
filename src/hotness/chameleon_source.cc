#include "hotness/chameleon_source.hh"

#include <algorithm>
#include <cmath>

#include "mm/kernel.hh"

namespace tpp {

void
ChameleonSource::attach(Kernel &kernel)
{
    HotnessSource::attach(kernel);
    // Promotion wants frequency resolution over deep history: 4-bit
    // fields saturate at 15 samples per epoch and still keep 16 epochs
    // of history. Duty cycling off — the source drives migration, not
    // an overhead study, so blind slices would just cost recall.
    ChameleonConfig chameleon;
    chameleon.interval = cfg_.epochPeriod;
    chameleon.bitsPerInterval = 4;
    chameleon.dutyCycle = false;
    chameleon.samplePeriod = 64;
    // The profiler taps the kernel's access stream itself.
    chameleon_ = std::make_unique<Chameleon>(kernel, chameleon);
}

void
ChameleonSource::start()
{
    chameleon_->start();
}

double
ChameleonSource::score(std::uint64_t bitmap, std::uint32_t bits_per_interval)
{
    // Sum of per-interval sample counts, halved per interval of age: the
    // current epoch's field counts fully, last epoch's at 1/2, and so
    // on. Keeps pages that were hot two epochs ago ranked below pages
    // hot right now without discarding history outright.
    const std::uint64_t mask = (bits_per_interval == 64)
                                   ? ~std::uint64_t{0}
                                   : ((std::uint64_t{1} << bits_per_interval) - 1);
    double total = 0.0;
    double weight = 1.0;
    for (std::uint32_t g = 0; g < 64 / bits_per_interval; ++g) {
        const std::uint64_t field = (bitmap >> (g * bits_per_interval)) & mask;
        total += static_cast<double>(field) * weight;
        weight *= 0.5;
    }
    return total;
}

double
ChameleonSource::temperature(Pfn pfn) const
{
    if (!cxlResident(pfn))
        return 0.0;
    const PageFrameCold &cold = kernel_->mem().frameCold(pfn);
    const std::uint64_t word =
        chameleon_->activityWord(cold.ownerAsid, cold.ownerVpn);
    return score(word, chameleon_->config().bitsPerInterval);
}

std::vector<HotPage>
ChameleonSource::extractHot(std::uint64_t max_pages)
{
    const std::uint32_t bits = chameleon_->config().bitsPerInterval;
    std::vector<HotPage> hot;
    for (const ChameleonPageActivity &page : chameleon_->activitySnapshot()) {
        const double temp = score(page.bitmap, bits);
        if (temp <= 0.0)
            continue;
        const AddressSpace &as = kernel_->addressSpace(page.asid);
        if (page.vpn >= as.tableSize())
            continue;
        const Pte &pte = as.pte(page.vpn);
        if (!pte.present() || !cxlResident(pte.pfn))
            continue;
        HotPage candidate;
        candidate.pfn = pte.pfn;
        candidate.nid = kernel_->mem().frame(pte.pfn).nid;
        candidate.temperature = temp;
        hot.push_back(candidate);
    }
    std::sort(hot.begin(), hot.end(),
              [](const HotPage &a, const HotPage &b) {
                  return a.temperature != b.temperature
                             ? a.temperature > b.temperature
                             : a.pfn < b.pfn;
              });
    if (hot.size() > max_pages)
        hot.resize(max_pages);
    return hot;
}

} // namespace tpp
