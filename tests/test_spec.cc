/**
 * @file
 * Unit tests for the shared spec grammar (src/harness/spec): the
 * parse/getter round trips, the rejection table with its exact
 * diagnostics, and the small helpers (parseAssignment, parseRatioSpec,
 * parseSpecU64/Double) the bench flag parsers sit on.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/spec.hh"

namespace {

using namespace tpp;

// ---------------------------------------------------------------------
// parseSpec structure
// ---------------------------------------------------------------------

TEST(Spec, SplitsEntriesAndFields)
{
    const SpecResult<std::vector<SpecEntry>> parsed =
        parseSpec("cache1:low=0.6:qps=5e5;churn", true);
    ASSERT_TRUE(bool(parsed));
    ASSERT_EQ(parsed->size(), 2u);
    EXPECT_EQ((*parsed)[0].head(), "cache1");
    EXPECT_EQ((*parsed)[0].size(), 2u);
    EXPECT_TRUE((*parsed)[0].has("low"));
    EXPECT_TRUE((*parsed)[0].has("qps"));
    EXPECT_EQ((*parsed)[1].head(), "churn");
    EXPECT_EQ((*parsed)[1].size(), 0u);
}

TEST(Spec, EmptySpecYieldsZeroEntries)
{
    const SpecResult<std::vector<SpecEntry>> parsed = parseSpec("", true);
    ASSERT_TRUE(bool(parsed));
    EXPECT_TRUE(parsed->empty());
}

TEST(Spec, ToleratesOneTrailingSeparator)
{
    const SpecResult<std::vector<SpecEntry>> parsed =
        parseSpec("web;churn;", true);
    ASSERT_TRUE(bool(parsed));
    EXPECT_EQ(parsed->size(), 2u);
}

TEST(Spec, HeadlessEntriesRequireAssignments)
{
    const SpecResult<std::vector<SpecEntry>> ok =
        parseSpec("a=1:b=2", false);
    ASSERT_TRUE(bool(ok));
    EXPECT_EQ((*ok)[0].head(), "");
    EXPECT_EQ((*ok)[0].size(), 2u);

    const SpecResult<std::vector<SpecEntry>> bad =
        parseSpec("justaname", false);
    ASSERT_FALSE(bool(bad));
    EXPECT_NE(bad.error().render().find("key=value"), std::string::npos);
}

// ---------------------------------------------------------------------
// Rejection table: every malformed spec names the bad token.
// ---------------------------------------------------------------------

TEST(Spec, RejectionTable)
{
    struct Case {
        const char *spec;
        const char *needle; //!< must appear in render()
    };
    const Case cases[] = {
        {";web", "empty entry"},
        {"web;;churn", "empty entry"},
        {":low=0.5", "no leading name"},
        {"web:low", "key=value"},
        {"web:=0.5", "key=value"},
        {"web:low=0.5:low=0.6", "duplicate key 'low'"},
    };
    for (const Case &c : cases) {
        const SpecResult<std::vector<SpecEntry>> parsed =
            parseSpec(c.spec, true);
        ASSERT_FALSE(bool(parsed)) << c.spec;
        EXPECT_NE(parsed.error().render().find(c.needle),
                  std::string::npos)
            << c.spec << " -> " << parsed.error().render();
    }
}

// ---------------------------------------------------------------------
// Typed getters
// ---------------------------------------------------------------------

TEST(Spec, GettersRoundTripAndConsume)
{
    const SpecResult<std::vector<SpecEntry>> parsed = parseSpec(
        "web:wss=4096:low=0.25:place=cxl_only:note=hi", true);
    ASSERT_TRUE(bool(parsed));
    const SpecEntry &e = (*parsed)[0];

    std::uint64_t wss = 0;
    double low = 1.0;
    std::string place = "none";
    std::string note;
    EXPECT_TRUE(bool(e.getU64("wss", &wss, 1)));
    EXPECT_TRUE(bool(e.getDouble("low", &low, 0.0, 1.0)));
    EXPECT_TRUE(bool(
        e.getKeyword("place", &place, {"none", "local_only", "cxl_only"})));
    EXPECT_TRUE(bool(e.getString("note", &note)));
    EXPECT_EQ(wss, 4096u);
    EXPECT_DOUBLE_EQ(low, 0.25);
    EXPECT_EQ(place, "cxl_only");
    EXPECT_EQ(note, "hi");
    EXPECT_TRUE(bool(e.finish("wss, low, place, note")));
}

TEST(Spec, AbsentKeyLeavesDefaultUntouched)
{
    const SpecResult<std::vector<SpecEntry>> parsed =
        parseSpec("web", true);
    ASSERT_TRUE(bool(parsed));
    double low = 0.75;
    EXPECT_TRUE(bool((*parsed)[0].getDouble("low", &low, 0.0, 1.0)));
    EXPECT_DOUBLE_EQ(low, 0.75);
}

TEST(Spec, GetterRejectionTable)
{
    struct Case {
        const char *spec;
        const char *needle;
    };
    const Case cases[] = {
        {"web:wss=abc", "unsigned integer"},
        {"web:wss=-1", "unsigned integer"},
        {"web:wss=4.5", "unsigned integer"},
        {"web:low=nope", "expected a number"},
        {"web:low=1.5", "out of [0, 1]"},
        {"web:low=inf", "out of [0, 1]"},
        {"web:low=nan", "out of [0, 1]"}, // nan parses, fails range
        {"web:place=mars", "none, local_only, cxl_only"},
    };
    for (const Case &c : cases) {
        const SpecResult<std::vector<SpecEntry>> parsed =
            parseSpec(c.spec, true);
        ASSERT_TRUE(bool(parsed)) << c.spec;
        const SpecEntry &e = (*parsed)[0];
        std::uint64_t u = 0;
        double d = 0.0;
        std::string s;
        SpecResult<void> got = e.getU64("wss", &u, 1);
        if (bool(got))
            got = e.getDouble("low", &d, 0.0, 1.0);
        if (bool(got)) {
            got = e.getKeyword("place", &s,
                               {"none", "local_only", "cxl_only"});
        }
        ASSERT_FALSE(bool(got)) << c.spec;
        EXPECT_NE(got.error().render().find(c.needle), std::string::npos)
            << c.spec << " -> " << got.error().render();
    }
}

TEST(Spec, FinishRejectsUnconsumedKeysQuotingToken)
{
    const SpecResult<std::vector<SpecEntry>> parsed =
        parseSpec("web:color=red", true);
    ASSERT_TRUE(bool(parsed));
    const SpecResult<void> done = (*parsed)[0].finish("wss, low");
    ASSERT_FALSE(bool(done));
    const std::string msg = done.error().render();
    EXPECT_NE(msg.find("unknown key 'color'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("wss, low"), std::string::npos) << msg;
    EXPECT_NE(msg.find("color=red"), std::string::npos) << msg;
}

TEST(Spec, ConsumeAllSatisfiesFinish)
{
    const SpecResult<std::vector<SpecEntry>> parsed =
        parseSpec("node:any=1:thing=2", true);
    ASSERT_TRUE(bool(parsed));
    (*parsed)[0].consumeAll();
    EXPECT_TRUE(bool((*parsed)[0].finish("(anything)")));
}

// ---------------------------------------------------------------------
// Helpers under the bench flags
// ---------------------------------------------------------------------

TEST(Spec, ParseAssignment)
{
    const SpecResult<std::pair<std::string, std::string>> ok =
        parseAssignment("kernel.numa_balancing=1");
    ASSERT_TRUE(bool(ok));
    EXPECT_EQ(ok->first, "kernel.numa_balancing");
    EXPECT_EQ(ok->second, "1");

    for (const char *bad : {"", "noequals", "=value"}) {
        const SpecResult<std::pair<std::string, std::string>> got =
            parseAssignment(bad);
        ASSERT_FALSE(bool(got)) << bad;
        EXPECT_NE(got.error().render().find("name=value"),
                  std::string::npos)
            << bad;
    }
}

TEST(Spec, ParseRatioSpec)
{
    const SpecResult<double> one_to_four = parseRatioSpec("1:4");
    ASSERT_TRUE(bool(one_to_four));
    EXPECT_DOUBLE_EQ(*one_to_four, 0.2);

    const SpecResult<double> two_to_one = parseRatioSpec("2:1");
    ASSERT_TRUE(bool(two_to_one));
    EXPECT_DOUBLE_EQ(*two_to_one, 2.0 / 3.0);

    for (const char *bad : {"", "2", "2:", ":1", "a:b", "0:0", "-1:4"}) {
        const SpecResult<double> got = parseRatioSpec(bad);
        ASSERT_FALSE(bool(got)) << bad;
        EXPECT_NE(got.error().render().find("capacity ratio"),
                  std::string::npos)
            << bad << " -> " << got.error().render();
    }
}

TEST(Spec, ParseSpecU64Strictness)
{
    const SpecResult<std::uint64_t> ok = parseSpecU64("4096", 1);
    ASSERT_TRUE(bool(ok));
    EXPECT_EQ(*ok, 4096u);

    EXPECT_FALSE(bool(parseSpecU64("", 0)));
    EXPECT_FALSE(bool(parseSpecU64("12abc", 0)));
    EXPECT_FALSE(bool(parseSpecU64("-3", 0)));
    EXPECT_FALSE(bool(parseSpecU64("99999999999999999999999", 0)));
    EXPECT_FALSE(bool(parseSpecU64("0", 1))); // below min
}

TEST(Spec, ParseSpecDoubleStrictness)
{
    const SpecResult<double> ok = parseSpecDouble("5e5", 0.0, 1e9);
    ASSERT_TRUE(bool(ok));
    EXPECT_DOUBLE_EQ(*ok, 5e5);

    EXPECT_FALSE(bool(parseSpecDouble("", 0.0, 1.0)));
    EXPECT_FALSE(bool(parseSpecDouble("1.5x", 0.0, 10.0)));
    EXPECT_FALSE(bool(parseSpecDouble("nan", 0.0, 1.0)));
    EXPECT_FALSE(bool(parseSpecDouble("inf", 0.0, 1e9)));
    EXPECT_FALSE(bool(parseSpecDouble("2", 0.0, 1.0))); // above max
}

TEST(Spec, RenderQuotesToken)
{
    const SpecError with{"bad value", "qps=-5"};
    EXPECT_EQ(with.render(), "bad value (at 'qps=-5')");
    const SpecError without{"bad value", ""};
    EXPECT_EQ(without.render(), "bad value");
}

// Expected<T, E> itself: value/error duality the sweep relies on.
TEST(Spec, ExpectedValueAndError)
{
    SpecResult<int> v{42};
    ASSERT_TRUE(bool(v));
    EXPECT_EQ(*v, 42);

    SpecResult<int> e = specError("boom", "tok");
    ASSERT_FALSE(bool(e));
    EXPECT_EQ(e.error().message, "boom");
    EXPECT_EQ(e.error().token, "tok");
}

// ---------------------------------------------------------------------
// Shard geometry: ExperimentConfig::validate() rejects bad region
// decompositions, naming the offending value. Before the checks landed
// these configs sailed through validate() and fataled (or built
// degenerate zero-capacity nodes) deep inside the machine build; bench
// binaries now refuse them with the spec-flag exit status (2) instead.
// ---------------------------------------------------------------------

TEST(Spec, ShardGeometryRejectionTable)
{
    struct Case {
        const char *tag;
        std::uint32_t shards;
        std::uint32_t regions;
        std::uint64_t wssPages;
        const char *needle; //!< must appear in render()
        const char *token;  //!< bad value validate() must quote
    };
    const Case cases[] = {
        // Zero workers can tick nothing.
        {"zero_shards", 0, 0, 8192, "shards must be >= 1", "0"},
        // More regions than the machine has frames (local + cxl).
        {"regions_beyond_frames", 4096, 0, 1024,
         "exceed the machine's frame count", "4096"},
        // Slicing 8192 pages 512 ways leaves each region's local tier
        // (~10 pages) inside its own watermark ladder: the region
        // would live in direct reclaim from the first fault.
        {"region_below_watermark_gap", 512, 0, 8192,
         "smaller than one watermark gap", "512"},
        // Same rejection when the decomposition comes from
        // shardRegions rather than the worker count.
        {"pinned_regions_below_gap", 1, 512, 8192,
         "smaller than one watermark gap", "512"},
    };
    for (const Case &c : cases) {
        ExperimentConfig cfg;
        cfg.wssPages = c.wssPages;
        cfg.shards = c.shards;
        cfg.shardRegions = c.regions;
        const SpecResult<void> valid = cfg.validate();
        ASSERT_FALSE(bool(valid)) << c.tag;
        EXPECT_NE(valid.error().render().find(c.needle),
                  std::string::npos)
            << c.tag << " -> " << valid.error().render();
        EXPECT_EQ(valid.error().token, c.token) << c.tag;
    }

    // The boundary holds in the other direction: geometries every test
    // and bench actually uses stay accepted.
    for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        ExperimentConfig cfg;
        cfg.wssPages = 8192;
        cfg.shards = shards;
        EXPECT_TRUE(bool(cfg.validate())) << shards;
    }
}

TEST(Spec, ShardsRejectIncompatibleObservers)
{
    // The shard engine simulates R isolated machines; the single-stack
    // observers (profiler, tracing, series, hot-set truth, open loop,
    // tenants) have no aggregate story yet and are refused up front.
    const auto reject = [](void (*mutate)(ExperimentConfig &),
                           const char *needle) {
        ExperimentConfig cfg;
        cfg.wssPages = 8192;
        cfg.shards = 4;
        mutate(cfg);
        const SpecResult<void> valid = cfg.validate();
        ASSERT_FALSE(bool(valid)) << needle;
        EXPECT_NE(valid.error().render().find(needle), std::string::npos)
            << valid.error().render();
    };
    reject(
        [](ExperimentConfig &c) {
            TenantSpec web;
            web.workload = "web";
            c.tenants.push_back(web);
        },
        "tenants");
    reject([](ExperimentConfig &c) { c.openLoop.qps = 1e5; },
           "open-loop");
    reject([](ExperimentConfig &c) { c.withChameleon = true; },
           "Chameleon");
    reject([](ExperimentConfig &c) { c.measureHotness = true; },
           "measureHotness");
    reject([](ExperimentConfig &c) { c.traceEnabled = true; },
           "tracing");
    reject([](ExperimentConfig &c) { c.sampleSeries = true; },
           "sampleSeries");
}

// ---------------------------------------------------------------------
// Tenant configs that used to pass validate() and then fatal inside the
// run: both are refused up front now, naming the bad token.
// ---------------------------------------------------------------------

TEST(Spec, TenantsRejectChameleon)
{
    ExperimentConfig cfg;
    cfg.wssPages = 8192;
    cfg.tenants = *parseTenants("web;churn");
    ASSERT_TRUE(bool(cfg.validate()));
    cfg.withChameleon = true;
    const SpecResult<void> valid = cfg.validate();
    ASSERT_FALSE(bool(valid));
    EXPECT_NE(valid.error().render().find("Chameleon"), std::string::npos)
        << valid.error().render();
    EXPECT_EQ(valid.error().token, "web+churn");
}

TEST(Spec, TenantsRejectZeroPageEqualShare)
{
    ExperimentConfig cfg;
    cfg.wssPages = 3;
    cfg.tenants = *parseTenants("cache1:wss=1;web;dwh;churn");
    const SpecResult<void> valid = cfg.validate();
    ASSERT_FALSE(bool(valid));
    EXPECT_NE(valid.error().render().find("zero pages"), std::string::npos)
        << valid.error().render();
    // The first tenant names its own wss; the second is the first whose
    // equal share (3 / 4 pages) rounds to nothing.
    EXPECT_EQ(valid.error().token, "web");

    // Four pages split four ways is one page each: accepted.
    cfg.wssPages = 4;
    EXPECT_TRUE(bool(cfg.validate())) << cfg.validate().error().render();
}

} // namespace
