/**
 * @file
 * The bench harness: sample statistics, round-robin order with
 * `enter` outside the timed span, argument parsing, and the one JSON
 * schema every measured bench writes.
 */

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"

namespace bertprof::bench {
namespace {

TEST(BenchHarnessStats, OddSampleMedianAndQuartiles)
{
    const Stats s = summarize({5.0, 1.0, 3.0, 2.0, 4.0});
    EXPECT_EQ(s.n, 5);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_DOUBLE_EQ(s.q1, 2.0);
    EXPECT_DOUBLE_EQ(s.q3, 4.0);
    // The sample keeps run order, so reps can be paired later.
    EXPECT_EQ(s.samples, (std::vector<double>{5.0, 1.0, 3.0, 2.0, 4.0}));
}

TEST(BenchHarnessStats, EvenSampleInterpolates)
{
    const Stats s = summarize({4.0, 1.0, 3.0, 2.0});
    EXPECT_EQ(s.n, 4);
    EXPECT_DOUBLE_EQ(s.median, 2.5);
    EXPECT_DOUBLE_EQ(s.q1, 1.75);
    EXPECT_DOUBLE_EQ(s.q3, 3.25);

    const Stats two = summarize({10.0, 20.0});
    EXPECT_DOUBLE_EQ(two.median, 15.0);
    EXPECT_DOUBLE_EQ(two.q1, 12.5);
    EXPECT_DOUBLE_EQ(two.q3, 17.5);
}

TEST(BenchHarnessStats, SingleAndEmptySamples)
{
    const Stats one = summarize({7.0});
    EXPECT_EQ(one.n, 1);
    EXPECT_DOUBLE_EQ(one.median, 7.0);
    EXPECT_DOUBLE_EQ(one.q1, 7.0);
    EXPECT_DOUBLE_EQ(one.q3, 7.0);

    const Stats none = summarize({});
    EXPECT_EQ(none.n, 0);
    EXPECT_DOUBLE_EQ(none.median, 0.0);
}

TEST(BenchHarnessStats, PairedRatioDividesRepByRep)
{
    const Stats num = summarize({2.0, 6.0, 12.0});
    const Stats den = summarize({1.0, 3.0, 3.0});
    const Stats r = pairedRatio(num, den);
    EXPECT_EQ(r.samples, (std::vector<double>{2.0, 2.0, 4.0}));
    EXPECT_DOUBLE_EQ(r.median, 2.0);
    EXPECT_DOUBLE_EQ(r.q3, 3.0);
}

TEST(BenchHarnessStats, PairedRatioOverZeroBaseIsUndefined)
{
    const Stats r =
        pairedRatio(summarize({2.0, 0.0, 3.0}), summarize({1.0, 0.0, 1.0}));
    EXPECT_TRUE(r.zeroBase);
    EXPECT_EQ(r.n, 3);
    EXPECT_TRUE(std::isnan(r.median));
    EXPECT_FALSE(pairedRatio(summarize({1.0}), summarize({2.0})).zeroBase);

    // The report tells a zero base from an effect lost in the spread.
    Report report("bench_x", false, {});
    report.stats("goodput_ratio", "x", r);
    report.add({"overhead", NAN, "%", 3, -1.0, 1.0});
    const std::string text = report.text();
    EXPECT_NE(text.find("zero base"), std::string::npos);
    EXPECT_NE(text.find("unresolved"), std::string::npos);
    EXPECT_NE(report.json().find(
                  "{\"name\": \"goodput_ratio\", \"value\": null, "
                  "\"unit\": \"x\", \"n\": 3, \"q1\": null, "
                  "\"q3\": null, \"zero_base\": true}"),
              std::string::npos);
    EXPECT_NE(report.json().find(
                  "\"q1\": -1, \"q3\": 1}"),
              std::string::npos);
}

TEST(BenchHarnessRoundRobin, DeclaredOrderAndEnterIsNeverTimed)
{
    // A fake clock: time moves only when enter or body say so, and
    // every clock read is logged, so the log shows exactly which
    // calls sit between the reads that bound a timed span.
    double now = 0.0;
    std::vector<std::string> log;
    const Clock read = [&] {
        log.push_back("t");
        return now;
    };
    std::vector<Config> configs;
    for (int c = 0; c < 3; ++c) {
        const std::string id = std::to_string(c);
        configs.push_back({[&, id] {
                               log.push_back("e" + id);
                               now += 1000.0;
                           },
                           [&, id, c] {
                               log.push_back("b" + id);
                               now += c + 1.0;
                           }});
    }
    const int reps = 4;
    const std::vector<Stats> stats = runRoundRobin(configs, reps, read);

    ASSERT_EQ(stats.size(), 3u);
    for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(stats[c].n, reps); // the warm-up rep is not kept
        EXPECT_EQ(stats[c].samples,
                  std::vector<double>(reps, c + 1.0));
    }
    std::vector<std::string> expected;
    for (int r = 0; r < reps + 1; ++r)
        for (int c = 0; c < 3; ++c) {
            const std::string id = std::to_string(c);
            for (const std::string &e : {"e" + id, std::string("t"),
                                         "b" + id, std::string("t")})
                expected.push_back(e);
        }
    EXPECT_EQ(log, expected);
}

TEST(BenchHarnessRoundRobin, EmptyEnterIsSkipped)
{
    int bodies = 0;
    const std::vector<Stats> stats =
        runRoundRobin({{nullptr, [&] { ++bodies; }}}, 2);
    EXPECT_EQ(bodies, 3);
    EXPECT_EQ(stats[0].n, 2);
}

TEST(BenchHarnessArgs, SharedAndBenchFlags)
{
    const char *argv[] = {"bench", "--quick", "--json", "out.json",
                          "--overload", "--record", "x.bptr"};
    const Args args =
        parseArgs(7, const_cast<char **>(argv), {"--overload"},
                  {"--record"});
    EXPECT_TRUE(args.quick);
    EXPECT_EQ(args.jsonPath, "out.json");
    EXPECT_TRUE(args.has("--overload"));
    EXPECT_EQ(args.extra.at("--record"), "x.bptr");

    const char *bare[] = {"bench"};
    const Args none = parseArgs(1, const_cast<char **>(bare));
    EXPECT_FALSE(none.quick);
    EXPECT_TRUE(none.jsonPath.empty());
    EXPECT_FALSE(none.has("--overload"));
}

TEST(BenchHarnessReport, RateSwapsQuartiles)
{
    Report report("bench_x", false, {});
    report.rate("r", "GFLOP/s", 8.0, summarize({1.0, 2.0, 4.0}));
    const Metric &m = report.metrics().at(0);
    EXPECT_DOUBLE_EQ(m.value, 4.0);
    EXPECT_DOUBLE_EQ(m.q1, 8.0 / 3.0); // work / slow quartile
    EXPECT_DOUBLE_EQ(m.q3, 8.0 / 1.5);
    EXPECT_EQ(m.n, 3);
}

TEST(BenchHarnessReport, JsonMatchesGolden)
{
    Report report("bench_\"golden\"", true, {4, 8, "avx512", true});
    report.config("d_model", 128);
    report.config("label", "a\"b\\c\nd\te\x01");
    report.millis("case.time", summarize({0.001, 0.002, 0.003}));
    report.value("case.count", 42, "count");
    report.add({"case.overhead", NAN, "%", 5, -1.5, 2.25});

    const std::string golden =
        "{\n"
        "  \"bench\": \"bench_\\\"golden\\\"\",\n"
        "  \"quick\": true,\n"
        "  \"threads\": 4,\n"
        "  \"hardware_concurrency\": 8,\n"
        "  \"gemm_isa\": \"avx512\",\n"
        "  \"native_build\": true,\n"
        "  \"config\": {\"d_model\": 128, "
        "\"label\": \"a\\\"b\\\\c\\nd\\te\\u0001\"},\n"
        "  \"metrics\": [\n"
        "    {\"name\": \"case.time\", \"value\": 2, \"unit\": \"ms\", "
        "\"n\": 3, \"q1\": 1.5, \"q3\": 2.5},\n"
        "    {\"name\": \"case.count\", \"value\": 42, \"unit\": "
        "\"count\", \"n\": 1, \"q1\": null, \"q3\": null},\n"
        "    {\"name\": \"case.overhead\", \"value\": null, \"unit\": "
        "\"%\", \"n\": 5, \"q1\": -1.5, \"q3\": 2.25}\n"
        "  ]\n"
        "}\n";
    EXPECT_EQ(report.json(), golden);

    const std::string text = report.text();
    EXPECT_NE(text.find("unresolved"), std::string::npos);
    EXPECT_NE(text.find("config: d_model=128"), std::string::npos);
    EXPECT_NE(text.find("threads=4, hardware_concurrency=8, gemm_isa=avx512, "
                        "native_build=true"),
              std::string::npos);
}

} // namespace
} // namespace bertprof::bench
