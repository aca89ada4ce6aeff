/**
 * @file
 * Tests of the benchmark's own rules: percentiles and sample counts,
 * ratios and their bases, failed-op accounting, span self time, that
 * a seed fixes every simulated metric, and host pacing.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "configs.hh"
#include "pace.hh"
#include "spans.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace perfbench;
using bluedbm::sim::LatencyHistogram;
using bluedbm::sim::Tick;
using bluedbm::sim::Tracer;

TEST(Percentiles, SamplesNeededBeyondEachQuantile)
{
    EXPECT_EQ(minSamplesFor(0.5), 20u);
    EXPECT_EQ(minSamplesFor(0.99), 1000u);
    EXPECT_EQ(minSamplesFor(0.999), 10000u);
}

TEST(Percentiles, TooFewSamplesFallBackToTheHighestSupportedQuantile)
{
    EXPECT_EQ(reportableQuantile(0.99, 0), 0.0);
    EXPECT_EQ(reportableQuantile(0.99, 1000), 0.99);
    EXPECT_DOUBLE_EQ(reportableQuantile(0.99, 500), 0.98);
    EXPECT_EQ(reportableQuantile(0.999, 10000), 0.999);
    EXPECT_DOUBLE_EQ(reportableQuantile(0.999, 2000), 0.995);
    // Never below the median, however few samples there are.
    EXPECT_EQ(reportableQuantile(0.99, 12), 0.5);
}

TEST(Percentiles, NearestRankLikeTheHistogram)
{
    std::vector<double> v;
    LatencyHistogram h;
    for (int i = 100; i >= 1; --i) {
        v.push_back(i);
        h.record(std::uint64_t(i));
    }
    EXPECT_EQ(exactQuantile(v, 0.5), 50.0);
    EXPECT_EQ(exactQuantile(v, 0.99), 99.0);
    EXPECT_EQ(exactQuantile(v, 1.0), 100.0);
    // Below 256 ticks every value has its own bucket: interpolation
    // adds nothing.
    for (double q : {0.1, 0.5, 0.9, 0.99})
        EXPECT_EQ(interpolatedQuantile(h, q), double(h.quantile(q))) << q;
    std::vector<double> empty;
    EXPECT_EQ(exactQuantile(empty, 0.5), 0.0);
    EXPECT_EQ(interpolatedQuantile(LatencyHistogram{}, 0.5), 0.0);
}

TEST(Percentiles, InterpolationStaysInsideTheBucketAndGrowsWithRank)
{
    LatencyHistogram h;
    const std::uint64_t v = 1000003; // one bucket, 4096 ticks wide
    for (int i = 0; i < 1000; ++i)
        h.record(v);
    double prev = 0.0;
    for (double q : {0.1, 0.5, 0.9, 0.99}) {
        double x = interpolatedQuantile(h, q);
        EXPECT_GE(x, double(bucketFloor(v)));
        EXPECT_LE(x, double(v));
        EXPECT_GT(x, prev);
        prev = x;
    }
    EXPECT_EQ(interpolatedQuantile(h, 1.0), double(v));
}

TEST(Percentiles, InterpolationTracksExactOrderStatistics)
{
    LatencyHistogram h;
    std::vector<double> v;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        std::uint64_t x = 50000 + (i * 7919) % 200000;
        h.record(x);
        v.push_back(double(x));
    }
    for (double q : {0.5, 0.99, 0.999}) {
        double exact = exactQuantile(v, q);
        // Within one bucket (1/128 of the value) of the exact rank.
        EXPECT_NEAR(interpolatedQuantile(h, q), exact, exact / 128) << q;
    }
}

TEST(Ratios, EveryRatioCarriesItsBase)
{
    MetricSet m;
    m.addRatio("net.msgs_per_op", 300, 100, "1/op", "base.attempted");
    m.addRatio("kv.shed_frac", 5, 100, "frac", "base.attempted");
    m.addRatio("fs.write_amp", 0, 0, "x", "base.fs_pages_written");
    m.add("sim_p50_us", 12.5, "us");
    for (const auto &x : m.all()) {
        if (x.base.empty())
            continue;
        const MetricSet::Metric *b = m.find(x.base);
        ASSERT_NE(b, nullptr) << x.name;
        EXPECT_EQ(b->unit, "count");
    }
    EXPECT_EQ(m.find("net.msgs_per_op")->value, 3.0);
    EXPECT_EQ(m.find("base.attempted")->value, 100.0);
    // An empty base reads 0, not NaN, and still reports its base.
    EXPECT_EQ(m.find("fs.write_amp")->value, 0.0);
    EXPECT_EQ(m.find("base.fs_pages_written")->value, 0.0);
    EXPECT_TRUE(m.mismatchedBases().empty());
    // One base name must mean one count.
    m.addRatio("kv.cache_hit_frac", 1, 99, "frac", "base.attempted");
    ASSERT_EQ(m.mismatchedBases().size(), 1u);
    EXPECT_EQ(m.mismatchedBases()[0], "base.attempted");
}

TEST(Failures, ShedErroredAndNeverCompletedOpsAllCount)
{
    OpAccount a;
    a.attempted = 100;
    a.completed = 90; // 10 still outstanding when the simulator idled
    a.rejected = 3;
    a.errored = 2;
    EXPECT_EQ(a.stuck(), 10u);
    EXPECT_EQ(a.failed(), 15u);

    MetricSet m;
    reportEndToEnd(m, a, LatencyHistogram{}, LatencyHistogram{},
                   LatencyHistogram{}, 1.0);
    EXPECT_DOUBLE_EQ(m.find("failed_op_frac")->value, 0.15);
    EXPECT_DOUBLE_EQ(m.find("ok_op_frac")->value, 0.85);
    EXPECT_EQ(m.find("base.attempted")->value, 100.0);
    MetricSet none;
    reportEndToEnd(none, OpAccount{}, LatencyHistogram{},
                   LatencyHistogram{}, LatencyHistogram{}, 0.0);
    EXPECT_EQ(none.find("failed_op_frac")->value, 0.0);
    std::string json = resultJson(true, a, m, {"failed_op_frac"});
    EXPECT_NE(json.find("\"attempted\": 100, \"failed\": 15"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"failed_op_frac\": {\"value\": 0.1499"),
              std::string::npos)
        << json;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    auto span = [](const char *name, Tick b, Tick e, std::uint32_t p) {
        Tracer::Span s;
        s.name = name;
        s.begin = b;
        s.end = e;
        s.parent = p;
        return s;
    };
    Tracer::Trace t;
    t.spans = {span("kv.get", 0, 100, Tracer::noParent),
               span("svc.queue", 0, 10, 0),  span("route", 10, 100, 0),
               span("net.req", 10, 22, 2),   span("shard.get", 20, 90, 2),
               span("fs.read", 30, 80, 4),   span("nand.read", 40, 70, 5),
               span("net.resp", 90, 100, 2)};
    SpanSummary sum;
    summarizeSpans({t}, sum);
    EXPECT_EQ(sum.roots, 1u);
    EXPECT_EQ(sum.rootTicks, 100.0);
    // Overlapping children count once: route is fully covered.
    EXPECT_EQ(sum.selfTicks["route"], std::vector<double>{0.0});
    EXPECT_EQ(sum.selfTicks["shard.get"], std::vector<double>{20.0});
    EXPECT_EQ(sum.selfTicks["fs.read"], std::vector<double>{20.0});
    EXPECT_EQ(sum.selfTicks["nand.read"], std::vector<double>{30.0});
    EXPECT_EQ(sum.selfTicks["net.req"], std::vector<double>{12.0});
    // Leaves are stage work; gaps inside shard.get and fs.read that
    // no child explains are unattributed.
    EXPECT_EQ(sum.unattributedTicks, 40.0);
}

namespace {

PhaseResult
smallPhase(Workload w, std::uint64_t seed, bool traced = false)
{
    PhaseOptions o;
    o.seed = seed;
    o.ops = w == Workload::IspScan ? 4000 : 6000;
    o.traced = traced;
    return runPhase(w, o);
}

void
expectSameSim(const MetricSet &a, const MetricSet &b)
{
    ASSERT_EQ(a.all().size(), b.all().size());
    for (const auto &m : a.all()) {
        const MetricSet::Metric *o = b.find(m.name);
        ASSERT_NE(o, nullptr) << m.name;
        EXPECT_EQ(o->value, m.value) << m.name;
    }
}

} // namespace

class Determinism : public ::testing::TestWithParam<Workload>
{
};

TEST_P(Determinism, SameSeedSameSimMetricsOtherSeedOtherMetrics)
{
    PhaseResult a = smallPhase(GetParam(), 7);
    PhaseResult b = smallPhase(GetParam(), 7);
    PhaseResult c = smallPhase(GetParam(), 8);
    ASSERT_TRUE(a.correct) << a.error;
    ASSERT_TRUE(c.correct) << c.error;
    EXPECT_EQ(a.ops.failed(), 0u);
    expectSameSim(a.sim, b.sim);
    EXPECT_NE(a.sim.find("sim_tput_ops")->value,
              c.sim.find("sim_tput_ops")->value);
    EXPECT_NE(a.sim.find("sim_p99_us")->value,
              c.sim.find("sim_p99_us")->value);
}

TEST_P(Determinism, TracingLeavesTheSimulationUnchanged)
{
    PhaseResult a = smallPhase(GetParam(), 3);
    PhaseResult t = smallPhase(GetParam(), 3, true);
    ASSERT_TRUE(t.correct) << t.error;
    for (const auto &m : a.sim.all())
        EXPECT_EQ(t.sim.find(m.name)->value, m.value) << m.name;
    // isp_scan's reads carry no trace handle: only KV ops have spans.
    EXPECT_EQ(t.sim.find("base.traced_roots")->value > 0.0,
              isKv(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Workloads, Determinism,
                         ::testing::Values(Workload::KvRead,
                                           Workload::KvWrite,
                                           Workload::IspScan));

TEST(Stuck, ReadsLostToACreditCycleFailTheRun)
{
    // An 8-node ring with 64 reads outstanding per node deadlocks on
    // lane credits (docs/kernel.md): the simulator goes idle with
    // reads outstanding, and those reads must count as failed.
    IspConfig c;
    c.nodes = 8;
    c.window = 64;
    c.ops = 8 * 700;
    PhaseOptions o;
    o.seed = 1;
    PhaseResult r = runIspScan(c, o);
    EXPECT_GT(r.ops.stuck(), 0u);
    EXPECT_EQ(r.ops.failed(), r.ops.stuck());
    EXPECT_FALSE(r.correct);
    EXPECT_NE(r.error.find("never completed"), std::string::npos);
}

TEST(Stuck, TheBenchmarkWindowCompletes)
{
    PhaseOptions o;
    o.seed = 1;
    PhaseResult r = runIspScan(IspConfig{}, o);
    EXPECT_EQ(r.ops.stuck(), 0u);
    EXPECT_TRUE(r.correct) << r.error;
}

TEST(HostPace, ScaleIsTheReferenceOverTheMeanQuantum)
{
    HostPace p;
    EXPECT_EQ(p.refScale(), 1.0);
    double s = p.quantum() + p.quantum();
    EXPECT_GT(s, 0.0);
    EXPECT_DOUBLE_EQ(p.spent(), s);
    EXPECT_DOUBLE_EQ(p.refScale(), HostPace::kRefQuantumSec * 2.0 / s);
}

TEST(HostPace, EveryPhaseIsPaced)
{
    // Set-up quanta always run, so a phase's scale is measured, never
    // the 1.0 of an unpaced one.
    for (Workload w : {Workload::KvRead, Workload::IspScan}) {
        PhaseResult r = smallPhase(w, 5);
        ASSERT_TRUE(r.correct) << r.error;
        EXPECT_GT(r.phaseSec, 0.0);
        EXPECT_GT(r.refScale, 0.0);
        EXPECT_NE(r.refScale, 1.0);
    }
}
