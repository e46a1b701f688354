// The benchmark's own checks at small packet counts: determinism, the
// outside-in stack pass against the runner, the DRAM replay against the
// in-situ controllers, and sharded conservation.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "bench.hpp"
#include "workload/compose.hpp"

namespace {

using perfbench::u64;

constexpr u64 kPackets = 4000;

const perfbench::Workload& workload(const std::string& name) {
    const perfbench::Workload* found = perfbench::find_workload(name);
    if (found == nullptr) throw std::runtime_error("no workload " + name);
    return *found;
}

/// Every check whose name starts with `prefix` passed, and there was one.
void expect_checks(const perfbench::Ledger& ledger, const std::string& prefix) {
    int matched = 0;
    for (const perfbench::Check& check : ledger.checks) {
        if (check.name.rfind(prefix, 0) != 0) continue;
        ++matched;
        EXPECT_TRUE(check.ok) << check.name << ": " << check.detail;
    }
    EXPECT_GT(matched, 0) << "no check named " << prefix << "*";
}

TEST(PerfbenchTest, SameSeedRepeatsFingerprint) {
    for (const perfbench::Workload& w : perfbench::workloads()) {
        const perfbench::Rep first = perfbench::run_rep(w, 7, kPackets, false, false);
        const perfbench::Rep second = perfbench::run_rep(w, 7, kPackets, false, false);
        ASSERT_TRUE(first.ok) << w.name << ": " << first.error;
        ASSERT_TRUE(second.ok) << w.name << ": " << second.error;
        EXPECT_EQ(first.metrics.completions, kPackets) << w.name;
        EXPECT_EQ(perfbench::fingerprint(first.metrics), perfbench::fingerprint(second.metrics))
            << w.name;
        EXPECT_GT(first.setup_s, 0.0) << w.name;
        EXPECT_GT(first.window_s, 0.0) << w.name;
    }
}

TEST(PerfbenchTest, DifferentSeedDrawsDifferentStream) {
    const perfbench::Workload& w = workload("fig6_lookup");
    auto a = flowcam::workload::make_scenario(w.scenario, perfbench::scenario_config(1, kPackets));
    auto b = flowcam::workload::make_scenario(w.scenario, perfbench::scenario_config(2, kPackets));
    ASSERT_TRUE(a && b);
    int differing = 0;
    for (int i = 0; i < 100; ++i) {
        const flowcam::net::PacketRecord ra = a.value()->next();
        const flowcam::net::PacketRecord rb = b.value()->next();
        if (!(ra.tuple == rb.tuple) || ra.timestamp_ns != rb.timestamp_ns) ++differing;
    }
    EXPECT_GT(differing, 50);
    const perfbench::Rep first = perfbench::run_rep(w, 1, kPackets, false, false);
    const perfbench::Rep second = perfbench::run_rep(w, 2, kPackets, false, false);
    EXPECT_NE(perfbench::fingerprint(first.metrics), perfbench::fingerprint(second.metrics));
}

TEST(PerfbenchTest, StackPassMatchesRunner) {
    for (const char* name : {"fig6_lookup", "churn_expiry", "flood_sharded"}) {
        const perfbench::Ledger ledger = perfbench::run_ledger(workload(name), 3, kPackets);
        expect_checks(ledger, "stack.");
        expect_checks(ledger, "core.");
        EXPECT_EQ(ledger.completions, kPackets) << name;
    }
}

TEST(PerfbenchTest, DramReplayMatchesInSitu) {
    // Long enough under compressed time for expiry, Del_req and burst writes.
    const perfbench::Ledger ledger = perfbench::run_ledger(workload("churn_expiry"), 5, 30'000);
    expect_checks(ledger, "dram.");
    EXPECT_GT(ledger.metrics.at("core.expired"), 0.0);
    EXPECT_GT(ledger.metrics.at("core.deletes_applied"), 0.0);
    EXPECT_GT(ledger.metrics.at("dram.write_share"), 0.0);
}

TEST(PerfbenchTest, ShardedTotalsConserved) {
    const perfbench::Workload& w = workload("flood_sharded");
    const perfbench::Ledger ledger = perfbench::run_ledger(w, 9, kPackets);
    expect_checks(ledger, "shard.");
    EXPECT_EQ(ledger.metrics.at("workload.recs_per_pkt"), 8.0);
    const perfbench::Rep sharded = perfbench::run_rep(w, 9, kPackets, false, false);
    const perfbench::Rep monolithic = perfbench::run_rep(w, 9, kPackets, false, true);
    ASSERT_TRUE(sharded.ok && monolithic.ok);
    EXPECT_EQ(sharded.metrics.packets, monolithic.metrics.packets);
    EXPECT_EQ(sharded.metrics.completions, monolithic.metrics.completions);
}

TEST(PerfbenchTest, LedgerReportsEveryMetric) {
    const perfbench::Ledger ledger = perfbench::run_ledger(workload("fig6_lookup"), 1, kPackets);
    for (const auto& [name, unit] : perfbench::ledger_units()) {
        const auto it = ledger.metrics.find(name);
        ASSERT_NE(it, ledger.metrics.end()) << name;
        EXPECT_TRUE(std::isfinite(it->second)) << name;
    }
    EXPECT_EQ(ledger.metrics.size(), perfbench::ledger_units().size());
    EXPECT_EQ(ledger.metrics.at("workload.recs_per_pkt"), 1.0);
}

}  // namespace
