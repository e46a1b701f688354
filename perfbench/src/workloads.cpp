#include <algorithm>
#include <chrono>
#include <ctime>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "shard/sharded_engine.hpp"
#include "workload/compose.hpp"

namespace perfbench {

using flowcam::workload::RunnerConfig;
using flowcam::workload::Scenario;
using flowcam::workload::ScenarioConfig;
using flowcam::workload::ScenarioMetrics;

namespace {

using Clock = std::chrono::steady_clock;

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// What one scenario instance saw: when its first record was drawn and how
/// many it drew. Each instance writes only its own probe, so sharded lanes
/// on several threads never share one.
struct DrawProbe {
    bool started = false;
    Clock::time_point first_wall;
    double first_cpu = 0.0;
    u64 draws = 0;
};

/// Forwards a scenario and stamps its first draw — the moment the stack
/// offers its first packet, since the source draws a record only to offer
/// it. One branch per record is the whole cost.
class ProbedScenario final : public Scenario {
  public:
    ProbedScenario(std::unique_ptr<Scenario> inner, DrawProbe& probe)
        : inner_(std::move(inner)), probe_(probe) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] std::string description() const override { return inner_->description(); }

    flowcam::net::PacketRecord next() override {
        if (!probe_.started) {
            probe_.started = true;
            probe_.first_wall = Clock::now();
            probe_.first_cpu = process_cpu_s();
        }
        ++probe_.draws;
        return inner_->next();
    }

  private:
    std::unique_ptr<Scenario> inner_;
    DrawProbe& probe_;
};

}  // namespace

const std::vector<Workload>& workloads() {
    // Why each workload exists is recorded in README.md and BENCHMARK.json.
    static const std::vector<Workload> all = {
        {"fig6_lookup", "baseline", 100'000, 1.0, 1},
        {"churn_expiry", "churn", 100'000, 100'000.0, 1},
        {"flood_sharded", "syn_flood", 200'000, 1.0, 4},
    };
    return all;
}

const Workload* find_workload(const std::string& name) {
    for (const Workload& workload : workloads()) {
        if (workload.name == name) return &workload;
    }
    return nullptr;
}

RunnerConfig runner_config(const Workload& workload, u64 packets, bool monolithic) {
    RunnerConfig config;  // default geometry: 16384 buckets x 4 ways x 2 + 2048 CAM.
    config.packets = packets;
    config.time_scale = workload.time_scale;
    if (!monolithic && workload.lanes > 1) {
        config.shard.lanes = workload.lanes;
        const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
        config.shard.jobs = std::min<std::size_t>(4, cores);
    }
    return config;
}

ScenarioConfig scenario_config(u64 seed, u64 packets) {
    ScenarioConfig config;
    config.seed = seed;
    // As the Experiment planner does: schedules resolve against the budget.
    config.horizon_packets = packets;
    return config;
}

u64 fingerprint(const ScenarioMetrics& m) {
    const u64 fields[] = {m.packets,          m.bytes,           m.distinct_flows,
                          m.overlay_packets,  m.trace_span_ns,   m.completions,
                          m.cam_hits,         m.lu1_hits,        m.lu2_hits,
                          m.new_flows,        m.drops,           m.buffer_retries,
                          m.flows_expired,    m.drops_real,      m.drops_overlay,
                          m.events_port_scan, m.events_heavy_hitter,
                          m.events_table_pressure, m.events_flow_expired, m.cycles};
    u64 hash = 0xcbf29ce484222325ull;
    for (const u64 field : fields) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (field >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }
    return hash;
}

u64 dropped_packets(const ScenarioMetrics& metrics, u64 offered) {
    const u64 unretired = offered > metrics.completions ? offered - metrics.completions : 0;
    return metrics.drops_real + metrics.drops_overlay + unretired;
}

Rep run_rep(const Workload& workload, u64 seed, u64 packets, bool audit, bool monolithic) {
    RunnerConfig config = runner_config(workload, packets, monolithic);
    config.fault.audit = audit;
    const ScenarioConfig scenario = scenario_config(seed, packets);

    Rep rep;
    std::vector<std::unique_ptr<DrawProbe>> probes;
    const Clock::time_point start = Clock::now();
    if (config.shard.active()) {
        // Every slice builds its own scenario through this registry, so each
        // gets a probe of its own.
        flowcam::workload::Registry registry;
        registry.add(workload.scenario, "probed",
                     [&](const ScenarioConfig& c)
                         -> flowcam::Result<std::unique_ptr<Scenario>> {
                         auto inner = flowcam::workload::builtin_registry().create(
                             workload.scenario, c);
                         if (!inner) return inner.status();
                         probes.push_back(std::make_unique<DrawProbe>());
                         return std::unique_ptr<Scenario>(std::make_unique<ProbedScenario>(
                             std::move(inner).value(), *probes.back()));
                     });
        flowcam::shard::ShardedEngine engine(config);
        auto result = engine.run(workload.scenario, scenario, registry);
        if (result) {
            rep.metrics = std::move(result).value();
            rep.ok = true;
        } else {
            rep.error = result.status().to_string();
        }
    } else {
        auto inner = flowcam::workload::make_scenario(workload.scenario, scenario);
        if (inner) {
            probes.push_back(std::make_unique<DrawProbe>());
            ProbedScenario probed(std::move(inner).value(), *probes.back());
            flowcam::workload::ScenarioRunner runner(config);
            rep.metrics = runner.run(probed);
            rep.ok = true;
        } else {
            rep.error = inner.status().to_string();
        }
    }
    const Clock::time_point end = Clock::now();
    const double end_cpu = process_cpu_s();

    const DrawProbe* first = nullptr;
    for (const auto& probe : probes) {
        rep.draws += probe->draws;
        if (probe->started && (first == nullptr || probe->first_wall < first->first_wall)) {
            first = probe.get();
        }
    }
    if (first == nullptr) {
        rep.ok = false;
        if (rep.error.empty()) rep.error = "no record was drawn";
        return rep;
    }
    rep.setup_s = std::chrono::duration<double>(first->first_wall - start).count();
    rep.window_s = std::chrono::duration<double>(end - first->first_wall).count();
    rep.cpu_s = end_cpu - first->first_cpu;
    return rep;
}

}  // namespace perfbench
