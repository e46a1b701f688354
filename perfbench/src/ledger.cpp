// The per-layer ledger. Each pass drives one layer through its public calls
// and times those calls from outside:
//
//   reference  ScenarioRunner::run (untraced), the figure the ledger explains
//   workload   make_scenario + Scenario::next over the whole stream
//   hash       FlowKey + IndexGenerator::digest on both paths
//   stack      TrafficAnalyzer::feed_record / step on a sim::Engine, driven
//              like the runner's source; must reproduce the reference run.
//              An untimed twin of the pass gives the tracing overhead.
//   core       FlowLut::offer / step / pop_completion over the same records
//   dram       a second core pass with a Recorder attached and every
//              DramController::enqueue attempt recorded through the veto
//              hook, then replayed into standalone controllers
//   shard      ShardedEngine::run (sharded workloads only)
//
// Derived self times subtract one pass from another over the same records.
#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "analyzer/analyzer.hpp"
#include "bench.hpp"
#include "core/flow_lut.hpp"
#include "dram/controller.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "workload/compose.hpp"

namespace perfbench {

namespace {

using flowcam::Cycle;
using flowcam::net::PacketRecord;

u64 now_ns() {
    return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now().time_since_epoch())
                                .count());
}

double ratio(double numerator, double denominator) {
    return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// Host time and heap allocations of every call made through one site.
struct Site {
    u64 calls = 0;
    u64 ns = 0;
    u64 allocs = 0;
};

/// Scoped span around one call into a layer; a null site records nothing,
/// which is how the untraced twin of a pass runs the same code.
class Span {
  public:
    explicit Span(Site* site)
        : site_(site),
          allocs_(site != nullptr ? allocations() : 0),
          start_(site != nullptr ? now_ns() : 0) {}
    explicit Span(Site& site) : Span(&site) {}
    ~Span() {
        if (site_ == nullptr) return;
        site_->ns += now_ns() - start_;
        site_->allocs += allocations() - allocs_;
        ++site_->calls;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Site* site_;
    u64 allocs_;
    u64 start_;
};

/// The runner source's timestamp treatment (scale, then keep the stream
/// strictly monotonic), applied in draw order.
class StreamClock {
  public:
    explicit StreamClock(double scale) : scale_(scale > 0.0 ? scale : 1.0) {}

    void apply(PacketRecord& record) {
        if (scale_ != 1.0) {
            constexpr double kMaxScaledNs = 9.2e18;
            const double scaled = static_cast<double>(record.timestamp_ns) * scale_;
            record.timestamp_ns = scaled >= kMaxScaledNs ? static_cast<u64>(kMaxScaledNs)
                                                         : static_cast<u64>(scaled);
        }
        if (record.timestamp_ns <= last_ns_ && !first_) record.timestamp_ns = last_ns_ + 1;
        last_ns_ = record.timestamp_ns;
        first_ = false;
    }

  private:
    double scale_;
    u64 last_ns_ = 0;
    bool first_ = true;
};

flowcam::core::Path path_of(int index) {
    return index == 0 ? flowcam::core::Path::kA : flowcam::core::Path::kB;
}

flowcam::core::FlowKey key_of(const PacketRecord& record) {
    return record.key_override.empty()
               ? flowcam::core::FlowKey(flowcam::net::NTuple::from_five_tuple(record.tuple))
               : flowcam::core::FlowKey(record.key_override);
}

/// A closed-loop source over pre-drawn records, paced like the runner's
/// source: a fresh record is offered only on an input-rate slot, and a
/// rejected one is held and retried every cycle until the stack takes it.
template <typename Offer>
class PacedSource final : public flowcam::sim::Ticker {
  public:
    PacedSource(u64 count, u32 cycles_per_packet, Offer offer)
        : count_(count),
          cycles_per_packet_(cycles_per_packet == 0 ? 1 : cycles_per_packet),
          offer_(std::move(offer)) {}

    void tick(Cycle now) override {
        last_now_ = now;
        if (done()) return;
        if (!pending_ && now % cycles_per_packet_ != 0) return;
        pending_ = true;
        if (!offer_(next_)) return;
        pending_ = false;
        ++next_;
    }

    [[nodiscard]] std::string name() const override { return "perfbench-source"; }

    [[nodiscard]] u64 idle_cycles_hint() const override {
        if (done()) return ~u64{0};
        if (pending_) return 0;
        const Cycle next = last_now_ + 1;
        return (cycles_per_packet_ - (next % cycles_per_packet_)) % cycles_per_packet_;
    }

    [[nodiscard]] bool done() const { return next_ >= count_; }

  private:
    u64 count_;
    u32 cycles_per_packet_;
    Offer offer_;
    u64 next_ = 0;
    bool pending_ = false;
    Cycle last_now_ = 0;
};

/// Steps the analyzer (and with it the Flow LUT) once per cycle, timed, and
/// counts the cycles the engine fast-forwards.
class AnalyzerSink final : public flowcam::sim::Ticker {
  public:
    AnalyzerSink(flowcam::analyzer::TrafficAnalyzer& analyzer, Site* step)
        : analyzer_(analyzer), step_(step) {}

    void tick(Cycle /*now*/) override {
        Span span(step_);
        analyzer_.step();
    }
    [[nodiscard]] std::string name() const override { return "perfbench-analyzer"; }
    [[nodiscard]] u64 idle_cycles_hint() const override { return analyzer_.idle_cycles_hint(); }
    void skip(u64 cycles) override {
        skipped_ += cycles;
        analyzer_.skip_idle(cycles);
    }
    [[nodiscard]] u64 skipped() const { return skipped_; }

  private:
    flowcam::analyzer::TrafficAnalyzer& analyzer_;
    Site* step_;
    u64 skipped_ = 0;
};

struct StackPass {
    Site feed;
    Site step;
    u64 wall_ns = 0;
    u64 cycles = 0;
    u64 skipped = 0;
    u64 buffer_hwm = 0;
    bool drained = false;
};

/// The analyzer stack on a sim::Engine, driven like the runner drives it:
/// source first, then the analyzer, with the engine's fast-forward. With
/// `timed` false no call is timed (the untraced twin of the same pass).
StackPass run_stack_pass(flowcam::analyzer::TrafficAnalyzer& analyzer, u32 cycles_per_packet,
                         u64 max_cycles, const std::vector<PacketRecord>& records, bool timed) {
    StackPass pass;
    Site* feed_site = timed ? &pass.feed : nullptr;
    auto feed = [&](u64 k) {
        bool fed = false;
        {
            Span span(feed_site);
            fed = analyzer.feed_record(records[k]);
        }
        if (fed) pass.buffer_hwm = std::max<u64>(pass.buffer_hwm, analyzer.packet_buffer_size());
        return fed;
    };
    PacedSource source(records.size(), cycles_per_packet, feed);
    AnalyzerSink sink(analyzer, timed ? &pass.step : nullptr);
    flowcam::sim::Engine engine;
    engine.add(source);
    engine.add(sink);
    const u64 start = now_ns();
    pass.drained = engine.run_until(
        [&] {
            return source.done() && analyzer.stats().packets >= records.size() &&
                   analyzer.lut().drained();
        },
        max_cycles);
    pass.wall_ns = now_ns() - start;
    pass.cycles = engine.now();
    pass.skipped = sink.skipped();
    return pass;
}

/// One DDR enqueue attempt as the Flow LUT made it, at its system cycle.
struct Attempt {
    Cycle cycle = 0;
    flowcam::dram::MemRequest request;
};

/// A stretch of system cycles the engine fast-forwarded: FlowLut::skip_idle
/// advances the clock only, so the controllers are not ticked in it.
struct Skip {
    Cycle from = 0;
    u64 cycles = 0;
};

/// What the DRAM replay needs from a recorded core pass.
struct DramLog {
    std::vector<Attempt> attempts[2];  ///< per path, in attempt order.
    std::vector<Skip> skips;
};

/// Steps a bare Flow LUT and drains its completions, each call timed. With
/// `skips` every fast-forward is logged there.
class LutSink final : public flowcam::sim::Ticker {
  public:
    LutSink(flowcam::core::FlowLut& lut, Site& step, Site& pop, std::vector<Skip>* skips)
        : lut_(lut), step_(step), pop_(pop), skips_(skips) {}

    void tick(Cycle /*now*/) override {
        {
            Span span(step_);
            lut_.step();
        }
        Span span(pop_);
        while (lut_.pop_completion()) ++completions_;
    }
    [[nodiscard]] std::string name() const override { return "perfbench-lut"; }
    [[nodiscard]] u64 idle_cycles_hint() const override {
        return lut_.completions_pending() ? 0 : lut_.idle_cycles_hint();
    }
    void skip(u64 cycles) override {
        if (skips_ != nullptr) skips_->push_back(Skip{lut_.now(), cycles});
        lut_.skip_idle(cycles);
    }
    [[nodiscard]] u64 completions() const { return completions_; }

  private:
    flowcam::core::FlowLut& lut_;
    Site& step_;
    Site& pop_;
    std::vector<Skip>* skips_;
    u64 completions_ = 0;
};

struct LutPass {
    Site offer;
    Site step;
    Site pop;
    u64 cycles = 0;
    u64 completions = 0;
    bool drained = false;
    u64 audit = 0;
    flowcam::core::FlowLutStats stats;
    u64 expired = 0;
    u64 lat_p50_ns = 0;
    u64 lat_p99_ns = 0;
    flowcam::dram::ControllerStats controller[2];
    double dq_util = 0.0;
};

/// Drive a bare Flow LUT over `records`. With `log` a Recorder is attached,
/// every DDR enqueue attempt of path p lands in log->attempts[p] (the veto
/// hook used as an observer that never vetoes) and every fast-forward in
/// log->skips.
LutPass run_lut_pass(const flowcam::core::FlowLutConfig& config, u32 cycles_per_packet,
                     u64 max_cycles, const std::vector<PacketRecord>& records, DramLog* log) {
    LutPass pass;
    std::optional<flowcam::obs::Recorder> recorder;
    flowcam::core::FlowLut lut(config);
    if (log != nullptr) {
        recorder.emplace(flowcam::obs::ObsConfig{});
        recorder->set_clock(config.system_clock_hz, config.memory_clock_ratio);
        lut.set_recorder(&*recorder);
        for (int path = 0; path < 2; ++path) {
            std::vector<Attempt>& attempts = log->attempts[path];
            lut.controller(path_of(path))
                .set_enqueue_veto([&attempts, &lut](const flowcam::dram::MemRequest& request) {
                    attempts.push_back(Attempt{lut.now(), request});
                    return false;
                });
        }
    }

    flowcam::core::FlowKey held_key;
    u64 held_index = ~u64{0};
    auto offer = [&](u64 k) {
        Span span(pass.offer);
        const PacketRecord& record = records[k];
        if (held_index != k) {  // a retried record keeps its key, as a buffer would.
            held_key = key_of(record);
            held_index = k;
        }
        return lut.offer(held_key, record.timestamp_ns, record.frame_bytes);
    };
    PacedSource source(records.size(), cycles_per_packet, offer);
    LutSink sink(lut, pass.step, pass.pop, log != nullptr ? &log->skips : nullptr);
    flowcam::sim::Engine engine;
    engine.add(source);
    engine.add(sink);
    pass.drained = engine.run_until(
        [&] { return source.done() && sink.completions() >= records.size() && lut.drained(); },
        max_cycles);

    pass.cycles = engine.now();
    pass.completions = sink.completions();
    pass.audit = lut.audit(/*final_pass=*/true);
    pass.stats = lut.stats();
    pass.expired = lut.flow_state().expired_total();
    if (const flowcam::obs::Histogram* latency = lut.latency_histogram();
        latency != nullptr && latency->count() > 0) {
        pass.lat_p50_ns = latency->percentile(0.50);
        pass.lat_p99_ns = latency->percentile(0.99);
    }
    const Cycle memory_now = lut.now() * config.memory_clock_ratio;
    for (int path = 0; path < 2; ++path) {
        const auto& controller = lut.controller(path_of(path));
        pass.controller[path] = controller.stats();
        pass.dq_util += controller.dq_utilization(memory_now) / 2.0;
    }
    // The veto closures reference `lut` and the logs; detach before both go.
    for (int path = 0; path < 2; ++path) {
        lut.controller(path_of(path)).set_enqueue_veto(nullptr);
    }
    return pass;
}

struct Replay {
    flowcam::dram::ControllerStats stats;
    u64 ns = 0;
};

/// Feed recorded enqueue attempts into a standalone controller built like
/// the Flow LUT builds its own, ticking it exactly as FlowLut::step does:
/// `memory_clock_ratio` memory ticks, then that system cycle's enqueues.
/// Cycles the engine fast-forwarded are jumped over, as they were in situ.
Replay replay(const flowcam::core::FlowLutConfig& config, const std::string& name,
              std::vector<Attempt>& attempts, const std::vector<Skip>& skips,
              Cycle end_cycle) {
    flowcam::dram::ControllerConfig controller_config = config.controller;
    controller_config.interleave_bytes = config.bucket_stride();
    flowcam::dram::DramController controller(name, config.timings, config.geometry,
                                             controller_config);
    const u32 ticks = config.memory_clock_ratio;
    std::size_t next = 0;
    std::size_t next_skip = 0;
    const u64 start = now_ns();
    for (Cycle cycle = 0; cycle < end_cycle; ++cycle) {
        while (next_skip < skips.size() && skips[next_skip].from == cycle) {
            cycle += skips[next_skip++].cycles;
        }
        if (cycle >= end_cycle) break;
        for (u32 sub = 0; sub < ticks; ++sub) controller.tick(cycle * ticks + sub);
        while (auto response = controller.pop_response()) {
            controller.recycle_buffer(std::move(response->data));
        }
        for (; next < attempts.size() && attempts[next].cycle == cycle; ++next) {
            (void)controller.enqueue(std::move(attempts[next].request));
        }
    }
    Replay result;
    result.ns = now_ns() - start;
    result.stats = controller.stats();
    return result;
}

bool same_stats(const flowcam::dram::ControllerStats& a,
                const flowcam::dram::ControllerStats& b) {
    return a.reads_accepted == b.reads_accepted && a.writes_accepted == b.writes_accepted &&
           a.reads_completed == b.reads_completed && a.writes_completed == b.writes_completed &&
           a.activates == b.activates && a.precharges == b.precharges &&
           a.refreshes == b.refreshes && a.row_hits == b.row_hits &&
           a.row_misses == b.row_misses && a.row_conflicts == b.row_conflicts &&
           a.rw_turnarounds == b.rw_turnarounds &&
           a.read_latency.count() == b.read_latency.count() &&
           a.read_latency.sum() == b.read_latency.sum() &&
           a.read_latency.max() == b.read_latency.max();
}

std::string pair_text(u64 got, u64 want) {
    return std::to_string(got) + " vs " + std::to_string(want);
}

volatile u64 g_hash_sink = 0;  // keeps the hash pass from being optimized away.

}  // namespace

const std::vector<std::pair<std::string, std::string>>& ledger_units() {
    static const std::vector<std::pair<std::string, std::string>> units = {
        {"workload.gen_ns_per_rec", "ns"},
        {"workload.recs_per_pkt", "count"},
        {"workload.allocs_per_rec", "count"},
        {"hash.ns_per_pkt", "ns"},
        {"analyzer.feed_ns_per_pkt", "ns"},
        {"analyzer.step_ns_per_cycle", "ns"},
        {"analyzer.self_ns_per_pkt", "ns"},
        {"analyzer.retry_ratio", "ratio"},
        {"analyzer.buffer_hwm", "count"},
        {"analyzer.events", "count"},
        {"analyzer.allocs_per_pkt", "count"},
        {"core.step_ns_per_cycle", "ns"},
        {"core.ns_per_pkt", "ns"},
        {"core.self_ns_per_pkt", "ns"},
        {"core.allocs_per_pkt", "count"},
        {"core.lu1_hit_ratio", "ratio"},
        {"core.new_flow_ratio", "ratio"},
        {"core.cam_hits", "count"},
        {"core.input_full_ratio", "ratio"},
        {"core.expired", "count"},
        {"core.deletes_applied", "count"},
        {"core.lat_p50_ns", "ns"},
        {"core.lat_p99_ns", "ns"},
        {"dram.host_ns_per_cmd", "ns"},
        {"dram.cmds_per_pkt", "count"},
        {"dram.row_hit_ratio", "ratio"},
        {"dram.write_share", "ratio"},
        {"dram.turnarounds_per_kpkt", "count"},
        {"dram.read_lat_p99_cyc", "cycles"},
        {"dram.dq_util", "ratio"},
        {"sim.cycles_per_pkt", "cycles"},
        {"sim.skipped_share", "ratio"},
        {"shard.parallelism", "ratio"},
        {"shard.speedup", "ratio"},
        {"shard.redraw_share", "ratio"},
        {"trace.overhead", "ratio"},
        {"trace.unattributed_share", "ratio"},
    };
    return units;
}

Ledger run_ledger(const Workload& workload, u64 seed, u64 packets) {
    Ledger ledger;
    ledger.packets = packets;
    Metrics& m = ledger.metrics;
    const auto check = [&ledger](std::string name, bool ok, std::string detail = {}) {
        ledger.checks.push_back(Check{std::move(name), ok, std::move(detail)});
    };
    const flowcam::workload::RunnerConfig config = runner_config(workload, packets, true);
    const flowcam::core::FlowLutConfig& lut_config = config.analyzer.lut;
    const double n = static_cast<double>(packets);

    // Reference: the public runner on the same spec, untraced. On a sharded
    // workload this is the monolithic run of the same spec.
    const Rep reference = run_rep(workload, seed, packets, /*audit=*/false, /*monolithic=*/true);
    check("reference.ran", reference.ok, reference.error);
    if (!reference.ok) return ledger;
    const flowcam::workload::ScenarioMetrics& want = reference.metrics;
    ledger.fingerprint = fingerprint(want);

    // workload: build the scenario, then draw the whole stream up front.
    set_alloc_counting(true);
    auto scenario = flowcam::workload::make_scenario(workload.scenario,
                                                     scenario_config(seed, packets));
    check("workload.built", static_cast<bool>(scenario),
          scenario ? "" : scenario.status().to_string());
    if (!scenario) {
        set_alloc_counting(false);
        return ledger;
    }
    std::vector<PacketRecord> records(packets);
    Site gen;
    {
        Span span(gen);
        StreamClock clock(config.time_scale);
        for (PacketRecord& record : records) {
            record = scenario.value()->next();
            clock.apply(record);
        }
    }
    m["workload.gen_ns_per_rec"] = ratio(gen.ns, n);
    m["workload.allocs_per_rec"] = ratio(gen.allocs, n);

    // stack: the analyzer on an engine, driven like the runner drives it.
    flowcam::analyzer::TrafficAnalyzer analyzer(config.analyzer);

    // hash: one FlowKey plus both path digests per record, with the LUT's
    // own index generator.
    Site hash_site;
    {
        const flowcam::hash::IndexGenerator& indexer = analyzer.lut().table().indexer();
        u64 sink = 0;
        Span span(hash_site);
        for (const PacketRecord& record : records) {
            const flowcam::core::FlowKey key = key_of(record);
            sink ^= indexer.digest(0, key.view()) + indexer.digest(1, key.view());
        }
        g_hash_sink = sink;
    }
    m["hash.ns_per_pkt"] = ratio(hash_site.ns, n);

    const StackPass traced = run_stack_pass(analyzer, config.cycles_per_packet,
                                            config.max_cycles, records, /*timed=*/true);
    set_alloc_counting(false);
    const Site& feed = traced.feed;
    const Site& step = traced.step;

    const flowcam::core::FlowLutStats& stack = analyzer.lut().stats();
    ledger.completions = stack.completions;
    check("stack.drained", traced.drained);
    check("stack.completions_equal_packets", stack.completions == packets,
          pair_text(stack.completions, packets));
    const u64 stack_audit = analyzer.lut().audit(/*final_pass=*/true);
    check("stack.audit_clean", stack_audit == 0, std::to_string(stack_audit) + " violations");
    check("stack.matches_runner.cycles", traced.cycles == want.cycles,
          pair_text(traced.cycles, want.cycles));
    check("stack.matches_runner.new_flows", stack.new_flows == want.new_flows,
          pair_text(stack.new_flows, want.new_flows));
    check("stack.matches_runner.drops", stack.drops == want.drops,
          pair_text(stack.drops, want.drops));
    check("stack.matches_runner.buffer_retries",
          analyzer.stats().dropped_buffer_full == want.buffer_retries,
          pair_text(analyzer.stats().dropped_buffer_full, want.buffer_retries));

    m["analyzer.feed_ns_per_pkt"] = ratio(feed.ns, n);
    m["analyzer.step_ns_per_cycle"] = ratio(step.ns, step.calls);
    m["analyzer.retry_ratio"] = ratio(analyzer.stats().dropped_buffer_full, n);
    m["analyzer.buffer_hwm"] = static_cast<double>(traced.buffer_hwm);
    m["analyzer.events"] = static_cast<double>(analyzer.events().size());
    m["analyzer.allocs_per_pkt"] = ratio(feed.allocs + step.allocs, n);
    m["sim.cycles_per_pkt"] = ratio(traced.cycles, n);
    m["sim.skipped_share"] = ratio(traced.skipped, traced.cycles);

    // trace: the same stack pass with no call timed, on a fresh analyzer.
    {
        flowcam::analyzer::TrafficAnalyzer twin(config.analyzer);
        const StackPass untraced = run_stack_pass(twin, config.cycles_per_packet,
                                                  config.max_cycles, records, /*timed=*/false);
        check("stack.untraced_twin_cycle_identical", untraced.cycles == traced.cycles,
              pair_text(untraced.cycles, traced.cycles));
        m["trace.overhead"] = ratio(traced.wall_ns, untraced.wall_ns);
    }
    m["trace.unattributed_share"] =
        ratio(static_cast<double>(traced.wall_ns) - static_cast<double>(feed.ns + step.ns),
              traced.wall_ns);

    // core: the bare Flow LUT over the same records.
    set_alloc_counting(true);
    const LutPass core =
        run_lut_pass(lut_config, config.cycles_per_packet, config.max_cycles, records, nullptr);
    set_alloc_counting(false);
    check("core.drained", core.drained);
    check("core.completions_equal_packets", core.completions == packets,
          pair_text(core.completions, packets));
    check("core.audit_clean", core.audit == 0, std::to_string(core.audit) + " violations");
    const u64 core_ns = core.offer.ns + core.step.ns + core.pop.ns;
    m["core.step_ns_per_cycle"] = ratio(core.step.ns, core.step.calls);
    m["core.ns_per_pkt"] = ratio(core_ns, n);
    m["core.allocs_per_pkt"] = ratio(core.offer.allocs + core.step.allocs + core.pop.allocs, n);
    m["core.lu1_hit_ratio"] = ratio(core.stats.lu1_hits, core.stats.completions);
    m["core.new_flow_ratio"] = ratio(core.stats.new_flows, core.stats.completions);
    m["core.cam_hits"] = static_cast<double>(core.stats.cam_hits);
    m["core.input_full_ratio"] = ratio(core.stats.rejected_input_full, core.stats.offered);
    m["core.expired"] = static_cast<double>(core.expired);
    m["core.deletes_applied"] = static_cast<double>(core.stats.deletes_applied);
    m["analyzer.self_ns_per_pkt"] = (static_cast<double>(feed.ns + step.ns) -
                                     static_cast<double>(core_ns)) / n;

    // dram: record every enqueue attempt of a second core pass, then replay.
    DramLog log;
    const LutPass recorded =
        run_lut_pass(lut_config, config.cycles_per_packet, config.max_cycles, records, &log);
    check("dram.observed_pass_cycle_identical",
          recorded.cycles == core.cycles && recorded.completions == core.completions,
          pair_text(recorded.cycles, core.cycles));
    m["core.lat_p50_ns"] = static_cast<double>(recorded.lat_p50_ns);
    m["core.lat_p99_ns"] = static_cast<double>(recorded.lat_p99_ns);

    u64 replay_ns = 0;
    u64 commands = 0;
    flowcam::dram::ControllerStats total;
    for (int path = 0; path < 2; ++path) {
        const Replay replayed = replay(lut_config, path == 0 ? "ddr3-A" : "ddr3-B",
                                       log.attempts[path], log.skips, recorded.cycles);
        const flowcam::dram::ControllerStats& in_situ = recorded.controller[path];
        check(std::string("dram.replay_matches_in_situ.") + (path == 0 ? "A" : "B"),
              same_stats(replayed.stats, in_situ),
              "commands " + pair_text(replayed.stats.reads_completed +
                                          replayed.stats.writes_completed,
                                      in_situ.reads_completed + in_situ.writes_completed));
        replay_ns += replayed.ns;
        commands += in_situ.activates + in_situ.precharges + in_situ.refreshes +
                    (in_situ.reads_completed + in_situ.writes_completed) *
                        lut_config.bursts_per_bucket();
        total.reads_accepted += in_situ.reads_accepted;
        total.writes_accepted += in_situ.writes_accepted;
        total.row_hits += in_situ.row_hits;
        total.row_misses += in_situ.row_misses;
        total.row_conflicts += in_situ.row_conflicts;
        total.rw_turnarounds += in_situ.rw_turnarounds;
        total.read_latency.merge(in_situ.read_latency);
    }
    m["dram.host_ns_per_cmd"] = ratio(replay_ns, commands);
    m["dram.cmds_per_pkt"] = ratio(commands, n);
    m["dram.row_hit_ratio"] =
        ratio(total.row_hits, total.row_hits + total.row_misses + total.row_conflicts);
    m["dram.write_share"] =
        ratio(total.writes_accepted, total.reads_accepted + total.writes_accepted);
    m["dram.turnarounds_per_kpkt"] = ratio(total.rw_turnarounds * 1000.0, n);
    m["dram.read_lat_p99_cyc"] = static_cast<double>(total.read_latency.percentile(0.99));
    m["dram.dq_util"] = recorded.dq_util;
    m["core.self_ns_per_pkt"] = (static_cast<double>(core_ns) -
                                 static_cast<double>(replay_ns)) / n;

    // shard: the sharded run against the monolithic reference. Workloads
    // that never call shard/ report their single stack the same way.
    Rep measured = reference;
    if (workload.lanes > 1) {
        measured = run_rep(workload, seed, packets, /*audit=*/false, /*monolithic=*/false);
        check("shard.ran", measured.ok, measured.error);
        check("shard.packets_equal_monolithic", measured.metrics.packets == want.packets,
              pair_text(measured.metrics.packets, want.packets));
        check("shard.completions_equal_monolithic",
              measured.metrics.completions == want.completions,
              pair_text(measured.metrics.completions, want.completions));
    }
    m["workload.recs_per_pkt"] = ratio(measured.draws, n);
    m["shard.parallelism"] = ratio(measured.cpu_s, measured.window_s);
    m["shard.speedup"] = ratio(reference.window_s, measured.window_s);
    m["shard.redraw_share"] =
        ratio(static_cast<double>(measured.draws) * m["workload.gen_ns_per_rec"],
              measured.cpu_s * 1e9);
    // The workload's own run, as its untraced run fingerprints it.
    ledger.fingerprint = fingerprint(measured.metrics);
    return ledger;
}

}  // namespace perfbench
