// The flowcam benchmark: three workloads, the end-to-end repetition that
// times the public entry points (ScenarioRunner::run, ShardedEngine::run),
// and the per-layer ledger that times each layer's public calls from
// outside. Nothing here adds a probe inside src/.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "workload/runner.hpp"

namespace perfbench {

using flowcam::u32;
using flowcam::u64;

// ---- Allocation counter (alloc_counter.cpp) --------------------------------
/// Heap allocations made by any thread while counting was on.
[[nodiscard]] u64 allocations();
void set_alloc_counting(bool on);

// ---- Reference loop (reference.cpp) ----------------------------------------
/// One pass of a fixed loop that is part of the benchmark, not of the
/// simulator, on each of `threads` threads at once: how fast the host runs
/// right now for work spread as the workload spreads it.
struct Reference {
    double wall_s = 0.0;  ///< until the last thread finished.
    double cpu_s = 0.0;   ///< CPU time of one thread's pass, mean over threads.
};
[[nodiscard]] Reference reference_loop(unsigned threads);
/// The table each reference thread keeps resident from its first pass on.
inline constexpr u64 kReferenceTableBytes = u64{16} << 20;

// ---- Workloads --------------------------------------------------------------
struct Workload {
    std::string name;
    std::string scenario;  ///< registry name handed to make_scenario.
    u64 packets = 0;       ///< packets offered per repetition.
    double time_scale = 1.0;  ///< runner.time_scale.
    u32 lanes = 1;         ///< shard.lanes; 1 = the monolithic runner.
};

/// A run cycles its repetitions over this many traffic streams derived from
/// its seed: a Pitman–Yor stream's flow count stays random however long it
/// runs, so one run averages over draws instead of hinging on one.
inline constexpr u64 kStreams = 16;
[[nodiscard]] inline u64 stream_seed(u64 seed, u64 stream) { return seed * kStreams + stream; }

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when `name` is not a workload.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// The runner configuration of `workload` at `packets` packets. With
/// `monolithic` the shard lanes are forced to 1 (the same spec on one stack).
[[nodiscard]] flowcam::workload::RunnerConfig runner_config(const Workload& workload,
                                                            u64 packets, bool monolithic);
[[nodiscard]] flowcam::workload::ScenarioConfig scenario_config(u64 seed, u64 packets);

/// FNV-1a over every deterministic simulated counter of a run: two commits
/// (or two repetitions) that simulate the same thing print the same value.
[[nodiscard]] u64 fingerprint(const flowcam::workload::ScenarioMetrics& metrics);

/// Packets that retired without a flow ID, plus packets that never retired.
[[nodiscard]] u64 dropped_packets(const flowcam::workload::ScenarioMetrics& metrics,
                                  u64 offered);

/// One end-to-end repetition: a fresh scenario and stack through the public
/// entry point. Timing starts before the scenario is built; the first record
/// drawn ends set-up and opens the timed window.
struct Rep {
    flowcam::workload::ScenarioMetrics metrics;
    bool ok = false;  ///< the entry point returned metrics.
    std::string error;
    double setup_s = 0.0;   ///< start -> first record drawn.
    double window_s = 0.0;  ///< first record drawn -> run returned (wall).
    double cpu_s = 0.0;     ///< process CPU time over the window, all threads.
    u64 draws = 0;          ///< records drawn from every scenario instance.
};
[[nodiscard]] Rep run_rep(const Workload& workload, u64 seed, u64 packets, bool audit,
                          bool monolithic);

// ---- Checks and the per-layer ledger ---------------------------------------
struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
};

using Metrics = std::map<std::string, double>;

struct Ledger {
    Metrics metrics;  ///< every per-layer metric, by name.
    std::vector<Check> checks;
    u64 packets = 0;       ///< packets offered by the stack pass.
    u64 completions = 0;   ///< packets the stack pass saw retire.
    u64 fingerprint = 0;   ///< of the workload's own run (sharded where it shards).
};

/// Run every layer pass of `workload` once at `packets` packets.
[[nodiscard]] Ledger run_ledger(const Workload& workload, u64 seed, u64 packets);

/// The per-layer metric names the ledger reports, with their units.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& ledger_units();

}  // namespace perfbench
