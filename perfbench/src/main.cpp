// perfbench: the flowcam benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>]
//
// --trace 0 repeats the workload through its public entry point until
// --seconds of measurement have passed and prints the end-to-end metrics;
// --trace 1 repeats the per-layer ledger for as long and prints the layer
// metrics. Every run checks its outputs, prints a provenance record, and
// ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"

namespace {

using perfbench::Check;
using perfbench::Metrics;
using perfbench::u64;
using Clock = std::chrono::steady_clock;

struct Args {
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string commit = "unknown";
};

int usage(const std::string& error) {
    std::cerr << "perfbench: " << error << "\n"
              << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                 " [--commit <id>]\nworkloads:";
    for (const perfbench::Workload& workload : perfbench::workloads()) {
        std::cerr << " " << workload.name;
    }
    std::cerr << "\n";
    return 2;
}

bool parse_u64(const std::string& text, u64& out) {
    if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
    try {
        out = std::stoull(text);
    } catch (const std::exception&) {
        return false;
    }
    return true;
}

std::string json_escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

/// A number with all its digits; JSON has no NaN or infinity.
std::string number(double value) {
    if (!std::isfinite(value)) return "0";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned int leaf = 0; leaf < 3; ++leaf) {
            __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                        &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string model(brand);
        model.erase(0, model.find_first_not_of(' '));
        return model;
    }
#endif
    return "unknown";
}

/// What produced the numbers: host, compiler, build flags, seed, commit.
std::string provenance(const Args& args) {
    std::ostringstream out;
    out << "{\"hardware_concurrency\":" << std::thread::hardware_concurrency()
        << ",\"cpu_model\":\"" << json_escape(cpu_model()) << "\""
        << ",\"compiler\":\"" << json_escape(__VERSION__) << "\""
        << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
#ifdef __OPTIMIZE__
        << ",\"optimized\":true"
#else
        << ",\"optimized\":false"
#endif
#ifdef NDEBUG
        << ",\"ndebug\":true"
#else
        << ",\"ndebug\":false"
#endif
#ifdef FLOWCAM_SIMD_ENABLED
        << ",\"simd\":true"
#else
        << ",\"simd\":false"
#endif
        << ",\"seed\":" << args.seed << ",\"commit\":\"" << json_escape(args.commit) << "\"}";
    return out.str();
}

struct Unit {
    std::string name;
    std::string unit;
};

const std::vector<Unit>& end_to_end_units() {
    static const std::vector<Unit> units = {
        {"pkts_per_s", "pkt/s"},      {"cpu_us_per_pkt", "us"},
        {"setup_s", "s"},             {"peak_rss_mb", "MB"},
        {"sim_mdesc_per_s", "Mdesc/s"}, {"served_ratio", "ratio"},
    };
    return units;
}

struct Outcome {
    Metrics metrics;
    Metrics extra;  ///< informational values, printed but not part of the result.
    std::vector<Check> checks;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<u64> fingerprints;  ///< per stream, in stream order.
    u64 reps = 0;

    /// Record stream `stream`'s fingerprint the first time it runs; every
    /// later repetition of the stream must reproduce it.
    void record_fingerprint(u64 stream, u64 value, const std::string& tag) {
        if (stream == fingerprints.size()) fingerprints.push_back(value);
        checks.push_back({tag + ".fingerprint_repeats", fingerprints.at(stream) == value, ""});
    }
};

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

void check_rep(std::vector<Check>& checks, const std::string& tag, const perfbench::Rep& rep,
               u64 packets) {
    checks.push_back({tag + ".ran", rep.ok, rep.error});
    checks.push_back({tag + ".drained", rep.metrics.drained, ""});
    checks.push_back({tag + ".completions_equal_packets",
                      rep.metrics.packets == packets && rep.metrics.completions == packets,
                      std::to_string(rep.metrics.completions) + " of " +
                          std::to_string(packets)});
}

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Outcome run_end_to_end(const perfbench::Workload& workload, const Args& args, u64 packets,
                       Clock::time_point process_start) {
    Outcome out;
    const double audit_start = seconds_since(process_start);
    const flowcam::workload::RunnerConfig config =
        perfbench::runner_config(workload, packets, /*monolithic=*/false);
    const unsigned threads =
        config.shard.active() ? static_cast<unsigned>(config.shard.jobs) : 1u;
    // The reference tables come first, so they are a fixed part of the peak
    // RSS, subtracted at the end.
    (void)perfbench::reference_loop(threads);

    // Untimed first repetition with the invariant auditor on: the full
    // post-drain audit, and the counters the timed repetitions must repeat.
    const perfbench::Rep audited = perfbench::run_rep(
        workload, perfbench::stream_seed(args.seed, 0), packets, /*audit=*/true,
        /*monolithic=*/false);
    check_rep(out.checks, "audited", audited, packets);
    out.checks.push_back({"audited.audit_clean", audited.metrics.audit_violations == 0,
                          std::to_string(audited.metrics.audit_violations) + " violations"});
    out.record_fingerprint(0, perfbench::fingerprint(audited.metrics), "audited");
    out.extra["process_to_first_packet_s"] = audit_start + audited.setup_s;

    // Timed repetitions cycle over the streams until --seconds have passed
    // and every stream has run at least once. Each is preceded by one pass
    // of the reference loop on as many threads as the workload runs, so
    // every host time below can be read against how fast the host ran at
    // that moment.
    std::vector<double> setup_in_refs;
    std::vector<double> reference;
    std::vector<double> window(perfbench::kStreams, 0.0);
    std::vector<double> cpu(perfbench::kStreams, 0.0);
    std::vector<double> ref_wall(perfbench::kStreams, 0.0);
    std::vector<double> ref_cpu(perfbench::kStreams, 0.0);
    std::vector<u64> runs(perfbench::kStreams, 0);
    std::vector<flowcam::workload::ScenarioMetrics> first(perfbench::kStreams);
    const Clock::time_point start = Clock::now();
    while (out.reps < perfbench::kStreams || seconds_since(start) < args.seconds) {
        const u64 stream = out.reps % perfbench::kStreams;
        const perfbench::Reference ref = perfbench::reference_loop(threads);
        const perfbench::Rep rep =
            perfbench::run_rep(workload, perfbench::stream_seed(args.seed, stream), packets,
                               /*audit=*/false, /*monolithic=*/false);
        ++out.reps;
        const std::string tag = "rep" + std::to_string(out.reps);
        check_rep(out.checks, tag, rep, packets);
        out.record_fingerprint(stream, perfbench::fingerprint(rep.metrics), tag);
        out.attempted += packets;
        out.failed += packets > rep.metrics.completions ? packets - rep.metrics.completions : 0;
        if (!rep.ok) return out;
        if (out.reps <= perfbench::kStreams) first[stream] = rep.metrics;
        reference.push_back(ref.wall_s);
        setup_in_refs.push_back(rep.setup_s / ref.cpu_s);
        window[stream] += rep.window_s;
        cpu[stream] += rep.cpu_s;
        ref_wall[stream] += ref.wall_s;
        ref_cpu[stream] += ref.cpu_s;
        ++runs[stream];
    }

    // The host's speed swings by tens of percent within seconds and drifts
    // over minutes, and the simulator and the reference loop slow together.
    // So host times are reported in reference seconds: each stream's wall
    // (CPU) time over its reference loops' wall (per-thread CPU) time, times
    // kReferenceLoopS, about what one loop takes on an idle 4-core Xeon.
    // Streams count equally.
    constexpr double kReferenceLoopS = 0.06;
    double wall = 0.0;
    double raw_wall = 0.0;
    double cpu_s = 0.0;
    u64 completions = 0;
    u64 cycles = 0;
    u64 dropped = 0;
    for (u64 stream = 0; stream < perfbench::kStreams; ++stream) {
        wall += window[stream] / ref_wall[stream] * kReferenceLoopS;
        cpu_s += cpu[stream] / ref_cpu[stream] * kReferenceLoopS;
        raw_wall += window[stream] / static_cast<double>(runs[stream]);
        completions += first[stream].completions;
        cycles += first[stream].cycles;
        dropped += perfbench::dropped_packets(first[stream], packets);
    }
    const double offered = static_cast<double>(packets * perfbench::kStreams);
    const double clock_hz = perfbench::runner_config(workload, packets, true)
                                .analyzer.lut.system_clock_hz;
    out.metrics["pkts_per_s"] = offered / wall;
    out.metrics["cpu_us_per_pkt"] = cpu_s * 1e6 / offered;
    out.metrics["setup_s"] = median(setup_in_refs) * kReferenceLoopS;
    out.metrics["peak_rss_mb"] =
        peak_rss_mb() - static_cast<double>(threads * perfbench::kReferenceTableBytes) / 1048576.0;
    out.extra["reference_loop_s"] = median(reference);
    out.extra["raw_pkts_per_s"] = offered / raw_wall;
    out.metrics["sim_mdesc_per_s"] =
        static_cast<double>(completions) / (static_cast<double>(cycles) / clock_hz) / 1e6;
    out.metrics["served_ratio"] = 1.0 - static_cast<double>(dropped) / offered;
    out.extra["drop_ratio"] = static_cast<double>(dropped) / offered;
    return out;
}

Outcome run_traced(const perfbench::Workload& workload, const Args& args, u64 packets) {
    Outcome out;
    std::vector<Metrics> samples;
    const Clock::time_point start = Clock::now();
    while (out.reps < 1 || seconds_since(start) < args.seconds) {
        const u64 stream = out.reps % perfbench::kStreams;
        perfbench::Ledger ledger =
            perfbench::run_ledger(workload, perfbench::stream_seed(args.seed, stream), packets);
        ++out.reps;
        const std::string tag = "ledger" + std::to_string(out.reps);
        bool all_ok = true;
        for (Check& check : ledger.checks) {
            all_ok = all_ok && check.ok;
            check.name = tag + "." + check.name;
            out.checks.push_back(std::move(check));
        }
        out.record_fingerprint(stream, ledger.fingerprint, tag);
        out.attempted += ledger.packets;
        out.failed += ledger.packets > ledger.completions ? ledger.packets - ledger.completions : 0;
        samples.push_back(std::move(ledger.metrics));
        if (!all_ok) break;
    }
    for (const auto& [name, unit] : perfbench::ledger_units()) {
        std::vector<double> values;
        for (const Metrics& sample : samples) {
            if (const auto it = sample.find(name); it != sample.end()) values.push_back(it->second);
        }
        out.checks.push_back({"reported." + name, values.size() == samples.size(), ""});
        out.metrics[name] = median(values);
    }
    return out;
}

std::string metrics_json(const Metrics& metrics, const std::vector<Unit>& units) {
    std::string out = "{";
    for (const Unit& unit : units) {
        if (out.size() > 1) out += ",";
        const auto it = metrics.find(unit.name);
        out += "\"" + unit.name + "\":{\"value\":" +
               number(it == metrics.end() ? 0.0 : it->second) + ",\"unit\":\"" + unit.unit +
               "\"}";
    }
    return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
    const Clock::time_point process_start = Clock::now();
    Args args;
    bool have_workload = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage("missing value for " + flag);
        const std::string value = argv[++i];
        u64 parsed = 0;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parse_u64(value, args.seed)) return usage("bad --seed " + value);
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parse_u64(value, parsed) || parsed == 0) return usage("bad --seconds " + value);
            args.seconds = static_cast<double>(parsed);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return usage("bad --trace " + value);
            args.trace = value == "1" ? 1 : 0;
        } else if (flag == "--commit") {
            args.commit = value;
        } else {
            return usage("unknown flag " + flag);
        }
    }
    if (!have_workload || !have_seed) return usage("--workload and --seed are required");
    const perfbench::Workload* workload = perfbench::find_workload(args.workload);
    if (workload == nullptr) return usage("unknown workload " + args.workload);
    const u64 packets = workload->packets;

    const Outcome out = args.trace == 0
                            ? run_end_to_end(*workload, args, packets, process_start)
                            : run_traced(*workload, args, packets);

    std::vector<Unit> units;
    if (args.trace == 0) {
        units = end_to_end_units();
    } else {
        for (const auto& [name, unit] : perfbench::ledger_units()) units.push_back({name, unit});
    }
    bool correct = out.attempted > 0;
    u64 passed = 0;
    for (const Check& check : out.checks) {
        if (check.ok) {
            ++passed;
            continue;
        }
        correct = false;
        std::cerr << "perfbench: check failed: " << check.name
                  << (check.detail.empty() ? "" : " (" + check.detail + ")") << "\n";
    }

    std::string fingerprints = "[";
    for (const u64 value : out.fingerprints) {
        char hex[24];
        std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(value));
        fingerprints += std::string(fingerprints.size() > 1 ? "," : "") + "\"" + hex + "\"";
    }
    fingerprints += "]";
    std::printf("# perfbench workload=%s seed=%llu trace=%d packets/rep=%llu reps=%llu "
                "checks=%llu/%zu\n#   fingerprints per stream %s\n",
                workload->name.c_str(), static_cast<unsigned long long>(args.seed), args.trace,
                static_cast<unsigned long long>(packets),
                static_cast<unsigned long long>(out.reps),
                static_cast<unsigned long long>(passed), out.checks.size(), fingerprints.c_str());
    for (const Unit& unit : units) {
        std::printf("#   %-28s %18s %s\n", unit.name.c_str(),
                    number(out.metrics.count(unit.name) ? out.metrics.at(unit.name) : 0.0).c_str(),
                    unit.unit.c_str());
    }
    std::string extra = "{";
    for (const auto& [name, value] : out.extra) {
        if (extra.size() > 1) extra += ",";
        extra += "\"" + name + "\":" + number(value);
        std::printf("#   %-28s %18s (info)\n", name.c_str(), number(value).c_str());
    }
    extra += "}";
    // The provenance-stamped record of this run.
    std::printf("{\"record\":\"perfbench\",\"workload\":\"%s\",\"trace\":%d,\"reps\":%llu,"
                "\"fingerprints\":%s,\"provenance\":%s,\"metrics\":%s,\"info\":%s}\n",
                workload->name.c_str(), args.trace, static_cast<unsigned long long>(out.reps),
                fingerprints.c_str(), provenance(args).c_str(),
                metrics_json(out.metrics, units).c_str(),
                extra.c_str());
    // The result line.
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics_json(out.metrics, units).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
