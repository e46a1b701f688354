#include <chrono>
#include <ctime>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One pass over `table`: pseudo-random slots of a 16 MiB table (the order
/// of the simulator's own resident set), with a data-dependent branch per
/// probe. Cache misses, integer work and branch mispredictions: the
/// simulator's mix. Returns the thread's CPU seconds.
double probe_pass(std::vector<u64>& table, u64& sink) {
    constexpr u64 kProbes = u64{1} << 21;
    const u64 mask = table.size() - 1;
    const double start = thread_cpu_s();
    u64 x = 0x9e3779b97f4a7c15ull;
    u64 acc = 0;
    for (u64 i = 0; i < kProbes; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        u64& slot = table[x & mask];
        acc += slot;
        slot = acc ^ x;
        if ((acc >> 3) & 1) {
            acc = acc * 0xff51afd7ed558ccdull + i;
        } else {
            acc ^= acc >> 29;
        }
    }
    sink += acc;
    return thread_cpu_s() - start;
}

}  // namespace

Reference reference_loop(unsigned threads) {
    constexpr u64 kSlots = kReferenceTableBytes / sizeof(u64);
    static std::vector<std::unique_ptr<std::vector<u64>>> tables;
    static volatile u64 keep = 0;
    while (tables.size() < threads) {
        tables.push_back(std::make_unique<std::vector<u64>>(kSlots, 0));
    }

    std::vector<double> cpu(threads, 0.0);
    std::vector<u64> sinks(threads, 0);
    const auto start = std::chrono::steady_clock::now();
    {
        std::vector<std::jthread> helpers;
        for (unsigned t = 1; t < threads; ++t) {
            helpers.emplace_back([&, t] { cpu[t] = probe_pass(*tables[t], sinks[t]); });
        }
        cpu[0] = probe_pass(*tables[0], sinks[0]);
    }
    const auto end = std::chrono::steady_clock::now();

    Reference out;
    out.wall_s = std::chrono::duration<double>(end - start).count();
    for (unsigned t = 0; t < threads; ++t) {
        out.cpu_s += cpu[t] / threads;
        keep = keep + sinks[t];
    }
    return out;
}

}  // namespace perfbench
