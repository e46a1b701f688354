// Global allocation hooks: every operator new in the process bumps the
// counter while counting is on. Counting is off by default, so untimed
// bookkeeping and untraced runs pay one relaxed load per allocation.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<perfbench::u64> g_allocations{0};

void* counted_alloc(std::size_t size) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* pointer = std::malloc(size == 0 ? 1 : size)) return pointer;
    throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    const auto alignment = static_cast<std::size_t>(align);
    // aligned_alloc wants the size rounded up to a multiple of the alignment.
    const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
    if (void* pointer = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
        return pointer;
    }
    throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

u64 allocations() { return g_allocations.load(std::memory_order_relaxed); }

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_aligned_alloc(size, align);
}
void operator delete(void* pointer) noexcept { std::free(pointer); }
void operator delete[](void* pointer) noexcept { std::free(pointer); }
void operator delete(void* pointer, std::size_t) noexcept { std::free(pointer); }
void operator delete[](void* pointer, std::size_t) noexcept { std::free(pointer); }
void operator delete(void* pointer, std::align_val_t) noexcept { std::free(pointer); }
void operator delete[](void* pointer, std::align_val_t) noexcept { std::free(pointer); }
void operator delete(void* pointer, std::size_t, std::align_val_t) noexcept { std::free(pointer); }
void operator delete[](void* pointer, std::size_t, std::align_val_t) noexcept {
    std::free(pointer);
}
