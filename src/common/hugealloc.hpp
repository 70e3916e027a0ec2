// Huge-page-backed allocator for large, randomly-indexed arrays.
//
// The simulator's big metadata arrays (the victim-pool and L4 way
// arrays are megabytes per probe, 8 bytes a way) are probed at
// cache-set granularity in data-dependent order.  On 4 KiB host pages
// that sprays thousands of pages and turns every probe into a likely
// host-dTLB miss — which also silently drops the __builtin_prefetch
// hints the hot path issues (x86 drops prefetches that would need a
// page walk).  Advising the kernel to back these arrays with 2 MiB
// transparent huge pages collapses them onto a handful of TLB entries.
//
// On Linux every array of 2 MiB or more gets its own anonymous
// mapping, 2 MiB-aligned and rounded up to whole huge pages, and is
// unmapped on deallocate.  A finished probe's arrays therefore leave
// the process at once instead of sitting in the C allocator's arenas,
// where a server building a fresh probe per request grew to gigabytes
// of resident memory.  The caller still writes every element (a
// std::vector value-initialises), so the pages are faulted in and
// zero-filled at construction exactly as before.
//
// Purely a host-performance hint: allocation contents and simulator
// behaviour are unchanged.  Smaller arrays, non-Linux hosts and
// AddressSanitizer builds (whose heap instrumentation a private
// mapping would bypass) use a plain 2 MiB-aligned allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(__linux__) && !defined(__SANITIZE_ADDRESS__)
#define P8_HUGEALLOC_MMAP 1
#else
#define P8_HUGEALLOC_MMAP 0
#endif

namespace p8::common {

template <class T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() = default;
  template <class U>
  HugePageAllocator(const HugePageAllocator<U>&) {}

  static constexpr std::size_t kHugeBytes = 2ull << 20;

  T* allocate(std::size_t n) {
    // n * sizeof(T) overflowing SIZE_MAX would wrap to a tiny
    // allocation that the caller then indexes far past.
    if (n > SIZE_MAX / sizeof(T)) throw std::bad_alloc();
    const std::size_t bytes = n * sizeof(T);
    void* p = huge(bytes) ? map_huge(rounded(bytes))
                          : std::malloc(bytes ? bytes : 1);
    if (!p) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, [[maybe_unused]] std::size_t n) {
#if P8_HUGEALLOC_MMAP
    if (huge(n * sizeof(T))) {
      munmap(p, rounded(n * sizeof(T)));
      return;
    }
#endif
    std::free(p);
  }

  template <class U>
  bool operator==(const HugePageAllocator<U>&) const {
    return true;
  }

 private:
  static bool huge(std::size_t bytes) {
    return bytes >= kHugeBytes && bytes <= SIZE_MAX - 2 * kHugeBytes;
  }
  // Whole huge pages: madvise-mode THP only collapses fully-covered,
  // aligned 2 MiB extents.
  static std::size_t rounded(std::size_t bytes) {
    return (bytes + kHugeBytes - 1) & ~(kHugeBytes - 1);
  }

  /// `size` bytes on a 2 MiB boundary, advised onto huge pages, or
  /// nullptr.  With mmap the block is its own mapping: over-map by one
  /// huge page and trim the unaligned head and the tail, so that
  /// deallocate's munmap(p, size) releases exactly this block.
  static void* map_huge(std::size_t size) {
#if P8_HUGEALLOC_MMAP
    void* raw = mmap(nullptr, size + kHugeBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) return nullptr;
    const auto start = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned = (start + kHugeBytes - 1) & ~(kHugeBytes - 1);
    const std::size_t head = aligned - start;
    if (head) munmap(raw, head);
    munmap(reinterpret_cast<void*>(aligned + size), kHugeBytes - head);
    void* p = reinterpret_cast<void*>(aligned);
#else
    void* p = std::aligned_alloc(kHugeBytes, size);
    if (!p) return nullptr;
#endif
#if defined(__linux__)
    madvise(p, size, MADV_HUGEPAGE);
#endif
    return p;
  }
};

}  // namespace p8::common

#undef P8_HUGEALLOC_MMAP
