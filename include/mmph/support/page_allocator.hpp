#pragma once

/// \file page_allocator.hpp
/// \brief Allocator that keeps large long-lived buffers out of the malloc
/// heap.
///
/// glibc raises its mmap threshold after the first large free, so later
/// buffers of a few hundred KiB come from the heap; when such a buffer is
/// grown or freed while small per-request objects sit around it, the heap
/// fragments and resident memory ratchets up. PageAllocator sends every
/// request of at least kPageAllocMinBytes straight to mmap, so freeing it
/// returns the pages to the OS at once. Smaller requests use malloc.

#include <cstddef>

namespace mmph::support {

/// Requests of at least this many bytes are page-backed.
inline constexpr std::size_t kPageAllocMinBytes = std::size_t{64} << 10;

/// malloc below kPageAllocMinBytes, anonymous mmap at or above it.
/// \throws std::bad_alloc when the memory cannot be obtained.
[[nodiscard]] void* page_alloc(std::size_t bytes);
/// Releases \p p obtained from page_alloc(\p bytes) (same size).
void page_free(void* p, std::size_t bytes) noexcept;

/// Standard-library allocator over page_alloc/page_free (stateless).
template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() noexcept = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(page_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    page_free(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace mmph::support
