#include "mmph/support/page_allocator.hpp"

#include <sys/mman.h>

#include <cstdlib>
#include <new>

namespace mmph::support {

void* page_alloc(std::size_t bytes) {
  if (bytes < kPageAllocMinBytes) {
    void* p = std::malloc(bytes == 0 ? 1 : bytes);
    if (p == nullptr) throw std::bad_alloc();
    return p;
  }
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void page_free(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes < kPageAllocMinBytes) {
    std::free(p);
    return;
  }
  ::munmap(p, bytes);
}

}  // namespace mmph::support
