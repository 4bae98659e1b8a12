// The replacement operator new/delete behind testing::allocation_count().
// They live in their own translation unit so that no delete expression in
// a test inlines them: inlined there, GCC 12 at -O3 reads their free() as
// freeing memory that came from operator new (-Wmismatched-new-delete).
#include "tests/alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocation_count{0};

void* counted_malloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ddbg::testing {

std::size_t allocation_count() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

}  // namespace ddbg::testing
