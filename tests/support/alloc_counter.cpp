#include "support/alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {
bool g_counting = false;
std::size_t g_allocated = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) g_allocated += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace oftt::test {

void start_counting_allocations() {
  g_allocated = 0;
  g_counting = true;
}

std::size_t stop_counting_allocations() {
  g_counting = false;
  return g_allocated;
}

}  // namespace oftt::test
