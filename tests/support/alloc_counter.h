// Counts the bytes requested from the global operator new while a
// measurement runs. Linking tests/support/alloc_counter.cpp into a test
// binary replaces operator new/delete for that binary.
#pragma once

#include <cstddef>

namespace oftt::test {

void start_counting_allocations();
/// Bytes requested since start_counting_allocations().
std::size_t stop_counting_allocations();

template <class F>
std::size_t bytes_allocated_by(F&& f) {
  start_counting_allocations();
  f();
  return stop_counting_allocations();
}

}  // namespace oftt::test
