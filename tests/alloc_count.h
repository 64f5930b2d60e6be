// Heap-allocation counting for tests. Including this header replaces the
// global operator new and delete, so a test binary includes it from exactly
// one source file. Only allocations the calling thread makes inside
// AllocationsDuring are counted: the engine runs a 1-thread execution's
// partition tasks on the calling thread.

#ifndef BLACKBOX_TESTS_ALLOC_COUNT_H_
#define BLACKBOX_TESTS_ALLOC_COUNT_H_

#include <cstdlib>
#include <new>

namespace blackbox {
namespace testing {

inline thread_local bool t_counting = false;
inline thread_local long t_allocations = 0;

/// Runs body() and returns the heap allocations this thread made in it.
template <typename Body>
long AllocationsDuring(Body&& body) {
  t_allocations = 0;
  t_counting = true;
  body();
  t_counting = false;
  return t_allocations;
}

}  // namespace testing
}  // namespace blackbox

// Out of line, so the compiler never pairs an inlined free() with a
// new-expression (-Wmismatched-new-delete). The array and nothrow forms are
// replaced too (std::stable_sort's buffer is a nothrow new): a sanitizer
// runtime supplies its own, which would bypass the count and pair its
// allocation with the free() below.
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  if (blackbox::testing::t_counting) ++blackbox::testing::t_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = ::operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void* operator new[](std::size_t n,
                                       const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // BLACKBOX_TESTS_ALLOC_COUNT_H_
