// Binary-wide allocation counter for the tests that pin an allocation
// budget (hot-path clock operations, convergecast move semantics).  Link
// alloc_counter.cpp into the test binary; it replaces the global operator
// new/delete, so only one such binary-wide hook may exist per binary.
#pragma once

#include <cstddef>

namespace ddbg::testing {

// Calls to operator new / new[] so far in this process.
[[nodiscard]] std::size_t allocation_count();

}  // namespace ddbg::testing
