#pragma once

/// \file counting_new.hpp
/// Allocation counting for the test executables that bound what a code
/// path allocates. counting_new.cpp replaces every global operator new
/// and delete -- plain, array, nothrow, aligned and sized -- with one
/// set that counts calls and requested bytes while counting is on and
/// pairs every allocation with std::free. Link it into an executable of
/// its own: the replacement is program-wide.

namespace sscl::test_support {

/// What operator new was asked for between start and stop.
struct AllocationCount {
  long long calls = 0;
  long long bytes = 0;
};

/// Zero the counts and start counting on every thread.
void start_counting_allocations();

/// Stop counting and return the counts since the last start.
AllocationCount stop_counting_allocations();

}  // namespace sscl::test_support
