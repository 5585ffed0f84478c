// A minimal check macro for the benchmark's self-tests: a failed check
// prints its location and expression and bumps a failure count that main()
// turns into the exit code.
#pragma once

#include <cstdio>

inline int& check_failures() {
  static int failures = 0;
  return failures;
}

#define CHECK(expr)                                                        \
  do {                                                                     \
    if (!(expr)) {                                                         \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #expr);                                                 \
      ++check_failures();                                                  \
    }                                                                      \
  } while (0)
