// Stamps our own build type into a google-benchmark binary's JSON context as
// ps360_build_type ("(empty)" for an empty CMAKE_BUILD_TYPE, which adds no
// optimization flags). The context's library_build_type describes
// google-benchmark's build, not this one. bench/CMakeLists.txt defines
// PS360_BUILD_TYPE; tools/bench_report.py prints the stamp.
#pragma once

#include <benchmark/benchmark.h>

namespace ps360::bench {

// Initialized before main, so before benchmark::Initialize reads the context.
inline const bool kBuildTypeRecorded = [] {
  const char* build_type = PS360_BUILD_TYPE;
  benchmark::AddCustomContext("ps360_build_type",
                              *build_type != '\0' ? build_type : "(empty)");
  return true;
}();

}  // namespace ps360::bench
