# Build file of the benchmark's probe.  Pass it to the repository's own
# configure step so the probe links the same library targets the CLIs use:
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=RelWithDebInfo \
#         -DCMAKE_PROJECT_unprotected_INCLUDE=$PWD/perfbench/probe.cmake
#   cmake --build .bench_build --target unp_report unp_query unp_serve \
#         unp_bench_probe
#
# CMake includes this file right after the root project() call, before the
# library targets exist; target names resolve at generate time.
add_executable(unp_bench_probe
  ${CMAKE_CURRENT_LIST_DIR}/probe.cpp
  ${CMAKE_CURRENT_LIST_DIR}/loadgen.cpp)
set_target_properties(unp_bench_probe PROPERTIES
  CXX_STANDARD 20
  CXX_STANDARD_REQUIRED ON
  CXX_EXTENSIONS OFF
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
target_include_directories(unp_bench_probe PRIVATE ${CMAKE_CURRENT_LIST_DIR})
target_link_libraries(unp_bench_probe PRIVATE unp_bench_util unp::serve)
