# Benchmark targets, included from the top-level CMakeLists. They build
# every runnable bench binary, and nothing else, into
# ${CMAKE_BINARY_DIR}/bench. CMake never deletes the outputs of removed
# targets, so run `for b in build/bench/*; do $b; done` from a fresh build
# directory: an older tree may still hold retired benches.

set(BBA_BENCH_DIR "${CMAKE_SOURCE_DIR}/bench")

# Figure/table reproduction harnesses: plain executables, one per paper
# experiment, each printing the paper's series as ASCII tables + CSV.
file(GLOB BBA_FIG_BENCHES CONFIGURE_DEPENDS
     "${BBA_BENCH_DIR}/fig*.cpp"
     "${BBA_BENCH_DIR}/table*.cpp"
     "${BBA_BENCH_DIR}/ablation*.cpp"
     "${BBA_BENCH_DIR}/stream*.cpp"
     "${BBA_BENCH_DIR}/bandwidth*.cpp"
     "${BBA_BENCH_DIR}/adversarial*.cpp"
     "${BBA_BENCH_DIR}/scenario*.cpp")
foreach(bench_src ${BBA_FIG_BENCHES})
  get_filename_component(bench_name ${bench_src} NAME_WE)
  add_executable(${bench_name} ${bench_src} ${BBA_BENCH_DIR}/bench_common.cpp)
  target_link_libraries(${bench_name} PRIVATE bba)
  set_target_properties(${bench_name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/bench")
endforeach()
