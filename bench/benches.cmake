# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ contains only the experiment binaries — `for b in
# build/bench/*; do $b; done` regenerates every experiment with no clutter.

macro(ddbg_bench name)
  add_executable(${name} bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    ddbg_debugger ddbg_analysis ddbg_baselines ddbg_workload
    benchmark::benchmark)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endmacro()

ddbg_bench(bench_e1_equivalence)
# Theorem 2 as a tier-1 check: E1's table pass (no timing loops) exits
# non-zero when any halted state differs from its recorded state.  CI's
# bench-smoke step runs the same binary.
add_test(NAME BenchE1.HaltedStateEqualsRecordedState
  COMMAND bench_e1_equivalence --benchmark_filter=^$
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR})
ddbg_bench(bench_e2_acyclic)
ddbg_bench(bench_e3_debugger_model)
ddbg_bench(bench_e4_scp)
ddbg_bench(bench_e5_infrequent)
ddbg_bench(bench_e6_linked_predicates)
ddbg_bench(bench_e7_overhead)
ddbg_bench(bench_e8_unordered_cp)
ddbg_bench(bench_e9_halt_order)
ddbg_bench(bench_e10_naive_halt)
ddbg_bench(bench_ablation_routing)
ddbg_bench(bench_scale)
ddbg_bench(bench_tcp_soak)
ddbg_bench(bench_replay)
target_link_libraries(bench_replay PRIVATE ddbg_replay)
