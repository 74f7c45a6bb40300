# ctest script: every bench renders its registry grid, unchanged.
#
# For each bench whose snapshot name is a registered grid, the bench
# binary and `smt_shard run --bench <name>` must write byte-identical
# BENCH_<name>.json snapshots — the bench adds tables, never a second grid
# definition. Both sides run with SMT_BENCH_ZERO_WALL=1 and the caller's
# SMT_BENCH_WINDOWS. Invoked as
#   cmake -DSMT_SHARD=<path> -DBENCH_DIR=<dir with bench_*> -DBENCHES=<a,b,...>
#         -DWORK_DIR=<scratch> -P bench_grid_bitwise.cmake
#
# Required: SMT_SHARD, BENCH_DIR, BENCHES, WORK_DIR.

if(NOT DEFINED SMT_SHARD OR NOT DEFINED BENCH_DIR OR NOT DEFINED BENCHES
   OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSMT_SHARD=... -DBENCH_DIR=... -DBENCHES=... "
                      "-DWORK_DIR=... -P bench_grid_bitwise.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/bench" "${WORK_DIR}/shard")

# Both sides expand the grid with one seed and serialize zero wall time.
unset(ENV{SMT_BENCH_SEEDS})
set(ENV{SMT_BENCH_ZERO_WALL} 1)
set(ENV{SMT_BENCH_OUT_DIR} "${WORK_DIR}/bench")

string(REPLACE "," ";" BENCHES "${BENCHES}")
foreach(bench IN LISTS BENCHES)
  execute_process(COMMAND "${BENCH_DIR}/bench_${bench}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_${bench} failed (${rc}):\n${out}\n${err}")
  endif()
  execute_process(COMMAND "${SMT_SHARD}" run --bench "${bench}" --out "${WORK_DIR}/shard"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "smt_shard run --bench ${bench} failed (${rc}):\n${out}\n${err}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                  "${WORK_DIR}/bench/BENCH_${bench}.json"
                  "${WORK_DIR}/shard/BENCH_${bench}.json"
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "bench_${bench} snapshot differs from smt_shard run --bench "
                        "${bench}: the bench ran a grid other than the registry's")
  endif()
  message(STATUS "bench_${bench} == smt_shard run --bench ${bench} (bitwise)")
endforeach()
