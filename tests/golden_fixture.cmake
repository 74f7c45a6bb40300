# ctest driver: the preset machines' byte-identity contract.
#
# `smt_shard run --bench fixture` must reproduce the committed golden
# snapshot byte-for-byte, so any change to the preset machines' timing,
# counters or serialization shows here and has to be re-pinned on purpose.
# Invoked as
#   cmake -DSMT_SHARD=<path> -DGOLDEN=<path> -DWORK_DIR=<scratch> -P golden_fixture.cmake
#
# Required: SMT_SHARD, GOLDEN, WORK_DIR.

if(NOT DEFINED SMT_SHARD OR NOT DEFINED GOLDEN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSMT_SHARD=... -DGOLDEN=... -DWORK_DIR=... -P golden_fixture.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(COMMAND "${SMT_SHARD}" run --bench fixture --out "${WORK_DIR}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "smt_shard run failed (${rc}):\n${out}\n${err}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${GOLDEN}" "${WORK_DIR}/BENCH_fixture.json"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "fixture snapshot is NOT byte-identical to the committed "
                      "golden (${WORK_DIR}/BENCH_fixture.json vs ${GOLDEN}); a "
                      "preset-machine behavior change leaked in")
endif()

# Every preset machine fetches through the instruction side, so every run
# must report instruction fetches.
file(READ "${WORK_DIR}/BENCH_fixture.json" snapshot)
string(JSON nruns LENGTH "${snapshot}" runs)
math(EXPR last "${nruns} - 1")
foreach(i RANGE ${last})
  string(JSON fetches GET "${snapshot}" runs ${i} counters imem.fetches)
  if(NOT fetches GREATER 0)
    message(FATAL_ERROR "run ${i} of the fixture snapshot reports imem.fetches = "
                        "${fetches}: the fetch stage bypassed the instruction side")
  endif()
endforeach()

message(STATUS "fixture run == committed golden (bitwise)")
