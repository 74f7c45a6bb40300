# ctest driver: the default-configuration byte-identity contract.
#
# `smt_shard run --bench fixture` must reproduce the committed golden
# snapshot byte-for-byte. The golden was captured before the modeled
# instruction side landed, so this test proves the subsystem is inert on
# the preset machines (it is reachable only through the registry's
# named *_icache machines): no new counters, no timing drift, no
# serialization change. Invoked as
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
  message(FATAL_ERROR "default-configuration fixture snapshot is NOT byte-identical "
                      "to the committed golden (${WORK_DIR}/BENCH_fixture.json vs "
                      "${GOLDEN}); a default-path behavior change leaked in")
endif()

# Belt and braces: the default snapshot must not mention the modeled
# instruction side at all.
file(READ "${WORK_DIR}/BENCH_fixture.json" snapshot)
if(snapshot MATCHES "imem\\.")
  message(FATAL_ERROR "default snapshot contains imem.* counters — the modeled "
                      "instruction side must be inert unless opted in")
endif()

message(STATUS "default fixture run == committed golden (bitwise)")
