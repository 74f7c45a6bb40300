# ctest driver: the instruction-side grid's distribution contract.
#
# For the registry's "fixture_icache" grid (tiny modeled I-cache +
# 2-entry I-TLB, environment-immune machine variant, pinned windows):
#   * the single-process snapshot must actually exercise the subsystem
#     (nonzero imem demand-miss / I-TLB-walk counters), and
#   * `smt_shard run` over 3 shards + `smt_shard merge`, and a full
#     `smt_orchestrate run` over subprocess workers, must both reproduce
#     it byte-for-byte — the same bitwise merge contract every other
#     grid honors, now under I-cache pressure.
# Invoked as
#   cmake -DSMT_SHARD=<path> -DSMT_ORCHESTRATE=<path> -DWORK_DIR=<scratch>
#         -P icache_roundtrip.cmake
#
# Required: SMT_SHARD, SMT_ORCHESTRATE, WORK_DIR.

if(NOT DEFINED SMT_SHARD OR NOT DEFINED SMT_ORCHESTRATE OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSMT_SHARD=... -DSMT_ORCHESTRATE=... -DWORK_DIR=... -P icache_roundtrip.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_checked)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

# The single-process reference snapshot.
run_checked("${SMT_SHARD}" run --bench fixture_icache --out "${WORK_DIR}/single")
set(single "${WORK_DIR}/single/BENCH_fixture_icache.json")

# The runs must have been under instruction-side pressure: the config is
# sized so demand misses and I-TLB walks cannot be zero (the presets'
# free I-TLB never walks).
file(READ "${single}" snapshot)
foreach(counter imem.demand_misses imem.itlb_misses)
  if(NOT snapshot MATCHES "\"${counter}\": [1-9]")
    message(FATAL_ERROR "single-process fixture_icache snapshot has no nonzero "
                        "\"${counter}\" — the grid is not exercising the subsystem")
  endif()
endforeach()

# Sharded: 3 strided shards, merged, byte-identical.
set(fragments "")
foreach(k RANGE 1 3)
  run_checked("${SMT_SHARD}" run --bench fixture_icache --shard ${k}/3
              --strategy strided --out "${WORK_DIR}/shards")
  list(APPEND fragments "${WORK_DIR}/shards/BENCH_fixture_icache.shard${k}of3.json")
endforeach()
run_checked("${SMT_SHARD}" merge ${fragments} --out "${WORK_DIR}/shards/merged.json")
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${single}" "${WORK_DIR}/shards/merged.json"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "merged 3-shard fixture_icache snapshot is NOT byte-identical "
                      "to the single-process run")
endif()

# Orchestrated: subprocess workers end to end, byte-identical.
run_checked("${SMT_ORCHESTRATE}" run --grid fixture_icache --shards 3 --jobs 2
            --out-dir "${WORK_DIR}/orch" --smt-shard "${SMT_SHARD}")
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${single}" "${WORK_DIR}/orch/BENCH_fixture_icache.json"
                RESULT_VARIABLE orch_same)
if(NOT orch_same EQUAL 0)
  message(FATAL_ERROR "orchestrated fixture_icache snapshot is NOT byte-identical "
                      "to the single-process run")
endif()

message(STATUS "fixture_icache: nonzero imem counters; 3-shard merge and "
               "orchestrated sweep == single-process (bitwise)")
