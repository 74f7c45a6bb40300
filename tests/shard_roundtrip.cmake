# ctest driver: the sharding acceptance contract, end to end at the CLI.
#
# For the registry's "fixture" grid: `smt_shard run` over several shard
# counts followed by `smt_shard merge` must produce a snapshot that is
# byte-identical to the single-process run, also when the shards ran
# under different environments. Invoked as
#   cmake -DSMT_SHARD=<path-to-smt_shard> -DWORK_DIR=<scratch> -P shard_roundtrip.cmake
#
# Required: SMT_SHARD, WORK_DIR.

if(NOT DEFINED SMT_SHARD OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSMT_SHARD=... -DWORK_DIR=... -P shard_roundtrip.cmake")
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
run_checked("${SMT_SHARD}" run --bench fixture --out "${WORK_DIR}/single")

foreach(shards 1 2 3)
  foreach(strategy contiguous strided)
    set(dir "${WORK_DIR}/n${shards}-${strategy}")
    set(fragments "")
    foreach(k RANGE 1 ${shards})
      run_checked("${SMT_SHARD}" run --bench fixture --shard ${k}/${shards}
                  --strategy ${strategy} --out "${dir}")
      list(APPEND fragments "${dir}/BENCH_fixture.shard${k}of${shards}.json")
    endforeach()
    run_checked("${SMT_SHARD}" merge ${fragments} --out "${dir}/merged.json")
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                    "${WORK_DIR}/single/BENCH_fixture.json" "${dir}/merged.json"
                    RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR "merged snapshot of ${shards} ${strategy} shard(s) is NOT "
                          "byte-identical to the single-process run "
                          "(${dir}/merged.json vs ${WORK_DIR}/single/BENCH_fixture.json)")
    endif()
    message(STATUS "${shards} ${strategy} shard(s): merged == single-process (bitwise)")
  endforeach()
endforeach()

# A machine name fully determines its configuration: no environment knob
# may rewrite a preset behind the grid fingerprint. Shard 1/2 runs under
# the former instruction-side knobs, shard 2/2 under the default
# environment, and the merge must still equal the single-process run
# (knobs that rewrote the preset machines once merged modeled-I-cache
# rows with legacy ones under one fingerprint).
set(dir "${WORK_DIR}/mixed-env")
run_checked("${CMAKE_COMMAND}" -E env SMT_ICACHE=1 SMT_ICACHE_KB=4
            "${SMT_SHARD}" run --bench fixture --shard 1/2 --out "${dir}")
run_checked("${SMT_SHARD}" run --bench fixture --shard 2/2 --out "${dir}")
run_checked("${SMT_SHARD}" merge "${dir}/BENCH_fixture.shard1of2.json"
            "${dir}/BENCH_fixture.shard2of2.json" --out "${dir}/merged.json")
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${WORK_DIR}/single/BENCH_fixture.json" "${dir}/merged.json"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "merge of a SMT_ICACHE=1 shard with a default shard is NOT "
                      "byte-identical to the single-process run: the environment "
                      "changed the machine (${dir}/merged.json)")
endif()
message(STATUS "mixed-environment shards: merged == single-process (bitwise)")
