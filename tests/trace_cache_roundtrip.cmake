# ctest driver: the warm-trace-cache byte-identity contract, end to end at
# the CLI.
#
# For the registry's "fixture" grid, `smt_shard run` must produce
# byte-identical snapshots with SMT_TRACE_CACHE=0 (regenerate per run) and
# SMT_TRACE_CACHE=1 (shared MaterializedTrace replay) — unsharded, across
# worker counts {1, 4}, through the sharded run+merge path, and under a
# starved 1 MiB budget that evicts entries while runs still extend them.
# Invoked as
#   cmake -DSMT_SHARD=<path-to-smt_shard> -DWORK_DIR=<scratch> -P trace_cache_roundtrip.cmake

if(NOT DEFINED SMT_SHARD OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSMT_SHARD=... -DWORK_DIR=... -P trace_cache_roundtrip.cmake")
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

function(compare_or_die a b what)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "${what}: '${b}' is NOT byte-identical to '${a}'")
  endif()
  message(STATUS "${what}: byte-identical")
endfunction()

# Reference: cache off, single process.
run_checked("${CMAKE_COMMAND}" -E env SMT_TRACE_CACHE=0
            "${SMT_SHARD}" run --bench fixture --out "${WORK_DIR}/nocache")
set(ref "${WORK_DIR}/nocache/BENCH_fixture.json")

# Cache on, unsharded, worker counts 1 and 4.
foreach(workers 1 4)
  run_checked("${CMAKE_COMMAND}" -E env SMT_TRACE_CACHE=1 SMT_SIM_WORKERS=${workers}
              "${SMT_SHARD}" run --bench fixture --out "${WORK_DIR}/cache-w${workers}")
  compare_or_die("${ref}" "${WORK_DIR}/cache-w${workers}/BENCH_fixture.json"
                 "cache on, ${workers} worker(s), unsharded")
endforeach()

# Cache on, sharded 2 ways (both worker counts), merged.
foreach(workers 1 4)
  set(dir "${WORK_DIR}/cache-shard-w${workers}")
  set(fragments "")
  foreach(k RANGE 1 2)
    run_checked("${CMAKE_COMMAND}" -E env SMT_TRACE_CACHE=1 SMT_SIM_WORKERS=${workers}
                "${SMT_SHARD}" run --bench fixture --shard ${k}/2 --out "${dir}")
    list(APPEND fragments "${dir}/BENCH_fixture.shard${k}of2.json")
  endforeach()
  run_checked("${SMT_SHARD}" merge ${fragments} --out "${dir}/merged.json")
  compare_or_die("${ref}" "${dir}/merged.json"
                 "cache on, ${workers} worker(s), 2 shards merged")
endforeach()

# Starved budget: at SMT_TRACE_CACHE_MB=1 and 4 workers, acquires evict
# buffers that running replays still hold and extend; later runs of the
# same key start a fresh buffer. The fixture grid must stay byte-identical.
run_checked("${CMAKE_COMMAND}" -E env SMT_TRACE_CACHE=1 SMT_TRACE_CACHE_MB=1 SMT_SIM_WORKERS=4
            "${SMT_SHARD}" run --bench fixture --out "${WORK_DIR}/starved")
compare_or_die("${ref}" "${WORK_DIR}/starved/BENCH_fixture.json"
               "cache on, 1 MiB budget, 4 workers")

# The fixture's three keys fit in 1 MiB, so the same leg on fig1 (22 keys)
# at small windows is what actually evicts; the stats run proves it does.
set(windows SMT_BENCH_WINDOWS=500:2000)
run_checked("${CMAKE_COMMAND}" -E env ${windows} SMT_TRACE_CACHE=0
            "${SMT_SHARD}" run --bench fig1 --out "${WORK_DIR}/fig1-nocache")
run_checked("${CMAKE_COMMAND}" -E env ${windows} SMT_TRACE_CACHE=1 SMT_TRACE_CACHE_MB=1
            SMT_SIM_WORKERS=4 "${SMT_SHARD}" run --bench fig1 --out "${WORK_DIR}/fig1-starved")
compare_or_die("${WORK_DIR}/fig1-nocache/BENCH_fig1.json"
               "${WORK_DIR}/fig1-starved/BENCH_fig1.json"
               "fig1, cache on, 1 MiB budget, 4 workers")
run_checked("${CMAKE_COMMAND}" -E env ${windows} SMT_TRACE_CACHE=1 SMT_TRACE_CACHE_MB=1
            SMT_SIM_WORKERS=4 SMT_TRACE_CACHE_STATS=1
            "${SMT_SHARD}" run --bench fig1 --out "${WORK_DIR}/fig1-stats")
file(READ "${WORK_DIR}/fig1-stats/BENCH_fig1.json" stats_json)
if(NOT stats_json MATCHES "\"trace_cache.evictions\": \"[1-9][0-9]*\"")
  message(FATAL_ERROR "1 MiB budget on fig1 evicted nothing: the starved leg tests no eviction")
endif()
message(STATUS "fig1, 1 MiB budget: evictions observed")
