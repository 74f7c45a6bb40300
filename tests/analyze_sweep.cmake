# ctest script: smt_analyze sweep contracts that need more than a regex.
#
#   CASE=json_meta     `sweep --json` records the windows the grid actually
#                      ran: fixture_icache pins 500:2000, so an ambient
#                      SMT_BENCH_WINDOWS must not leak into the meta block.
#   CASE=filter_error  a --workloads/--policies value the grid does not
#                      contain is a usage error (exit 2, naming the value),
#                      never an abort and never an empty or widened grid.
#
# Invoked as
#   cmake -DSMT_ANALYZE=<path> -DCASE=<case> -DWORK_DIR=<scratch> -P analyze_sweep.cmake

if(NOT DEFINED SMT_ANALYZE OR NOT DEFINED CASE OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSMT_ANALYZE=... -DCASE=... -DWORK_DIR=... "
                      "-P analyze_sweep.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

if(CASE STREQUAL "json_meta")
  set(ENV{SMT_BENCH_WINDOWS} "5000:20000")
  set(snapshot "${WORK_DIR}/sweep.json")
  execute_process(COMMAND "${SMT_ANALYZE}" sweep --bench fixture_icache --seeds 1
                          --json "${snapshot}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep failed (${rc}):\n${out}\n${err}")
  endif()
  file(READ "${snapshot}" json)
  foreach(entry "\"bench\": \"fixture_icache\"" "\"measure_insts\": \"2000\""
                "\"warmup_insts\": \"500\"" "\"tool\": \"smt_analyze sweep\""
                "\"seeds\": \"1\"")
    string(FIND "${json}" "${entry}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "sweep snapshot meta lacks ${entry}:\n${json}")
    endif()
  endforeach()
  message(STATUS "sweep --json meta records the grid's pinned 500:2000 windows")

elseif(CASE STREQUAL "filter_error")
  # grid, filter option, value the grid lacks
  foreach(probe "fig4_small_arch;--workloads;8-MEM"
                "fig2_flushed;--policies;DWarn"
                "ablation_detect_delay;--workloads;2-ILP"
                "fig1;--workloads;2-MIX,no-such-workload")
    list(GET probe 0 grid)
    list(GET probe 1 option)
    list(GET probe 2 value)
    execute_process(COMMAND "${SMT_ANALYZE}" sweep --bench ${grid} --seeds 1 ${option} ${value}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "sweep --bench ${grid} ${option} ${value}: expected exit 2, "
                          "got ${rc}:\n${out}\n${err}")
    endif()
    if(NOT err MATCHES "grid '${grid}' has no ")
      message(FATAL_ERROR "sweep --bench ${grid} ${option} ${value}: usage error does "
                          "not name the grid's missing value:\n${err}")
    endif()
    if(out MATCHES "sweeping")
      message(FATAL_ERROR "sweep --bench ${grid} ${option} ${value} started running")
    endif()
  endforeach()
  message(STATUS "filter values outside the grid are usage errors")

else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
