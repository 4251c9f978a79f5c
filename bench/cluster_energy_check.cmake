# Runs `bench_cluster --smoke` with SKELCL_TRACE=<BASE> and checks that
# each scaling config's printed joules and cycles/joule are the total
# energy and perf-per-watt `skeltrace` reports on the trace written for
# that config: both are read from the same recording of the timed region.
#
#   cmake -DBENCH=<bench_cluster> -DSKELTRACE=<skeltrace> -DBASE=<path>
#         -P cluster_energy_check.cmake
execute_process(COMMAND ${CMAKE_COMMAND} -E env SKELCL_TRACE=${BASE}
                        ${BENCH} --smoke
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_cluster --smoke exited with ${rc}")
endif()
foreach(nodes 1 2 4)
  if(NOT out MATCHES
     "\n${nodes} +[0-9.]+ ms +[0-9.]+x +([0-9.]+) +([0-9.e+-]+)")
    message(FATAL_ERROR "no scaling row for ${nodes} node(s)")
  endif()
  set(printed "${CMAKE_MATCH_1} J, ${CMAKE_MATCH_2} cycles/J")
  execute_process(COMMAND ${SKELTRACE} ${BASE}.map.${nodes}node.sktrace
                  RESULT_VARIABLE rc OUTPUT_VARIABLE report)
  if(NOT rc EQUAL 0 OR NOT report MATCHES
     "total energy: ([0-9.]+) J +perf-per-watt: ([0-9.e+-]+) cycles/J")
    message(FATAL_ERROR "skeltrace reports no energy for ${nodes} node(s)")
  endif()
  set(traced "${CMAKE_MATCH_1} J, ${CMAKE_MATCH_2} cycles/J")
  if(NOT printed STREQUAL traced)
    message(FATAL_ERROR
            "${nodes} node(s): bench prints ${printed}, trace has ${traced}")
  endif()
  message("${nodes} node(s): ${printed}, as skeltrace reports")
endforeach()
