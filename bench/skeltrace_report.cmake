# Runs `skeltrace <trace>` and `skeltrace --json <trace> -o <out>` and
# checks that the totals and counter tracks derived from the commands
# are there: nonzero H2D bytes and kernel cycles in the report, and
# h2d_bytes / kernel_cycles tracks in the Chrome JSON. The report must
# also list the stencil's layout decision, which on the 4-GPU heat trace
# is row-aligned.
#
#   cmake -DSKELTRACE=<skeltrace> -DTRACE=<in.sktrace> -DOUT=<out.json>
#         -P skeltrace_report.cmake
execute_process(COMMAND ${SKELTRACE} ${TRACE}
                RESULT_VARIABLE rc OUTPUT_VARIABLE report)
message("${report}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "skeltrace ${TRACE} exited with ${rc}")
endif()
foreach(pattern "h2d: [1-9][0-9]* bytes" "kernel cycles: [1-9]"
        "\n  [1-9][0-9]*x stencil\\.layout: row-aligned\n")
  if(NOT report MATCHES "${pattern}")
    message(FATAL_ERROR "report lacks '${pattern}'")
  endif()
endforeach()

execute_process(COMMAND ${SKELTRACE} --json ${TRACE} -o ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "skeltrace --json ${TRACE} exited with ${rc}")
endif()
file(READ ${OUT} json)
foreach(track h2d_bytes kernel_cycles)
  if(NOT json MATCHES "\"ph\":\"C\",\"pid\":[1-9][0-9]*,[^\n]*\"name\":\"${track}\"")
    message(FATAL_ERROR "${OUT} lacks a per-device ${track} track")
  endif()
endforeach()
