# Fails unless the fault drill is resolved once per job, not once per ghost
# exchange: run the quickstart in a fresh process with
# HYMV_FAULT_TIMEOUT_MS=-5; it must exit 0 and print exactly one line
#   hymv: ignoring HYMV_FAULT_TIMEOUT_MS='-5' (expected ...); using fallback
# although its four ranks build several ghost exchanges.
#
#   cmake -DQUICKSTART=build/examples/quickstart -P tests/check_fault_drill_once.cmake

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env HYMV_FAULT_TIMEOUT_MS=-5 ${QUICKSTART}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "quickstart failed (${status}):\n${out}${err}")
endif()
string(REGEX MATCHALL "hymv: ignoring HYMV_FAULT_TIMEOUT_MS='-5'" lines
       "${err}")
list(LENGTH lines count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "expected one rejection line for HYMV_FAULT_TIMEOUT_MS, "
                      "got ${count}; stderr:\n${err}")
endif()
message(STATUS "HYMV_FAULT_TIMEOUT_MS='-5' rejected once")
