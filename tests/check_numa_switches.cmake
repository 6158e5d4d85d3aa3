# Fails unless the process-wide 0|1 NUMA switches reject a value that is
# neither 0 nor 1: run the quickstart in a fresh process with
# HYMV_FIRST_TOUCH, HYMV_PIN_THREADS and HYMV_TRIAD_PROBE set to 2 (and
# HYMV_BACKEND=adaptive, whose model resolves the triad probe); it must
# exit 0 and print exactly one line
#   hymv: ignoring NAME='2' (expected 0 or 1); using fallback
# per switch, although four rank threads resolve them concurrently.
#
#   cmake -DQUICKSTART=build/examples/quickstart -P tests/check_numa_switches.cmake

set(names HYMV_FIRST_TOUCH HYMV_PIN_THREADS HYMV_TRIAD_PROBE)
set(assignments "")
foreach(name IN LISTS names)
  list(APPEND assignments "${name}=2")
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${assignments} HYMV_BACKEND=adaptive
          ${QUICKSTART}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "quickstart failed (${status}):\n${out}${err}")
endif()
foreach(name IN LISTS names)
  # The match stops before the line's "; ": a list element ends at a ';'.
  string(REGEX MATCHALL "hymv: ignoring ${name}='2' \\(expected 0 or 1\\)"
         lines "${err}")
  list(LENGTH lines count)
  if(NOT count EQUAL 1)
    message(FATAL_ERROR "expected one rejection line for ${name}, got "
                        "${count}; stderr:\n${err}")
  endif()
endforeach()
message(STATUS "each NUMA switch rejected '2' once")
