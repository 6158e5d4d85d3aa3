# Fails unless `ctest -N -L ${LABEL}` in ${TEST_DIR} lists at least one test
# from every binary named in the comma-separated ${EXPECTED}.
#
#   cmake -DCTEST_COMMAND=ctest -DTEST_DIR=build/tests -DLABEL=threading \
#         -DEXPECTED=test_openmp,test_service -P tests/check_labels.cmake
string(REPLACE "," ";" EXPECTED "${EXPECTED}")
execute_process(
  COMMAND ${CTEST_COMMAND} -N -V -L ${LABEL}
  WORKING_DIRECTORY ${TEST_DIR}
  OUTPUT_VARIABLE listing
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "ctest -N -L ${LABEL} failed (${status})")
endif()
foreach(binary IN LISTS EXPECTED)
  if(NOT listing MATCHES "/${binary} ")
    message(FATAL_ERROR
            "ctest -L ${LABEL} lists no test from ${binary}: its label was "
            "dropped at registration")
  endif()
endforeach()
message(STATUS "ctest -L ${LABEL} covers: ${EXPECTED}")
