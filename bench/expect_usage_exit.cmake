# Runs ${PROGRAM} with the single argument ${ARG} and fails unless it exits
# with status 2 and prints its usage line. Used by the bench argument tests:
#   cmake -DPROGRAM=<exe> -DARG=<arg> -P expect_usage_exit.cmake
execute_process(
  COMMAND "${PROGRAM}" "${ARG}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT status EQUAL 2)
  message(FATAL_ERROR
    "'${PROGRAM} ${ARG}' exited with '${status}', want 2\n${out}${err}")
endif()
if(NOT err MATCHES "usage: ")
  message(FATAL_ERROR "'${PROGRAM} ${ARG}' printed no usage line\n${err}")
endif()
