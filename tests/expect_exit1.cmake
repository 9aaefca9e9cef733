# Runs one command line and fails unless it exits with status 1 and
# prints MATCH on stderr — the contract for rejected CLI arguments.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" "-DMATCH=<text>" -P expect_exit1.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${MATCH}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${MATCH}':\n${err}")
endif()
