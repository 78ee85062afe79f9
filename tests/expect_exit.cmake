# cmake -DPROGRAM=<exe> "-DARGS=<args>" -DEXIT=<n> "-DOUTPUT=<regex>" -P
# expect_exit.cmake: fails unless PROGRAM exits with status EXIT (a
# signal never matches) and its stdout+stderr matches OUTPUT.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}" OR NOT "${out}${err}" MATCHES "${OUTPUT}")
  message(FATAL_ERROR "'${PROGRAM} ${ARGS}' ended with '${rc}'; want exit "
                      "${EXIT} and output matching '${OUTPUT}':\n${out}${err}")
endif()
