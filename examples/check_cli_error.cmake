# Runs one example binary with a malformed flag and checks the CLI contract:
# exit code 1 and exactly one "error: ..." line on stderr. When FORBID is set,
# stdout must not match it (e.g. "model:" proves no model was trained).
#
#   cmake -DBINARY=<exe> -DARGS=<arg;...> [-DFORBID=<regex>] -P check_cli_error.cmake
execute_process(COMMAND ${BINARY} ${ARGS}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "expected exit code 1, got '${code}'\nstderr:\n${err}")
endif()
string(REGEX MATCHALL "(^|\n)error: [^\n]*" error_lines "${err}")
list(LENGTH error_lines error_count)
if(NOT error_count EQUAL 1)
  message(FATAL_ERROR "expected one 'error:' line, got ${error_count}\n"
                      "stderr:\n${err}")
endif()
if(DEFINED FORBID AND out MATCHES "${FORBID}")
  message(FATAL_ERROR "stdout matched '${FORBID}':\n${out}")
endif()
