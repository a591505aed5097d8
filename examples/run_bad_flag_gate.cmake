# ctest gate: a malformed numeric flag value must end a command-line
# tool with the usage-error status 2 and a message naming the value and
# the flag, never with an uncaught exception (SIGABRT), a runaway
# allocation or a silently substituted value. An abort yields a
# non-numeric result, so it fails the EQUAL test.
#
# Variables (passed with -D):
#   TOOL  - path to the tool's executable
#   NAME  - the tool's name as its messages print it
#   CASES - ;-separated flag|value pairs, each one malformed

foreach(case IN LISTS CASES)
  string(REPLACE "|" ";" pair "${case}")
  list(GET pair 0 flag)
  list(GET pair 1 value)
  execute_process(
    COMMAND ${TOOL} ${flag} ${value}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout_text
    ERROR_VARIABLE stderr_text)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${NAME} ${flag} ${value}: expected exit 2, "
                        "got '${rc}':\n${stdout_text}\n${stderr_text}")
  endif()
  string(FIND "${stderr_text}"
         "${NAME}: invalid value '${value}' for ${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${NAME} ${flag} ${value}: unexpected "
                        "message:\n${stderr_text}")
  endif()
endforeach()
