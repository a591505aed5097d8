# ctest gate: a malformed numeric flag value must end deck_runner with
# the usage-error status 2 and a message naming the value and the flag,
# never with an uncaught exception (SIGABRT) or a runaway allocation.
# An abort yields a non-numeric result, so it fails the EQUAL test.
#
# Variables (passed with -D):
#   RUNNER - path to the deck_runner executable

set(cases
  "--mc|abc"
  "--mc-seed|zz"
  "--jobs|x"
  "--max-depth|x"
  "--mc|99999999999999999999"
  "--mc|-1")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" pair "${case}")
  list(GET pair 0 flag)
  list(GET pair 1 value)
  execute_process(
    COMMAND ${RUNNER} ${flag} ${value}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout_text
    ERROR_VARIABLE stderr_text)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "deck_runner ${flag} ${value}: expected exit 2, "
                        "got '${rc}':\n${stdout_text}\n${stderr_text}")
  endif()
  string(FIND "${stderr_text}"
         "deck_runner: invalid value '${value}' for ${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "deck_runner ${flag} ${value}: unexpected "
                        "message:\n${stderr_text}")
  endif()
endforeach()
