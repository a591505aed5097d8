# ctest gate: `<tool> --help` must match the committed golden byte for
# byte, so the usage text cannot drift from the flags again (it did in
# PR 9: deck_runner had no --help at all and sscl-lint's text was
# missing options). Regenerate a golden on purposeful change with:
#
#   build/examples/<tool> --help > tests/cli/<tool>_help.txt
#
# With ARGS set, the same byte-for-byte check pins the stdout of any
# other invocation (deck_runner on a deck, for example).
#
# Variables (passed with -D):
#   TOOL    - path to the executable
#   ARGS    - arguments to run it with (default --help)
#   GOLDEN  - committed golden stdout
#   OUT     - scratch file to write the live output to

if(NOT DEFINED ARGS)
  set(ARGS --help)
endif()

execute_process(
  COMMAND ${TOOL} ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_FILE ${OUT}
  ERROR_VARIABLE stderr_text)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} ${ARGS} exited ${rc}:\n${stderr_text}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  execute_process(COMMAND ${CMAKE_COMMAND} -E cat ${OUT}
                  OUTPUT_VARIABLE got)
  message(FATAL_ERROR "'${ARGS}' output drifted from ${GOLDEN}; if the "
                      "change is intentional, regenerate the golden:\n${got}")
endif()
