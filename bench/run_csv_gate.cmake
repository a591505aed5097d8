# ctest gate: run every CSV-writing paper bench at its default flags in
# a scratch directory and compare each CSV it writes byte-for-byte
# against the committed copy at the repository root. The benches are
# single-threaded and deterministic, so any byte difference is a real
# behaviour change somewhere under the figure. Regenerate the committed
# CSVs on purposeful change and record the drift in CHANGES.md.
#
# Variables (passed with -D):
#   BENCH_DIR  - directory holding the bench executables
#   BENCHES    - ;-separated bench names to run
#   GOLDEN_DIR - directory of the committed CSVs
#   WORK       - scratch directory (emptied first)
#   EXCLUDE    - ;-separated CSV names that are not deterministic

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

foreach(bench IN LISTS BENCHES)
  execute_process(
    COMMAND ${BENCH_DIR}/${bench}
    WORKING_DIRECTORY ${WORK}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout_text
    ERROR_VARIABLE stderr_text)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} failed (${rc}):\n"
                        "${stdout_text}\n${stderr_text}")
  endif()
endforeach()

file(GLOB written RELATIVE ${WORK} ${WORK}/*.csv)
file(GLOB committed RELATIVE ${GOLDEN_DIR} ${GOLDEN_DIR}/*.csv)
list(REMOVE_ITEM committed ${EXCLUDE})
list(SORT written)
list(SORT committed)
if(NOT written STREQUAL committed)
  message(FATAL_ERROR "the benches wrote [${written}] but the committed "
                      "deterministic CSVs are [${committed}]")
endif()

set(drifted "")
foreach(csv IN LISTS written)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK}/${csv}
            ${GOLDEN_DIR}/${csv}
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    list(APPEND drifted ${csv})
  endif()
endforeach()
if(drifted)
  message(FATAL_ERROR "bench CSVs drifted from their committed copies "
                      "(fresh output in ${WORK}): ${drifted}")
endif()
list(LENGTH written count)
message(STATUS "${count} bench CSVs match their committed copies")
