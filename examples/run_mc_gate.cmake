# ctest gate: the deck_runner --mc path on the built-in demo deck must
# reproduce the committed ensemble CSV byte for byte at --jobs 1 and at
# --jobs 4. The CSV is written with %.17g and sample s draws from
# Rng(seed).fork(s), so any byte difference is a real change in the
# ensemble engine, the device models or the job-count determinism.
# Regenerate the golden on purposeful change with:
#
#   build/examples/deck_runner --mc 200 --mc-seed 7 \
#     --mc-csv examples/decks/demo_mc.golden.csv
#
# Variables (passed with -D):
#   RUNNER  - path to the deck_runner executable
#   GOLDEN  - committed golden CSV
#   OUT_DIR - scratch directory for the live CSVs

foreach(jobs 1 4)
  set(out ${OUT_DIR}/demo_mc_j${jobs}.csv)
  execute_process(
    COMMAND ${RUNNER} --mc 200 --mc-seed 7 --jobs ${jobs} --mc-csv ${out}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout_text
    ERROR_VARIABLE stderr_text)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "deck_runner --mc failed (${rc}) at --jobs ${jobs}:\n"
                        "${stdout_text}\n${stderr_text}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${out} ${GOLDEN}
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "--mc CSV at --jobs ${jobs} drifted from ${GOLDEN}")
  endif()
endforeach()
