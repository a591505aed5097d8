# ctest gate: the bytes sscl-lint writes for a fixed deck set must not
# move. `sscl-lint --sarif -` prints the SARIF log and then the text
# report on stdout; its SHA-256, once over the nominal box and once over
# T = [0, 85] degC x VDD +-10%, must equal the digests committed in
# tests/lint/golden/lint_sarif.sha256. The decks are the ones behind
# op_region.golden plus a strongly inverted pair that takes
# weak-inversion-bias's interval path. Run from the source root: the
# SARIF records each deck path as given, so the paths stay relative.
#
# Regenerate on purposeful change: the failure message prints the new
# digest of each box; replace its line in the digest file.
#
# Variables (passed with -D):
#   TOOL     - path to sscl-lint
#   DIGESTS  - committed digest file ("<box> <sha256>" per line)
#   OUT_DIR  - scratch directory for the live output

set(decks
  tests/lint/decks/bad_bias_orphan_tail.sp
  tests/lint/decks/bad_cap_only_node.sp
  tests/lint/decks/bad_domain_crossing.sp
  tests/lint/decks/bad_floating_island.sp
  tests/lint/decks/bad_isource_cutset.sp
  tests/lint/decks/bad_vsource_loop.sp
  tests/lint/decks/good_bias_mirror.sp
  tests/lint/decks/good_divider.sp
  tests/lint/decks/good_level_shift.sp
  tests/lint/decks/good_stscl_adc.sp
  tests/lint/decks/good_stscl_buffer.sp
  tests/lint/decks/good_stscl_counter.sp
  tests/lint/decks/good_stscl_pair.sp
  examples/decks/dc_then_tran.sp
  examples/decks/every_card.sp
  examples/decks/serve_bench.sp
  examples/decks/subvt_buffer_bench.sp
  tests/lint/golden/decks/stscl_fabric_50.sp
  tests/lint/golden/decks/stscl_delay_line.sp
  tests/lint/golden/decks/stscl_ac_gate.sp
  tests/lint/golden/decks/strong_inversion_pair.sp)

file(STRINGS ${DIGESTS} committed)
set(failed "")
foreach(box nominal corners)
  set(box_args "")
  if(box STREQUAL "corners")
    set(box_args --corners T=0:85 --vdd-tol 10%)
  endif()
  set(out ${OUT_DIR}/lint_sarif_${box}.txt)
  execute_process(
    COMMAND ${TOOL} --sarif - ${box_args} ${decks}
    RESULT_VARIABLE rc
    OUTPUT_FILE ${out}
    ERROR_VARIABLE stderr_text)
  # Exit 1 only says some deck has lint errors (the bad_* decks do).
  if(NOT rc EQUAL 0 AND NOT rc EQUAL 1)
    message(FATAL_ERROR "sscl-lint (${box}) exited ${rc}:\n${stderr_text}")
  endif()
  file(SHA256 ${out} got)
  set(want "")
  foreach(line IN LISTS committed)
    if(line MATCHES "^${box} ([0-9a-f]+)$")
      set(want ${CMAKE_MATCH_1})
    endif()
  endforeach()
  if(NOT got STREQUAL want)
    string(APPEND failed "  ${box}: got ${got}, committed '${want}' "
                         "(output in ${out})\n")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "sscl-lint output drifted from ${DIGESTS}:\n"
                      "${failed}If the change is intentional, commit the "
                      "new digests.")
endif()
