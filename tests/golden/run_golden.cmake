# Golden-figure regression step (docs/TESTING.md).
#
# Runs one figure in its --quick config with the trace digest enabled and
# compares stdout + digest byte-for-byte against the checked-in goldens.
# Invoked by ctest (registered in tests/CMakeLists.txt) as:
#
#   cmake -DBIN=<gimbal_figs> -DNAME=<output name> [-DGOLDEN_NAME=<figure>]
#         [-DEXTRA_ARGS="<flags>"] -DGOLDEN_DIR=<repo>/tests/golden
#         -DOUT_DIR=<build>/golden_out [-DREGEN=1] -P run_golden.cmake
#
# GOLDEN_NAME is the figure (`--fig=`) and the goldens' file stem; it
# defaults to NAME. A variant that must reproduce a figure's goldens under
# extra flags (golden.fig_kv_faults.bad_fault_flags) sets its own NAME but
# runs and compares against that figure. REGEN=1 rewrites the
# goldens from this run instead of comparing (the `regen-goldens` build
# target drives this).
cmake_minimum_required(VERSION 3.16)

foreach(v BIN NAME GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "run_golden.cmake: -D${v}= is required")
  endif()
endforeach()
if(NOT DEFINED GOLDEN_NAME)
  set(GOLDEN_NAME "${NAME}")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(stdout_file "${OUT_DIR}/${NAME}.stdout")
set(digest_file "${OUT_DIR}/${NAME}.digest")

set(args "--fig=${GOLDEN_NAME}" --quick "--digest-out=${digest_file}")
if(DEFINED EXTRA_ARGS AND NOT EXTRA_ARGS STREQUAL "")
  separate_arguments(extra UNIX_COMMAND "${EXTRA_ARGS}")
  list(APPEND args ${extra})
endif()

execute_process(
  COMMAND "${BIN}" ${args}
  OUTPUT_FILE "${stdout_file}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "golden.${NAME}: '--fig=${GOLDEN_NAME} --quick' "
                      "exited with ${rc} "
                      "(a fail-fast invariant violation also lands here)")
endif()

if(REGEN)
  configure_file("${stdout_file}" "${GOLDEN_DIR}/${GOLDEN_NAME}.stdout"
                 COPYONLY)
  configure_file("${digest_file}" "${GOLDEN_DIR}/${GOLDEN_NAME}.digest"
                 COPYONLY)
  message(STATUS "golden.${NAME}: regenerated ${GOLDEN_NAME}.{stdout,digest}")
  return()
endif()

set(failed "")
foreach(kind stdout digest)
  set(got "${OUT_DIR}/${NAME}.${kind}")
  set(want "${GOLDEN_DIR}/${GOLDEN_NAME}.${kind}")
  if(NOT EXISTS "${want}")
    list(APPEND failed "missing golden ${want} — run the regen-goldens "
                       "target and commit the result")
    continue()
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${got}" "${want}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    if(kind STREQUAL "digest")
      file(READ "${got}" got_text)
      file(READ "${want}" want_text)
      string(STRIP "${got_text}" got_text)
      string(STRIP "${want_text}" want_text)
      list(APPEND failed
           "digest mismatch: got ${got_text}, want ${want_text}")
    else()
      list(APPEND failed "stdout mismatch: diff ${got} ${want}")
    endif()
  endif()
endforeach()

if(NOT failed STREQUAL "")
  string(JOIN "\n  " msg ${failed})
  message(FATAL_ERROR "golden.${NAME} FAILED:\n  ${msg}\n"
          "If the change is intentional, regenerate with: "
          "cmake --build <build> --target regen-goldens")
endif()
message(STATUS "golden.${NAME}: stdout and digest match")
