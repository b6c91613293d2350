# --bench-json check: runs one figure in its --quick config with
# --bench-json and checks the file against the figure's own stdout.
#
#   cmake -DBIN=<gimbal_figs> -DFIG=<figure> -DOUT_DIR=<dir>
#         -P check_bench_json.cmake
#
# The JSON must parse, list exactly the tables the figure printed (same
# titles, same order), record one check per PASS/FAIL line, and every
# check must pass.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(v BIN FIG OUT_DIR)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "check_bench_json.cmake: -D${v}= is required")
  endif()
endforeach()

set(name "${FIG}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(json_file "${OUT_DIR}/${name}.json")
file(REMOVE "${json_file}")
execute_process(
  COMMAND "${BIN}" "--fig=${FIG}" --quick "--bench-json=${json_file}"
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${name} --quick exited with ${rc}")
endif()
file(READ "${json_file}" doc)

string(JSON got_bench ERROR_VARIABLE err GET "${doc}" bench)
if(err)
  message(FATAL_ERROR "${json_file} does not parse: ${err}")
endif()
if(NOT got_bench STREQUAL name)
  message(FATAL_ERROR "bench is '${got_bench}', want '${name}'")
endif()

# Printed table titles are the "-- <title>" lines Table::Print() emits
# after a blank line (a column rule can also start with "-- "). Titles may
# hold ';', which CMake lists split on, so both sides swap it for "<sc>".
string(REPLACE ";" "<sc>" out "${out}")
string(REGEX MATCHALL "\n\n-- [^\n]*" printed "${out}")
list(LENGTH printed n_printed)
string(JSON n_tables LENGTH "${doc}" tables)
if(NOT n_tables EQUAL n_printed OR n_printed EQUAL 0)
  message(FATAL_ERROR "${n_tables} tables in the JSON, ${n_printed} printed")
endif()
math(EXPR last "${n_tables} - 1")
foreach(i RANGE ${last})
  list(GET printed ${i} line)
  string(SUBSTRING "${line}" 5 -1 want)
  string(JSON title GET "${doc}" tables ${i} title)
  string(REPLACE ";" "<sc>" title "${title}")
  if(NOT title STREQUAL want)
    message(FATAL_ERROR "table ${i} is '${title}', printed '${want}'")
  endif()
endforeach()

string(REGEX MATCHALL "[^\n]* (PASS|FAIL)\n" verdicts "${out}")
list(LENGTH verdicts n_verdicts)
string(JSON n_checks LENGTH "${doc}" checks)
if(NOT n_checks EQUAL n_verdicts OR n_checks EQUAL 0)
  message(FATAL_ERROR "${n_checks} checks in the JSON, ${n_verdicts} printed")
endif()
math(EXPR last "${n_checks} - 1")
foreach(i RANGE ${last})
  string(JSON pass GET "${doc}" checks ${i} pass)
  if(NOT pass)
    string(JSON check GET "${doc}" checks ${i} name)
    message(FATAL_ERROR "check failed: ${check}")
  endif()
endforeach()
message(STATUS "${name}: ${n_tables} tables and ${n_checks} passing checks")
