# Schema/docs mirror check: src/obs/schema.h is the catalogue in code and
# docs/OBSERVABILITY.md its human-readable mirror. Fails when
#   - a metric (MetricDef) or trace-event (kEv*) name defined in schema.h
#     has no row in the doc's catalogue tables, or
#   - a catalogue row names something schema.h does not define.
# A catalogue name is a backticked dotted name (`ssd.gc.invocations`) in
# the first cell of a markdown table row; one cell may list several
# ("`slo.read.p99_ns` / `slo.read.p999_ns`"). Run as:
#   cmake -DREPO_ROOT=<repo> -P tests/check_schema_docs.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "pass -DREPO_ROOT=<repo checkout>")
endif()

set(name_re "[a-z0-9_]+[.][a-z0-9_.]+")

# --- Names defined in code ---------------------------------------------------
file(READ ${REPO_ROOT}/src/obs/schema.h schema)
string(REGEX MATCHALL "MetricDef k[A-Za-z0-9_]+[{][ \t\r\n]*\"${name_re}\""
       metric_defs "${schema}")
string(REGEX MATCHALL "const char[*] kEv[A-Za-z0-9_]+ = \"${name_re}\""
       event_defs "${schema}")
set(code_names)
foreach(def IN LISTS metric_defs event_defs)
  string(REGEX MATCH "\"${name_re}\"" quoted "${def}")
  string(REPLACE "\"" "" name "${quoted}")
  list(APPEND code_names ${name})
endforeach()
list(LENGTH code_names n_code)
if(n_code EQUAL 0)
  message(FATAL_ERROR "no metric or trace-event names found in schema.h")
endif()

# --- Names the doc's catalogue tables list -----------------------------------
file(STRINGS ${REPO_ROOT}/docs/OBSERVABILITY.md rows REGEX "^\\|")
set(doc_names)
foreach(row IN LISTS rows)
  # First cell: between the leading "|" and the next one.
  string(SUBSTRING "${row}" 1 -1 cell)
  string(FIND "${cell}" "|" end)
  if(end GREATER -1)
    string(SUBSTRING "${cell}" 0 ${end} cell)
  endif()
  string(REGEX MATCHALL "`${name_re}`" ticked "${cell}")
  foreach(t IN LISTS ticked)
    string(REPLACE "`" "" name "${t}")
    list(APPEND doc_names ${name})
  endforeach()
endforeach()

# --- Both directions ---------------------------------------------------------
set(bad 0)
foreach(name IN LISTS code_names)
  if(NOT name IN_LIST doc_names)
    message(SEND_ERROR "${name}: defined in src/obs/schema.h, "
                       "missing from docs/OBSERVABILITY.md's tables")
    math(EXPR bad "${bad} + 1")
  endif()
endforeach()
foreach(name IN LISTS doc_names)
  if(NOT name IN_LIST code_names)
    message(SEND_ERROR "${name}: listed in docs/OBSERVABILITY.md, "
                       "not defined in src/obs/schema.h")
    math(EXPR bad "${bad} + 1")
  endif()
endforeach()
if(bad GREATER 0)
  message(FATAL_ERROR "${bad} schema/docs mismatch(es)")
endif()
list(LENGTH doc_names n_doc)
message(STATUS "schema/docs check: ${n_code} names in schema.h, "
               "${n_doc} in the doc's tables, all mirrored")
