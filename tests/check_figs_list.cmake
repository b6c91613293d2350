# figs.list: `gimbal_figs --list` must print exactly the figures
# bench/CMakeLists.txt globs, one per line in sorted order, so a figure
# source that forgets to register (or registers twice) fails here.
#
#   cmake -DBIN=<gimbal_figs> -DFIGURES=<name,name,...> -P check_figs_list.cmake
cmake_minimum_required(VERSION 3.16)

foreach(v BIN FIGURES)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "check_figs_list.cmake: -D${v}= is required")
  endif()
endforeach()

execute_process(COMMAND "${BIN}" --list OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gimbal_figs --list exited with ${rc}")
endif()
string(REPLACE "," ";" want "${FIGURES}")
list(SORT want)
string(REPLACE ";" "\n" want "${want}")
if(NOT out STREQUAL "${want}\n")
  message(FATAL_ERROR "gimbal_figs --list printed:\n${out}\n"
                      "but the figure sources are:\n${want}")
endif()
message(STATUS "gimbal_figs lists every figure source")
