# Fails unless configuration enters at the edge:
#   1. the HYMV_* names that ${SOURCE_DIR}'s src, tools, examples and bench
#      pass to an environment reader (getenv or an env_* reader of
#      common/env.hpp) are exactly the rows of README.md's knob table;
#   2. src/core and src/pla call no getenv, no env_* reader and no
#      from_env resolver: they take their options as arguments;
#   3. every rejected value prints through common/env's one formatter: the
#      literal "hymv: ignoring" appears in the code (comments aside) of
#      src/common/src/env.cpp and of no other source.
#
#   cmake -DSOURCE_DIR=. -P tests/check_env_edge.cmake

get_filename_component(SOURCE_DIR "${SOURCE_DIR}" ABSOLUTE)
set(reader_call "(getenv|env_[a-z_]+)[ \t\r\n]*\\(")

file(GLOB_RECURSE sources
     "${SOURCE_DIR}/src/*.cpp" "${SOURCE_DIR}/src/*.hpp"
     "${SOURCE_DIR}/tools/*.cpp" "${SOURCE_DIR}/tools/*.hpp"
     "${SOURCE_DIR}/examples/*.cpp" "${SOURCE_DIR}/examples/*.hpp"
     "${SOURCE_DIR}/bench/*.cpp" "${SOURCE_DIR}/bench/*.hpp")
if(NOT sources)
  message(FATAL_ERROR "no sources under SOURCE_DIR='${SOURCE_DIR}'")
endif()

# --- 1. names read == README rows -------------------------------------------
set(read_names "")
foreach(file IN LISTS sources)
  file(READ "${file}" text)
  string(REGEX MATCHALL "${reader_call}[ \t\r\n]*\"HYMV_[A-Z0-9_]+\""
         calls "${text}")
  foreach(call IN LISTS calls)
    string(REGEX MATCH "HYMV_[A-Z0-9_]+" name "${call}")
    list(APPEND read_names ${name})
  endforeach()
endforeach()
list(REMOVE_DUPLICATES read_names)

file(STRINGS "${SOURCE_DIR}/README.md" rows REGEX "^\\| `HYMV_[A-Z0-9_]+`")
set(table_names "")
foreach(row IN LISTS rows)
  string(REGEX MATCH "HYMV_[A-Z0-9_]+" name "${row}")
  list(APPEND table_names ${name})
endforeach()

set(unlisted ${read_names})
list(REMOVE_ITEM unlisted ${table_names})
set(stale ${table_names})
list(REMOVE_ITEM stale ${read_names})
if(unlisted OR stale)
  message(FATAL_ERROR "README's knob table and the code disagree. Read but "
                      "without a row: [${unlisted}]; a row but never read: "
                      "[${stale}]")
endif()

# --- 2. no environment reads in src/core and src/pla ------------------------
set(library_reads "")
foreach(file IN LISTS sources)
  if(NOT file MATCHES "/src/(core|pla)/")
    continue()
  endif()
  file(READ "${file}" text)
  string(REGEX REPLACE "//[^\n]*" "" text "${text}")
  string(REGEX MATCHALL "(${reader_call}|from_env[ \t\r\n]*\\()" calls
         "${text}")
  if(calls)
    file(RELATIVE_PATH rel "${SOURCE_DIR}" "${file}")
    string(REPLACE ";" " " calls "${calls}")
    list(APPEND library_reads "${rel}: ${calls}")
  endif()
endforeach()
if(library_reads)
  string(REPLACE ";" "\n  " library_reads "${library_reads}")
  message(FATAL_ERROR "src/core and src/pla must take their options as "
                      "arguments; these read the environment:\n  "
                      "${library_reads}")
endif()

# --- 3. one rejection format -----------------------------------------------
set(formats "")
foreach(file IN LISTS sources)
  file(READ "${file}" text)
  string(REGEX REPLACE "//[^\n]*" "" text "${text}")
  string(FIND "${text}" "hymv: ignoring" at)
  if(NOT at EQUAL -1)
    file(RELATIVE_PATH rel "${SOURCE_DIR}" "${file}")
    list(APPEND formats "${rel}")
  endif()
endforeach()
if(NOT formats STREQUAL "src/common/src/env.cpp")
  message(FATAL_ERROR "the \"hymv: ignoring\" rejection line must be "
                      "written only in src/common/src/env.cpp (call "
                      "hymv::warn_env_rejected or an env_* reader); found "
                      "in: [${formats}]")
endif()

list(LENGTH read_names count)
message(STATUS "${count} HYMV_* knobs, each with a README row; src/core and "
               "src/pla read no environment; one rejection format")
