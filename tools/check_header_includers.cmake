# Fails when a header under src/ is reached only by tests.
#
# Every src/**/*.hpp must be included by at least one source file outside
# tests/ other than its own .cpp: a library, example, bench or tool. A
# header whose only includers are tests is either dead code or a test
# oracle, and oracles live under tests/.
#
# Usage: cmake -DROOT=<repo root> -P tools/check_header_includers.cmake
if(NOT ROOT)
  message(FATAL_ERROR "pass -DROOT=<repo root>")
endif()

file(GLOB_RECURSE headers RELATIVE "${ROOT}/src" "${ROOT}/src/*.hpp")
set(consumers)
foreach(dir src examples bench bench_e2e tools)
  file(GLOB_RECURSE found "${ROOT}/${dir}/*.cpp" "${ROOT}/${dir}/*.hpp")
  list(APPEND consumers ${found})
endforeach()

# One pass over the consumers: collect "<includer>|<included>" pairs.
set(edges)
foreach(file ${consumers})
  file(STRINGS "${file}" lines REGEX "^#include \"[^\"]+\"")
  foreach(line ${lines})
    string(REGEX REPLACE "^#include \"([^\"]+)\".*" "\\1" inc "${line}")
    list(APPEND edges "${file}|${inc}")
  endforeach()
endforeach()

set(orphans)
foreach(hdr ${headers})
  string(REGEX REPLACE "\\.hpp$" ".cpp" own_cpp "${ROOT}/src/${hdr}")
  set(reached FALSE)
  foreach(edge ${edges})
    string(REPLACE "|" ";" pair "${edge}")
    list(GET pair 0 includer)
    list(GET pair 1 included)
    if(included STREQUAL hdr AND NOT includer STREQUAL own_cpp)
      set(reached TRUE)
      break()
    endif()
  endforeach()
  if(NOT reached)
    list(APPEND orphans "src/${hdr}")
  endif()
endforeach()

if(orphans)
  list(JOIN orphans "\n  " listing)
  message(FATAL_ERROR
    "headers with no includer outside tests/ and their own .cpp:\n"
    "  ${listing}\n"
    "Delete them, or move them under tests/ if they are test oracles.")
endif()
list(LENGTH headers n)
message(STATUS "all ${n} src headers have a non-test includer")
