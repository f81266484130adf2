# Pins what `cidt check` and `cidt explore` print for the shipped directive
# sources: every examples/*.cpp and src/wllsms/comm_directive.cpp. Runs
#   cidt check <file>
#   cidt explore --nprocs 3 --max-executions 256 <file>
#   cidt explore --nprocs 3 --max-executions 256 --json <file>
# from the source root, records stdout, stderr and the exit code of each,
# writes the transcript to ACTUAL and compares it with EXPECTED.
#
# A deliberate change to a diagnostic changes the transcript. Regenerate the
# expected file after building cidt, then review the diff:
#   cmake -DCIDT=build/tools/cidt -DSOURCE_DIR=. \
#         -DACTUAL=tests/cidt_output.expected \
#         -DEXPECTED=tests/cidt_output.expected -P tests/cidt_output.cmake
foreach(var CIDT SOURCE_DIR ACTUAL EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cidt_output.cmake: -D${var}=... is required")
  endif()
endforeach()

get_filename_component(SOURCE_DIR "${SOURCE_DIR}" ABSOLUTE)
file(GLOB examples RELATIVE "${SOURCE_DIR}" "${SOURCE_DIR}/examples/*.cpp")
list(SORT examples)
set(files ${examples} src/wllsms/comm_directive.cpp)

set(transcript "")
foreach(file IN LISTS files)
  foreach(command IN ITEMS
      "check"
      "explore;--nprocs;3;--max-executions;256"
      "explore;--nprocs;3;--max-executions;256;--json")
    execute_process(
      COMMAND "${CIDT}" ${command} "${file}"
      WORKING_DIRECTORY "${SOURCE_DIR}"
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      RESULT_VARIABLE code)
    string(REPLACE ";" " " shown "${command}")
    string(APPEND transcript
           "=== cidt ${shown} ${file} (exit ${code})\n"
           "--- stdout\n${out}--- stderr\n${err}")
  endforeach()
endforeach()

file(WRITE "${ACTUAL}" "${transcript}")
file(READ "${EXPECTED}" expected)
if(NOT transcript STREQUAL expected)
  message(FATAL_ERROR "cidt output differs from ${EXPECTED}; compare with "
                      "diff -u ${EXPECTED} ${ACTUAL}")
endif()
