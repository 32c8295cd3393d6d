# Runs a bench whose cells are expected to fault, and checks that the driver
# records them instead of dying: the bench must exit 1 and still write its
# JSON, in which at least one cell of bench NAME carries an "error".
#
#   cmake -DBENCH=<exe> -DARGS=<args separated by |> -DJSON=<path>
#         -DNAME=<bench name in the JSON> -P expect_failed_cell.cmake
string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE "${JSON}")
execute_process(COMMAND "${BENCH}" ${args} --json "${JSON}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "expected exit code 1, got '${rc}'")
endif()
if(NOT EXISTS "${JSON}")
  message(FATAL_ERROR "no JSON written to ${JSON}")
endif()
file(READ "${JSON}" doc)
string(JSON ncells LENGTH "${doc}" benches "${NAME}" cells)
set(failed 0)
math(EXPR last "${ncells} - 1")
foreach(i RANGE ${last})
  string(JSON err ERROR_VARIABLE missing
         GET "${doc}" benches "${NAME}" cells ${i} error)
  if(NOT missing)
    math(EXPR failed "${failed} + 1")
  endif()
endforeach()
if(failed EQUAL 0)
  message(FATAL_ERROR "no cell of '${NAME}' recorded as failed in ${JSON}")
endif()
message(STATUS "${failed} of ${ncells} cells recorded as failed")
