# Runs TOOL with the comma-separated ARGS and passes iff it exits with
# status 1 and prints a line starting with EXPECT (a regex) to stderr.
# Usage: cmake -DTOOL=<exe> -DARGS=a,b -DEXPECT=<regex> -P expect_error.cmake
string(REPLACE "," ";" tool_args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${tool_args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'\n${out}${err}")
endif()
if(NOT err MATCHES "(^|\n)${EXPECT}")
  message(FATAL_ERROR "stderr lacks '${EXPECT}':\n${err}")
endif()
