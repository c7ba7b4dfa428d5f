# Runs one figure binary (or tool) for ctest and checks how it ends:
#
#   cmake -DBINARY=PATH [-DARGS="--flag value ..."] [-DEXPECT_FAIL=1]
#         [-DEXPECT_OUTPUT=REGEX] [-DGOLDEN=FILE] -P cli_test.cmake
#
# The binary must exit 0, or non-zero with EXPECT_FAIL. EXPECT_OUTPUT
# must match its stdout or stderr, and GOLDEN must equal its stdout.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BINARY} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(EXPECT_FAIL AND status EQUAL 0)
    message(FATAL_ERROR "expected a failure, got exit 0:\n${out}")
elseif(NOT EXPECT_FAIL AND NOT status EQUAL 0)
    message(FATAL_ERROR "exit ${status}:\n${err}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
    message(FATAL_ERROR "no match for '${EXPECT_OUTPUT}' in:\n${out}${err}")
endif()
if(DEFINED GOLDEN)
    file(READ "${GOLDEN}" golden)
    if(NOT out STREQUAL golden)
        message(FATAL_ERROR "stdout differs from ${GOLDEN}:\n${out}")
    endif()
endif()
