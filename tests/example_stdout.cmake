# Run one example and require exit status 0 and a stdout line matching
# its validation regex (PASS_REGULAR_EXPRESSION alone would ignore the
# exit status).
#
#   cmake -DEXAMPLE=<binary> -DEXPECT=<regex> -P example_stdout.cmake

execute_process(COMMAND ${EXAMPLE}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXAMPLE} exited with ${rc}\n${out}\n${err}")
endif()
if(NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "${EXAMPLE}: no stdout line matches "
                        "\"${EXPECT}\"\n${out}")
endif()
