# Run one bench at MORPHEUS_BENCH_SCALE=0.05 and compare its stdout
# with the committed golden copy, byte for byte, after dropping lines
# marked "(informational)" (host wall-clock readings). The exit status
# must equal EXPECT_RC (default 0).
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file.txt> [-DEXPECT_RC=<n>]
#         -P golden_stdout.cmake

set(ENV{MORPHEUS_BENCH_SCALE} 0.05)
execute_process(COMMAND ${BENCH}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT DEFINED EXPECT_RC)
    set(EXPECT_RC 0)
endif()
if(NOT rc EQUAL EXPECT_RC)
    message(FATAL_ERROR "${BENCH} exited with ${rc}, expected ${EXPECT_RC}"
                        "\n${err}")
endif()

string(REGEX REPLACE "[^\n]*\\(informational\\)[^\n]*\n" "" out "${out}")
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
    get_filename_component(name ${GOLDEN} NAME)
    file(WRITE ${CMAKE_CURRENT_BINARY_DIR}/${name}.out "${out}")
    message(FATAL_ERROR "${BENCH}: stdout differs from the golden copy; "
                        "compare with\n  diff -u ${GOLDEN} "
                        "${CMAKE_CURRENT_BINARY_DIR}/${name}.out")
endif()
