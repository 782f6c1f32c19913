# Runs CMD with ARGS (one space-separated string) and compares its stdout
# with the file GOLDEN byte for byte; the actual stdout is left at ACTUAL.
# Registered per line of tests/golden/stdout.list by tests/CMakeLists.txt.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR
    "stdout of '${CMD} ${ARGS}' differs from ${GOLDEN}\n"
    "actual: ${ACTUAL}\n"
    "If the change is intended, rewrite the goldens with "
    "scripts/update_goldens.sh and say why in CHANGES.md.")
endif()
