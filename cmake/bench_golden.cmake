# Script-mode check behind the bench_golden.<bench> ctests (run with
# `cmake -P`): runs BENCH with default arguments in the current
# directory, writes its stdout to stdout.txt there, and fails unless the
# SHA-256 of that file is DIGEST, the line recorded for the bench in
# tests/data/bench_stdout.sha256.

if(NOT DEFINED BENCH OR NOT DEFINED DIGEST)
  message(FATAL_ERROR "bench_golden.cmake needs -DBENCH=... and -DDIGEST=...")
endif()

execute_process(COMMAND "${BENCH}" OUTPUT_FILE stdout.txt RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(SHA256 stdout.txt actual)
if(NOT actual STREQUAL DIGEST)
  message(FATAL_ERROR "stdout digest differs from tests/data/bench_stdout.sha256\n"
                      "  recorded ${DIGEST}\n"
                      "  actual   ${actual}")
endif()
