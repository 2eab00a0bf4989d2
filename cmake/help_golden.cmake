# Golden test for the usage text of the four front-end binaries, run by
# ctest as
#   cmake -DLAZYMC_BIN=... -DLAZYMCD_BIN=... -DLAZYMC_CTL_BIN=...
#         -DLAZYMC_CONVERT_BIN=... -DGOLDEN_DIR=<tests/golden> \
#         -P help_golden.cmake
# Each binary's `--help` output (exit 0, stdout) must match
# GOLDEN_DIR/<binary>.help.txt byte for byte, so a flag cannot be added,
# dropped or reworded without the golden file changing with it.

if(NOT LAZYMC_BIN OR NOT LAZYMCD_BIN OR NOT LAZYMC_CTL_BIN OR
   NOT LAZYMC_CONVERT_BIN OR NOT GOLDEN_DIR)
  message(FATAL_ERROR "usage: cmake -DLAZYMC_BIN=<lazymc> "
                      "-DLAZYMCD_BIN=<lazymcd> -DLAZYMC_CTL_BIN=<lazymc-ctl> "
                      "-DLAZYMC_CONVERT_BIN=<lazymc-convert> "
                      "-DGOLDEN_DIR=<dir> -P help_golden.cmake")
endif()

function(check_help name bin)
  execute_process(COMMAND "${bin}" --help
                  OUTPUT_VARIABLE actual ERROR_VARIABLE error
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${name} --help exited with ${status}:\n${error}")
  endif()
  file(READ "${GOLDEN_DIR}/${name}.help.txt" expected)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${name} --help drifted from "
                        "${GOLDEN_DIR}/${name}.help.txt; got:\n${actual}")
  endif()
endfunction()

check_help(lazymc "${LAZYMC_BIN}")
check_help(lazymcd "${LAZYMCD_BIN}")
check_help(lazymc-ctl "${LAZYMC_CTL_BIN}")
check_help(lazymc-convert "${LAZYMC_CONVERT_BIN}")

message(STATUS "help_golden passed")
