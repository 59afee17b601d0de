# CLI contract for out-of-range flag values: wgtt-sim must refuse them up
# front, exiting 1 with a message, instead of starting a drive. The child
# gets a few seconds: a correct refusal takes milliseconds, while a run that
# accepted the value may never end.
# Invoked by the wgtt_sim_*_fails CTest targets made by wgtt_sim_rejects:
#   cmake -DSIM=<wgtt-sim> "-DARGS=<flags>" "-DEXPECT=<text>"
#         -P cli_reject.cmake
separate_arguments(sim_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${SIM}" ${sim_args}
  RESULT_VARIABLE sim_rc
  OUTPUT_QUIET
  ERROR_VARIABLE sim_err
  TIMEOUT 5)
if(NOT sim_rc STREQUAL "1")
  message(FATAL_ERROR "wgtt-sim ${ARGS}: expected exit 1, got '${sim_rc}'")
endif()
string(FIND "${sim_err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "wgtt-sim ${ARGS}: stderr lacks '${EXPECT}':\n${sim_err}")
endif()
