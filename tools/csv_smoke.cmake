# CLI contract for --csv: tracing rides the ordinary drive, so any workload,
# client count, channel plan or controller-domain split can be traced.
# Fails unless wgtt-sim exits 0 and leaves a non-empty trace CSV, and (when
# REQUIRE is given) unless the CSV contains that text.
# Invoked by the wgtt_sim_csv_* CTest targets:
#   cmake -DSIM=<wgtt-sim> -DCSV=<out.csv> "-DARGS=<flags>" [-DREQUIRE=<text>]
#         -P csv_smoke.cmake
get_filename_component(csv_dir "${CSV}" DIRECTORY)
file(MAKE_DIRECTORY "${csv_dir}")
file(REMOVE "${CSV}")

separate_arguments(sim_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${SIM}" ${sim_args} --csv "${CSV}"
  RESULT_VARIABLE sim_rc)
if(NOT sim_rc EQUAL 0)
  message(FATAL_ERROR "wgtt-sim failed with ${sim_rc}")
endif()

if(NOT EXISTS "${CSV}")
  message(FATAL_ERROR "wgtt-sim did not write ${CSV}")
endif()
file(SIZE "${CSV}" csv_bytes)
if(csv_bytes EQUAL 0)
  message(FATAL_ERROR "${CSV} is empty")
endif()

if(DEFINED REQUIRE)
  file(STRINGS "${CSV}" hits REGEX "${REQUIRE}")
  list(LENGTH hits n_hits)
  if(n_hits EQUAL 0)
    message(FATAL_ERROR "${CSV} has no '${REQUIRE}' rows")
  endif()
  message(STATUS "${CSV}: ${n_hits} '${REQUIRE}' rows")
endif()
