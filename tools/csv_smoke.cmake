# CLI contract for --csv and --channel-reuse: both ride the ordinary drive,
# so any workload and client count can be traced on a multi-channel array.
# Fails unless wgtt-sim exits 0 and leaves a non-empty trace CSV.
# Invoked by the wgtt_sim_csv_channel_reuse CTest target:
#   cmake -DSIM=<wgtt-sim> -DCSV=<out.csv> -P csv_smoke.cmake
get_filename_component(csv_dir "${CSV}" DIRECTORY)
file(MAKE_DIRECTORY "${csv_dir}")
file(REMOVE "${CSV}")

execute_process(
  COMMAND "${SIM}" --workload tcp --clients 2 --channel-reuse 3 --csv "${CSV}"
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
