# netsel_cli link-name lookup on the Figure 4 testbed: `--bw` resolves an
# explicit link name (`name=atm`) and a derived `a--b` name, rejects an
# unknown one, and the explicit name survives an `--emit-topo` round trip.
#
#   cmake -DCLI=path/to/netsel_cli -DTOPO=examples/topologies/testbed.topo \
#         -DWORK=scratch/dir -P tests/cli_link_names.cmake

foreach(var CLI TOPO WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_link_names.cmake: -D${var}=... is required")
  endif()
endforeach()

# Run the CLI with ARGN, require exit code `want`, and leave its stdout in
# `cli_out`.
function(run_cli want)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL want)
    string(REPLACE ";" " " args "${ARGN}")
    message(FATAL_ERROR "netsel_cli ${args}: exit ${rc}, want ${want}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(cli_out "${out}" PARENT_SCOPE)
endfunction()

# Explicit name, derived name, and an unknown name (exit 1: bad argument).
run_cli(0 --topology "${TOPO}" --nodes 4 --bw atm=20Mbps)
run_cli(0 --topology "${TOPO}" --nodes 4 --bw suez--m-18=5Mbps)
run_cli(1 --topology "${TOPO}" --nodes 4 --bw no-such-link=5Mbps)

# The formatter writes the explicit name back, and only that one.
run_cli(0 --topology "${TOPO}" --emit-topo)
string(REGEX MATCHALL "name=[^\n]*" names "${cli_out}")
if(NOT names STREQUAL "name=atm")
  message(FATAL_ERROR "--emit-topo wrote '${names}', want 'name=atm':\n"
                      "${cli_out}")
endif()
set(emitted "${WORK}/cli_link_names_testbed.topo")
file(WRITE "${emitted}" "${cli_out}")
run_cli(0 --topology "${emitted}" --nodes 4 --bw atm=20Mbps)
run_cli(0 --topology "${emitted}" --nodes 4 --bw suez--m-18=5Mbps)
