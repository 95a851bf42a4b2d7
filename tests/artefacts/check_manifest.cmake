# Checks campaign artefacts against a committed sha256 manifest or, with
# -DUPDATE=ON, rewrites the manifest's lines from them.
#
#   cmake -DMANIFEST=tests/artefacts/seed42.sha256 -DOUT=out/manifest \
#         [-DSOCBENCH=build/bench/socbench] [-DEXPERIMENTS="tab01 fig0?"] \
#         [-DRUN_ARGS="--jobs 4"] [-DUPDATE=ON] \
#         -P tests/artefacts/check_manifest.cmake
#
# With SOCBENCH set, the script first empties OUT and runs
#   socbench run <EXPERIMENTS> --json OUT/json --csv OUT/csv --no-summary <RUN_ARGS>
# (no EXPERIMENTS selects every experiment); without it, OUT must already
# hold such a run. Only the lines of experiments that wrote
# OUT/json/<name>.json are compared or rewritten; the manifest's other
# lines are kept as they are. Lines read "<sha256>  json/<name>.json" or
# "<sha256>  csv/<name>__<table>.csv", so `sha256sum -c` run inside OUT
# reads them too.
cmake_minimum_required(VERSION 3.20)

foreach(var MANIFEST OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_manifest: -D${var}=... is required")
  endif()
  # file(GLOB) matches nothing under a relative OUT, so anchor both paths
  # at the working directory.
  get_filename_component(${var} "${${var}}" ABSOLUTE)
endforeach()

if(DEFINED SOCBENCH)
  separate_arguments(experiments UNIX_COMMAND "${EXPERIMENTS}")
  separate_arguments(run_args UNIX_COMMAND "${RUN_ARGS}")
  file(REMOVE_RECURSE "${OUT}")
  execute_process(
    COMMAND "${SOCBENCH}" run ${experiments} --json "${OUT}/json"
            --csv "${OUT}/csv" --no-summary ${run_args}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_manifest: socbench run exited ${rc}")
  endif()
endif()

# The experiment that wrote an artefact path: json/<name>.json or
# csv/<name>__<table>.csv.
function(experiment_of path out)
  string(REGEX REPLACE "^(json|csv)/" "" name "${path}")
  string(REGEX REPLACE "(__.*)?\\.(json|csv)$" "" name "${name}")
  set(${out} "${name}" PARENT_SCOPE)
endfunction()

file(GLOB_RECURSE files RELATIVE "${OUT}" "${OUT}/json/*" "${OUT}/csv/*")
set(ran "")
foreach(path IN LISTS files)
  if(path MATCHES "^json/(.+)\\.json$")
    list(APPEND ran "${CMAKE_MATCH_1}")
  endif()
  file(SHA256 "${OUT}/${path}" "got_${path}")
endforeach()
if(NOT ran)
  message(FATAL_ERROR "check_manifest: no artefacts under ${OUT}/json")
endif()

set(lines "")
if(EXISTS "${MANIFEST}")
  file(STRINGS "${MANIFEST}" lines)
endif()
set(wanted "")
set(kept "")
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([0-9a-f]+)  ((json|csv)/[^ ]+)$")
    message(FATAL_ERROR "check_manifest: malformed line in ${MANIFEST}: ${line}")
  endif()
  set(path "${CMAKE_MATCH_2}")
  set("want_${path}" "${CMAKE_MATCH_1}")
  experiment_of("${path}" experiment)
  if(experiment IN_LIST ran)
    list(APPEND wanted "${path}")
  else()
    list(APPEND kept "${path}")
  endif()
endforeach()

list(LENGTH files file_count)
list(LENGTH ran run_count)
if(UPDATE)
  set(all ${kept} ${files})
  list(SORT all)
  set(text "")
  foreach(path IN LISTS all)
    if(DEFINED "got_${path}")
      string(APPEND text "${got_${path}}  ${path}\n")
    else()
      string(APPEND text "${want_${path}}  ${path}\n")
    endif()
  endforeach()
  file(WRITE "${MANIFEST}" "${text}")
  message(STATUS "check_manifest: rewrote the ${file_count} lines of ${run_count} experiment(s) in ${MANIFEST}")
  return()
endif()

set(bad "")
foreach(path IN LISTS files)
  if(NOT "${path}" IN_LIST wanted)
    list(APPEND bad "  not in the manifest: ${path}")
  elseif(NOT "${got_${path}}" STREQUAL "${want_${path}}")
    list(APPEND bad "  bytes differ: ${path}")
  endif()
endforeach()
foreach(path IN LISTS wanted)
  if(NOT DEFINED "got_${path}")
    list(APPEND bad "  not written: ${path}")
  endif()
endforeach()
if(bad)
  list(JOIN bad "\n" report)
  message(FATAL_ERROR "check_manifest: ${OUT} does not match ${MANIFEST}:\n"
    "${report}\nA change that moves artefact bytes regenerates the lines "
    "with -DUPDATE=ON and says why, file by file, in CHANGES.md.")
endif()
message(STATUS "check_manifest: ${file_count} files of ${run_count} experiment(s) match ${MANIFEST}")
