# ctest helper: run one tool invocation and pin its exact exit code (ctest
# alone can only tell zero from non-zero) and a diagnostic on stderr.
# Variables: TOOL (executable), ARGS (space-separated arguments),
# CODE (the expected exit code), MATCH (a regex stderr must contain).
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${arg_list}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "${CODE}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${rc}, want ${CODE}\n${err}")
endif()
if(NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr lacks /${MATCH}/:\n${err}")
endif()
