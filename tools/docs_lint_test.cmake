# Docs lint, both ways: every scenario `npd_run --list` registers must
# appear in docs/cli.md — the CLI reference users are sent to — so a new
# scenario cannot land undocumented; and every row of the cli.md scenario
# table (`| `name` |`) must name a registered scenario, so a deleted
# scenario's row cannot linger.
#
# Inputs: -DNPD_RUN=<npd_run> -DCLI_DOC=<docs/cli.md>

foreach(var NPD_RUN CLI_DOC)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

execute_process(COMMAND "${NPD_RUN}" --list
  RESULT_VARIABLE result
  OUTPUT_VARIABLE listing
  ERROR_VARIABLE listing)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "npd_run --list failed (${result}):\n${listing}")
endif()

if(NOT EXISTS "${CLI_DOC}")
  message(FATAL_ERROR "docs/cli.md not found at '${CLI_DOC}'")
endif()
file(READ "${CLI_DOC}" doc)

# Scenario lines are exactly two-space indented ("  name  description");
# parameter lines are deeper-indented and never match.
string(REGEX MATCHALL "\n  [a-z0-9_]+" scenario_lines "\n${listing}")
set(registered "")
set(missing "")
foreach(line IN LISTS scenario_lines)
  string(REGEX REPLACE "\n  " "" scenario "${line}")
  list(APPEND registered "${scenario}")
  # The doc must name the scenario as inline code: `name`.
  if(NOT doc MATCHES "`${scenario}`")
    list(APPEND missing "${scenario}")
  endif()
endforeach()
list(LENGTH registered count)

if(count EQUAL 0)
  message(FATAL_ERROR "parsed no scenarios out of npd_run --list:\n${listing}")
endif()
if(missing)
  message(FATAL_ERROR
    "scenarios registered by npd_run --list but missing from docs/cli.md: "
    "${missing}")
endif()

# Scenario-table rows start "| `name` |" inside the "### Scenarios"
# section (up to the next heading); the tool and design-spec tables
# elsewhere in cli.md use the same row shape and are not scenarios.
string(FIND "${doc}" "\n### Scenarios\n" section_start)
if(section_start EQUAL -1)
  message(FATAL_ERROR "docs/cli.md has no '### Scenarios' section")
endif()
math(EXPR body_start "${section_start} + 1")
string(SUBSTRING "${doc}" ${body_start} -1 section)
string(FIND "${section}" "\n#" section_end)
if(NOT section_end EQUAL -1)
  string(SUBSTRING "${section}" 0 ${section_end} section)
endif()
string(REGEX MATCHALL "\n\\| `[a-z0-9_]+` \\|" table_rows "${section}")
set(stale "")
foreach(row IN LISTS table_rows)
  string(REGEX REPLACE "\n\\| `([a-z0-9_]+)` \\|" "\\1" scenario "${row}")
  list(FIND registered "${scenario}" index)
  if(index EQUAL -1)
    list(APPEND stale "${scenario}")
  endif()
endforeach()
if(stale)
  message(FATAL_ERROR
    "docs/cli.md scenario table rows not registered by npd_run --list: "
    "${stale}")
endif()
message(STATUS "docs/cli.md documents all ${count} registered scenarios "
  "and no others")
