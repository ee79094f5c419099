# Runs npd_lint against the fixture mini-trees under tests/lint_fixtures
# and asserts each bad_* tree fails with the expected rule id + file,
# while the clean tree (full of near-misses) passes.
#
# Invoked by the `lint.fixtures` ctest:
#   cmake -DNPD_LINT=<binary> -DFIXTURES=<dir> -P npd_lint_fixture_test.cmake

if(NOT NPD_LINT OR NOT FIXTURES)
  message(FATAL_ERROR "need -DNPD_LINT=... and -DFIXTURES=...")
endif()

# check_fixture(<dir> <expected-exit> <regex-that-must-match-stdout>...)
# A pattern starting with "!" is negated: the rest must NOT match.
function(check_fixture dir expected_exit)
  execute_process(
    COMMAND ${NPD_LINT} --root ${FIXTURES}/${dir}
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE output
    ERROR_VARIABLE error_output)
  if(NOT exit_code EQUAL expected_exit)
    message(FATAL_ERROR
      "fixture '${dir}': expected exit ${expected_exit}, got ${exit_code}\n"
      "stdout:\n${output}\nstderr:\n${error_output}")
  endif()
  foreach(pattern IN LISTS ARGN)
    if(pattern MATCHES "^!(.*)$")
      if(output MATCHES "${CMAKE_MATCH_1}")
        message(FATAL_ERROR
          "fixture '${dir}': output must NOT match '${CMAKE_MATCH_1}'\n"
          "stdout:\n${output}")
      endif()
    elseif(NOT output MATCHES "${pattern}")
      message(FATAL_ERROR
        "fixture '${dir}': output does not match '${pattern}'\n"
        "stdout:\n${output}")
    endif()
  endforeach()
  message(STATUS "fixture '${dir}': OK")
endfunction()

# Every banned-construct and layering-violation class, one tree each.
check_fixture(bad_layering 1
  "src/util/uses_engine.cpp:[0-9]+: \\[layering\\].*engine"
  "src/solve/uses_shard.cpp:[0-9]+: \\[layering\\].*shard")
# The serve module's edges: engine below it may not look up, and serve
# itself may not reach sideways into shard.
check_fixture(bad_layering_serve 1
  "src/engine/uses_serve.cpp:[0-9]+: \\[layering\\].*serve"
  "src/serve/uses_shard.cpp:[0-9]+: \\[layering\\].*shard")
check_fixture(bad_rand 1
  "src/core/uses_rand.cpp:[0-9]+: \\[no-std-rand\\].*std::rand"
  "src/core/uses_rand.cpp:[0-9]+: \\[no-std-rand\\].*srand"
  "src/core/uses_rand.cpp:[0-9]+: \\[no-std-rand\\].*random_device")
# One line per banned engine, and src/rand gets no exemption from it.
check_fixture(bad_engine 1
  "src/pooling/uses_engine.cpp:8: \\[no-std-engine\\]"
  "src/pooling/uses_engine.cpp:9: \\[no-std-engine\\]"
  "src/pooling/uses_engine.cpp:10: \\[no-std-engine\\]"
  "src/pooling/uses_engine.cpp:11: \\[no-std-engine\\]"
  "src/pooling/uses_engine.cpp:12: \\[no-std-engine\\]"
  "src/pooling/uses_engine.cpp:13: \\[no-std-engine\\]"
  "src/pooling/uses_engine.cpp:14: \\[no-std-engine\\]"
  "src/rand/second_engine.cpp:9: \\[no-std-engine\\]")
check_fixture(bad_clock 1
  "src/pooling/uses_clock.cpp:[0-9]+: \\[no-wall-clock\\].*time"
  "src/pooling/uses_clock.cpp:[0-9]+: \\[no-wall-clock\\].*system_clock")
# The wall-clock allowlist is exactly the four telemetry TUs
# src/util/{trace,heartbeat,metrics,profiler}.cpp: those read the clock
# without findings, any sibling still fires.
check_fixture(bad_clock_telemetry 1
  "src/util/clock_sneaks_in.cpp:[0-9]+: \\[no-wall-clock\\].*system_clock"
  "!src/util/trace.cpp:[0-9]+: \\[no-wall-clock\\]"
  "!src/util/heartbeat.cpp:[0-9]+: \\[no-wall-clock\\]")
check_fixture(bad_clock_metrics 1
  "src/util/counters_sneak_clock.cpp:[0-9]+: \\[no-wall-clock\\].*system_clock"
  "!src/util/metrics.cpp:[0-9]+: \\[no-wall-clock\\]"
  "!src/util/profiler.cpp:[0-9]+: \\[no-wall-clock\\]")
check_fixture(bad_unordered 1
  "src/engine/report.cpp:[0-9]+: \\[no-unordered-iteration\\].*totals")
check_fixture(bad_float 1
  "src/harness/stats.cpp:[0-9]+: \\[no-float-accumulator\\]")

# The clean tree packs the near-misses (commented-out bans, banned
# tokens in strings, membership-only unordered use) — zero findings.
check_fixture(clean 0 "npd_lint: OK")
