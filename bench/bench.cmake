# One driver, wild5g_bench, runs every figure and metro bench as an engine
# campaign; build/bench/ holds a `bench_<id>` symlink to it per bench (the
# driver dispatches on the name it was invoked under) plus the separate
# google-benchmark binary bench_micro, so `for b in build/bench/*; do $b;
# done` runs the whole harness. The ids below match kBenches in
# bench/wild5g_bench.cpp; GoldenDeterminism.BenchListGoldensAndAliasesAgree
# keeps the two and bench/golden/ in step.
#
# Every bench is also a golden-metrics regression gate: it emits its
# figure/table data as JSON (`--json <path>`), bench/golden/ holds the
# committed baselines generated at kBenchSeed, and `ctest -R golden.` runs
# each bench -> tools/golden_check cycle. `cmake --build build --target
# regen-goldens` rewrites the baselines after an intentional change.
set(WILD5G_GOLDEN_DIR ${CMAKE_SOURCE_DIR}/bench/golden)
set(WILD5G_GOLDEN_SCRATCH ${CMAKE_BINARY_DIR}/bench-golden-out)
set(WILD5G_BENCH_DIR ${CMAKE_BINARY_DIR}/bench)

set(WILD5G_BENCH_FIGURES
  table1_campaign fig01_02_latency_distance fig03_downlink_distance
  fig04_uplink_distance fig05_07_tmobile_sa_nsa fig08_transport_tuning
  fig09_handoffs fig10_25_rrc_probe table7_rrc_params table2_transition_power
  fig11_throughput_power fig12_energy_efficiency fig13_14_rsrp_power
  fig15_16_power_models table3_9_sw_monitor table8_slopes fig17_abr_qoe
  fig18a_predictors fig18b_chunk_length fig18c_table4_interface
  fig19_20_web_qoe fig21_penalty_saving table6_fig22_selector
  fig23_carrier_aggregation fig24_server_survey fig26_27_s10_power
  validation_apps baseline_2019 ablation_handoff ablation_transport
  ablation_abr ablation_power_model extension_bbr extension_pensieve_5g
  extension_drive_energy extension_http2)
set(WILD5G_BENCH_ALIASES extension_metro_load extension_metro_qoe)

# The driver lives outside build/bench/ so only the aliases appear there.
list(TRANSFORM WILD5G_BENCH_FIGURES PREPEND ${CMAKE_SOURCE_DIR}/bench/bench_
  OUTPUT_VARIABLE figure_sources)
list(TRANSFORM figure_sources APPEND .cpp)
add_executable(wild5g_bench
  ${CMAKE_SOURCE_DIR}/bench/wild5g_bench.cpp ${figure_sources})
target_include_directories(wild5g_bench PRIVATE ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(wild5g_bench PRIVATE
  wild5g_abr wild5g_engine wild5g_faults wild5g_metro wild5g_mobility
  wild5g_net wild5g_power wild5g_rrc wild5g_traces wild5g_web)

add_executable(bench_micro ${CMAKE_SOURCE_DIR}/bench/bench_micro.cpp)
target_include_directories(bench_micro PRIVATE ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(bench_micro PRIVATE
  wild5g_abr wild5g_engine wild5g_faults wild5g_mobility wild5g_net wild5g_rrc
  benchmark::benchmark)
set_target_properties(bench_micro PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${WILD5G_BENCH_DIR})

set(regen_commands)
set(WILD5G_BENCH_TARGETS)
foreach(id micro ${WILD5G_BENCH_FIGURES} ${WILD5G_BENCH_ALIASES})
  set(name bench_${id})
  if(NOT id STREQUAL "micro")
    add_custom_command(OUTPUT ${WILD5G_BENCH_DIR}/${name}
      COMMAND ${CMAKE_COMMAND} -E create_symlink
        $<TARGET_FILE:wild5g_bench> ${WILD5G_BENCH_DIR}/${name}
      DEPENDS wild5g_bench)
    add_custom_target(${name} ALL DEPENDS ${WILD5G_BENCH_DIR}/${name})
    list(APPEND WILD5G_BENCH_TARGETS ${name})
  endif()
  set(run_args -DBENCH_BIN=${WILD5G_BENCH_DIR}/${name}
    -P ${CMAKE_SOURCE_DIR}/bench/golden_run.cmake)
  list(APPEND regen_commands
    COMMAND ${CMAKE_COMMAND} -DOUT=${WILD5G_GOLDEN_DIR}/${name}.json ${run_args})
  if(BUILD_TESTING)
    add_test(NAME golden.${name}
      COMMAND ${CMAKE_COMMAND}
        -DOUT=${WILD5G_GOLDEN_SCRATCH}/${name}.json
        -DGOLDEN=${WILD5G_GOLDEN_DIR}/${name}.json
        -DGOLDEN_CHECK=$<TARGET_FILE:golden_check> ${run_args})
  endif()
endforeach()

add_custom_target(regen-goldens ${regen_commands}
  COMMENT "Regenerating golden baselines in bench/golden/")
add_dependencies(regen-goldens bench_micro ${WILD5G_BENCH_TARGETS})
