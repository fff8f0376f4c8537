// Ablation: ABR design knobs on 5G — MPC horizon, the robustness discount,
// and the player's max buffer. Quantifies the design choices DESIGN.md
// calls out around the Sec. 5 results.
#include <iostream>

#include "bench_common.h"
#include "abr/algorithms.h"
#include "abr/video.h"
#include "traces/traces.h"

namespace wild5g::bench {

void ablation_abr(engine::CampaignContext& ctx, const faults::Injector*) {
  bench::banner("Ablation", "ABR design knobs over mmWave 5G");

  Rng rng(bench::kBenchSeed);
  auto config = traces::lumos5g_mmwave_config();
  config.count = 60;
  const auto traces_5g = traces::generate_traces(config, rng);
  const auto video = abr::video_ladder_5g();

  // --- Horizon sweep (fastMPC). ---
  {
    Table table("fastMPC planning horizon (chunks of 4 s)");
    table.set_header({"horizon", "norm. bitrate", "stall %", "norm. QoE"});
    for (const int horizon : {1, 2, 3, 5, 8}) {
      abr::SessionOptions options;
      options.chunk_count = 60;
      abr::HarmonicMeanPredictor predictor;
      abr::ModelPredictiveAbr mpc(abr::ModelPredictiveAbr::Variant::kFast,
                                  predictor, horizon);
      const auto q = abr::evaluate_on_traces(video, traces_5g, mpc, options);
      table.add_row({std::to_string(horizon),
                     Table::num(q.mean_normalized_bitrate, 3),
                     Table::num(q.mean_stall_percent, 2),
                     Table::num(q.mean_normalized_qoe, 3)});
    }
    ctx.report(table);
  }

  // --- Max buffer sweep (robustMPC). ---
  {
    Table table("Player buffer capacity (robustMPC)");
    table.set_header({"max buffer s", "norm. bitrate", "stall %"});
    for (const double max_buffer : {10.0, 20.0, 30.0, 60.0}) {
      abr::SessionOptions options;
      options.chunk_count = 60;
      options.max_buffer_s = max_buffer;
      abr::HarmonicMeanPredictor predictor;
      abr::ModelPredictiveAbr mpc(abr::ModelPredictiveAbr::Variant::kRobust,
                                  predictor);
      const auto q = abr::evaluate_on_traces(video, traces_5g, mpc, options);
      table.add_row({Table::num(max_buffer, 0),
                     Table::num(q.mean_normalized_bitrate, 3),
                     Table::num(q.mean_stall_percent, 2)});
    }
    ctx.report(table);
  }

  // --- Segment abandonment on/off (fastMPC). ---
  {
    Table table("Segment abandonment (fastMPC)");
    table.set_header({"abandonment", "norm. bitrate", "stall %"});
    for (const bool enabled : {false, true}) {
      abr::SessionOptions options;
      options.chunk_count = 60;
      options.allow_abandonment = enabled;
      abr::HarmonicMeanPredictor predictor;
      abr::ModelPredictiveAbr mpc(abr::ModelPredictiveAbr::Variant::kFast,
                                  predictor);
      const auto q = abr::evaluate_on_traces(video, traces_5g, mpc, options);
      table.add_row({enabled ? "on" : "off",
                     Table::num(q.mean_normalized_bitrate, 3),
                     Table::num(q.mean_stall_percent, 2)});
    }
    ctx.report(table);
  }

  bench::measured_note(
      "longer horizons and bigger buffers trade bitrate for stall"
      " protection; abandonment caps the cost of surprise chunks caught by"
      " a blockage — the mechanism the 5G-aware scheme builds on.");
}

}  // namespace wild5g::bench
