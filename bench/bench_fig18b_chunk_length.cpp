// Figure 18b: QoE impact of the video chunk length (4 s / 2 s / 1 s) for
// fastMPC over mmWave 5G.
#include <iostream>

#include "bench_common.h"
#include "abr/algorithms.h"
#include "abr/video.h"
#include "traces/traces.h"

namespace wild5g::bench {

void fig18b_chunk_length(engine::CampaignContext& ctx,
                         const faults::Injector*) {
  bench::banner("Fig. 18b", "Chunk length and 5G ABR QoE");
  bench::paper_note(
      "1 s chunks beat 2 s (and 4 s) chunks: +21.5% (+35.9%) bitrate and"
      " -33.6% (-29.8%) stalls, because finer-grained decisions track 5G's"
      " swings; one bad 4 s chunk can drain the whole buffer.");

  Rng rng(bench::kBenchSeed);
  const auto traces_5g =
      traces::generate_traces(traces::lumos5g_mmwave_config(), rng);

  Table table("fastMPC over 5G by chunk length (240 s video)");
  table.set_header({"chunk", "norm. bitrate", "stall %", "norm. QoE"});

  struct Point {
    double bitrate;
    double stall;
  };
  std::vector<Point> points;
  for (const double chunk_s : {4.0, 2.0, 1.0}) {
    const auto video = abr::video_ladder_5g(chunk_s);
    abr::SessionOptions options;
    options.chunk_count = static_cast<int>(240.0 / chunk_s);
    abr::HarmonicMeanPredictor predictor;
    abr::ModelPredictiveAbr mpc(
        abr::ModelPredictiveAbr::Variant::kFast, predictor,
        abr::ModelPredictiveAbr::horizon_for_chunk_length(chunk_s));
    const auto q =
        abr::evaluate_on_traces(video, traces_5g, mpc, options);
    table.add_row({Table::num(chunk_s, 0) + "s",
                   Table::num(q.mean_normalized_bitrate, 3),
                   Table::num(q.mean_stall_percent, 2),
                   Table::num(q.mean_normalized_qoe, 3)});
    points.push_back({q.mean_normalized_bitrate, q.mean_stall_percent});
  }
  ctx.report(table);

  const auto& c4 = points[0];
  const auto& c2 = points[1];
  const auto& c1 = points[2];
  bench::measured_note(
      "1s vs 2s: bitrate " +
      Table::num(100.0 * (c1.bitrate - c2.bitrate) / c2.bitrate, 1) +
      "%, stalls " +
      Table::num(100.0 * (c1.stall - c2.stall) / std::max(0.01, c2.stall), 1) +
      "% (paper: +21.5% bitrate, -33.6% stalls)");
  bench::measured_note(
      "1s vs 4s: bitrate " +
      Table::num(100.0 * (c1.bitrate - c4.bitrate) / c4.bitrate, 1) +
      "%, stalls " +
      Table::num(100.0 * (c1.stall - c4.stall) / std::max(0.01, c4.stall), 1) +
      "% (paper: +35.9% bitrate, -29.8% stalls)");
}

}  // namespace wild5g::bench
