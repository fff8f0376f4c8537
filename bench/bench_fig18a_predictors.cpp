// Figure 18a: QoE impact of the throughput predictor plugged into fastMPC —
// harmonic mean (hmMPC) vs gradient-boosted trees (MPC_GDBT) vs ground
// truth (truthMPC).
#include <iostream>

#include "bench_common.h"
#include "abr/algorithms.h"
#include "abr/video.h"
#include "traces/traces.h"

namespace wild5g::bench {

void fig18a_predictors(engine::CampaignContext& ctx, const faults::Injector*) {
  bench::banner("Fig. 18a", "Throughput predictors for MPC over 5G");
  bench::paper_note(
      "MPC_GDBT achieves ~32% higher normalized QoE than the default"
      " harmonic-mean predictor and lands within ~1.3% of the ground-truth"
      " (oracle) predictor.");

  Rng rng(bench::kBenchSeed);
  auto config = traces::lumos5g_mmwave_config();
  const auto eval_traces = traces::generate_traces(config, rng);
  // Train GBDT on an independent population (the paper trains on the
  // Lumos5G dataset and evaluates on held-out traces).
  Rng rng2(bench::kBenchSeed + 1);
  config.count = 80;
  const auto train_traces = traces::generate_traces(config, rng2);

  abr::SessionOptions options;
  options.chunk_count = 60;
  const auto video = abr::video_ladder_5g();

  abr::HarmonicMeanPredictor hm;
  abr::GbdtPredictor gbdt(5, video.chunk_s);
  Rng train_rng(bench::kBenchSeed + 2);
  gbdt.train(train_traces, train_rng);
  abr::OraclePredictor oracle(video.chunk_s);

  Table table("fastMPC QoE by predictor (normalized, mean over traces)");
  table.set_header({"predictor", "norm. QoE", "norm. bitrate", "stall %"});
  double qoe_hm = 0.0;
  double qoe_gbdt = 0.0;
  double qoe_truth = 0.0;
  for (auto* predictor : std::initializer_list<abr::ThroughputPredictor*>{
           &hm, &gbdt, &oracle}) {
    abr::ModelPredictiveAbr mpc(abr::ModelPredictiveAbr::Variant::kFast,
                                *predictor);
    const auto q = abr::evaluate_on_traces(video, eval_traces, mpc, options);
    table.add_row({"MPC + " + predictor->name(),
                   Table::num(q.mean_normalized_qoe, 3),
                   Table::num(q.mean_normalized_bitrate, 2),
                   Table::num(q.mean_stall_percent, 2)});
    if (predictor == &hm) qoe_hm = q.mean_normalized_qoe;
    if (predictor == &gbdt) qoe_gbdt = q.mean_normalized_qoe;
    if (predictor == &oracle) qoe_truth = q.mean_normalized_qoe;
  }
  ctx.report(table);

  // The paper's Fig. 18a normalizes QoE so truthMPC ~ 1; its +31.98% gain
  // with only 1.3% left to the oracle means GDBT closes ~96% of the
  // hm -> oracle gap. Report the same gap-closure statistic.
  const double gap = qoe_truth - qoe_hm;
  const double closed = gap > 1e-9 ? 100.0 * (qoe_gbdt - qoe_hm) / gap : 0.0;
  bench::measured_note("GDBT closes " + Table::num(closed, 0) +
                       "% of the harmonic-mean -> oracle QoE gap"
                       " (paper: ~96%)");
  bench::measured_note("ordering hm < gbdt < truth: " +
                       std::string(qoe_hm < qoe_gbdt && qoe_gbdt < qoe_truth
                                       ? "reproduced"
                                       : "NOT reproduced"));
}

}  // namespace wild5g::bench
