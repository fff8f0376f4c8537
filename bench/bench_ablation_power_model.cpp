// Ablation: power-model learner capacity — decision-tree depth sweep and
// campaign-size sweep for the Sec. 4.5 TH+SS model. Quantifies why the
// paper's data-driven approach needs both its features and enough walking
// data.
#include <iostream>

#include "bench_common.h"
#include "power/campaign.h"
#include "power/fitting.h"
#include "radio/ue.h"

namespace wild5g::bench {

void ablation_power_model(engine::CampaignContext& ctx,
                          const faults::Injector*) {
  bench::banner("Ablation", "Power-model capacity and data requirements");

  power::WalkingCampaignConfig campaign;
  campaign.network = {radio::Carrier::kVerizon, radio::Band::kNrMmWave,
                      radio::DeploymentMode::kNsa};
  campaign.ue = radio::galaxy_s20u();
  const auto device = power::DevicePowerProfile::s20u();
  Rng rng(bench::kBenchSeed);
  const auto full = power::run_walking_campaign(campaign, device, rng);

  // --- Tree depth sweep. --- Every train/evaluate split reseeds from the
  // bench seed, so the sweep points are independent tasks; rows are added
  // in sweep order after the barrier.
  {
    Table table("DTR max depth (TH+SS features, held-out MAPE)");
    table.set_header({"max depth", "MAPE %"});
    const std::vector<int> depths = {1, 2, 4, 8, 12, 16};
    const auto mapes =
        parallel::parallel_map(depths.size(), [&](std::size_t i) {
          ml::TreeConfig tree;
          tree.max_depth = depths[i];
          tree.min_samples_leaf = 4;
          tree.min_samples_split = 8;
          power::PowerModelFit fit(power::FeatureSet::kThroughputAndSignal,
                                   tree);
          Rng split(bench::kBenchSeed + 1);
          fit.fit(full, split);
          return fit.test_mape_percent();
        });
    for (std::size_t i = 0; i < depths.size(); ++i) {
      table.add_row({std::to_string(depths[i]), Table::num(mapes[i], 2)});
    }
    ctx.report(table);
  }

  // --- Campaign-size sweep. ---
  {
    Table table("Campaign length (walking minutes of training data)");
    table.set_header({"minutes", "samples", "MAPE %"});
    const std::vector<double> minutes_grid = {1.0, 3.0, 6.0, 12.0, 20.0};
    struct SweepPoint {
      std::size_t samples = 0;
      double mape = 0.0;
    };
    const auto points =
        parallel::parallel_map(minutes_grid.size(), [&](std::size_t i) {
          const auto count =
              static_cast<std::size_t>(minutes_grid[i] * 60.0 * 10.0);
          const std::span<const power::CampaignSample> subset(
              full.data(), std::min(count, full.size()));
          power::PowerModelFit fit(power::FeatureSet::kThroughputAndSignal);
          Rng split(bench::kBenchSeed + 2);
          fit.fit(subset, split);
          return SweepPoint{subset.size(), fit.test_mape_percent()};
        });
    for (std::size_t i = 0; i < minutes_grid.size(); ++i) {
      table.add_row({Table::num(minutes_grid[i], 0),
                     std::to_string(points[i].samples),
                     Table::num(points[i].mape, 2)});
    }
    ctx.report(table);
  }

  bench::measured_note(
      "accuracy saturates around depth ~8 and a few minutes of walking"
      " data; depth-1 trees (a single split) cannot express the joint"
      " throughput+signal dependence, mirroring the Fig. 15 ablations.");
}

}  // namespace wild5g::bench
