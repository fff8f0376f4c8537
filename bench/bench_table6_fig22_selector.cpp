// Table 6 + Figure 22: decision-tree radio interface selection for web
// browsing — per-QoE-model 4G/5G choice counts on the held-out test set,
// the learned trees for M1 and M4, and the resulting energy/PLT outcomes.
#include <iostream>

#include "bench_common.h"
#include "web/selector.h"

namespace wild5g::bench {

void table6_fig22_selector(engine::CampaignContext& ctx,
                           const faults::Injector*) {
  bench::banner("Table 6 + Fig. 22", "DT radio-interface selection");
  bench::paper_note(
      "Over 420 test websites: M1 (0.2/0.8) picks 5G for 401; M5 (0.8/0.2)"
      " picks 4G for all 420; intermediate models shift monotonically."
      " M1 splits on page size and dynamic-object share; M4 prefers 4G"
      " unless dynamic objects dominate (>76%). Selection saves 15-66%"
      " energy while improving overall QoE.");

  Rng rng(bench::kBenchSeed);
  const auto corpus = web::generate_corpus(1500, rng);
  const auto device = power::DevicePowerProfile::s10();
  auto measurements = web::measure_corpus(corpus, 8, device, rng);

  // 7:3 split, shuffled.
  rng.shuffle(std::span<web::SiteMeasurement>(measurements));
  const auto train_count =
      static_cast<std::size_t>(0.7 * measurements.size());
  const std::span<const web::SiteMeasurement> train(measurements.data(),
                                                    train_count);
  const std::span<const web::SiteMeasurement> test(
      measurements.data() + train_count, measurements.size() - train_count);

  Table table("Radio choices on the " + std::to_string(test.size()) +
              "-site test set");
  table.set_header({"model", "desired QoE", "alpha", "beta", "use 4G",
                    "use 5G", "accuracy", "energy saving %", "PLT penalty %"});

  std::vector<web::InterfaceSelector> selectors;
  for (const auto& weights : web::paper_qoe_models()) {
    web::InterfaceSelector selector(weights);
    Rng train_rng(bench::kBenchSeed + 77);
    selector.train(train, train_rng);
    const auto counts = selector.counts(test);
    const auto outcome = selector.outcome(test);
    table.add_row({weights.id, weights.description,
                   Table::num(weights.alpha, 1), Table::num(weights.beta, 1),
                   std::to_string(counts.use_4g),
                   std::to_string(counts.use_5g),
                   Table::num(selector.accuracy(test), 2),
                   Table::num(outcome.energy_saving_percent, 1),
                   Table::num(outcome.plt_penalty_percent, 1)});
    selectors.push_back(std::move(selector));
  }
  ctx.report(table);

  std::cout << "Fig. 22a - M1 (high performance) decision tree:\n"
            << selectors[0].describe_tree() << "\n";
  std::cout << "Fig. 22b - M4 (better energy saving) decision tree:\n"
            << selectors[3].describe_tree() << "\n";

  auto top_features = [](const web::InterfaceSelector& s) {
    const auto importances = s.feature_importances();
    const auto names = web::feature_names();
    std::string out;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (importances[i] > 0.15) {
        out += names[i] + "(" + Table::num(importances[i], 2) + ") ";
      }
    }
    return out.empty() ? std::string("-") : out;
  };
  bench::measured_note("M1 dominant features: " + top_features(selectors[0]) +
                       "(paper: PS, DNO)");
  bench::measured_note("M4 dominant features: " + top_features(selectors[3]) +
                       "(paper: NO, DNO)");
}

}  // namespace wild5g::bench
