// Figure 11: throughput vs power for 4G, NSA low-band 5G, and NSA mmWave 5G
// (S20U, Verizon), downlink and uplink, including the crossover points.
#include <iostream>

#include "bench_common.h"
#include "power/power_model.h"

namespace wild5g::bench {

using power::DevicePowerProfile;
using power::RailKey;
using radio::Direction;

namespace {

void sweep(engine::CampaignContext& ctx, const DevicePowerProfile& device,
           Direction direction, double max_mbps, double step_mbps) {
  const std::string dir_label = radio::to_string(direction);
  Table table("S20U " + dir_label + ": power (W) vs throughput (Mbps)");
  table.set_header({"Mbps", "mmWave 5G", "Low-Band 5G", "4G/LTE"});
  for (double t = 0.0; t <= max_mbps + 1e-9; t += step_mbps) {
    auto cell = [&](RailKey key, double cap) {
      if (t > cap) return std::string("-");
      return Table::num(device.rail(key, direction).power_mw(t) / 1000.0, 2);
    };
    const bool dl = direction == Direction::kDownlink;
    table.add_row({Table::num(t, 0),
                   cell(RailKey::kNsaMmWave, dl ? 2200.0 : 230.0),
                   cell(RailKey::kNsaLowBand, dl ? 220.0 : 110.0),
                   cell(RailKey::k4g, dl ? 200.0 : 90.0)});
  }
  ctx.report(table);

  const auto mm = device.rail(RailKey::kNsaMmWave, direction);
  const auto lte = device.rail(RailKey::k4g, direction);
  const auto lb = device.rail(RailKey::kNsaLowBand, direction);
  bench::measured_note(dir_label + " crossover mmWave x 4G = " +
                       Table::num(*power::crossover_mbps(mm, lte), 1) +
                       " Mbps, mmWave x low-band = " +
                       Table::num(*power::crossover_mbps(mm, lb), 1) +
                       " Mbps");
}

}  // namespace

void fig11_throughput_power(engine::CampaignContext& ctx,
                            const faults::Injector*) {
  bench::banner("Fig. 11", "Throughput vs power for 4G and 5G (S20U)");
  bench::paper_note(
      "Power rises linearly with throughput on every radio; mmWave's slope"
      " is far shallower, so it crosses below 4G at 187 Mbps (DL) / 40 Mbps"
      " (UL) and below low-band 5G at 189 / 123 Mbps.");

  const auto s20u = DevicePowerProfile::s20u();
  sweep(ctx, s20u, Direction::kDownlink, 2000.0, 200.0);
  sweep(ctx, s20u, Direction::kUplink, 200.0, 20.0);
}

}  // namespace wild5g::bench
