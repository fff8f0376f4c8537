// Figure 12: throughput vs energy efficiency (energy per bit, log-log) for
// 4G and 5G on S20U, plus the headline low/high-throughput comparisons.
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "power/power_model.h"

namespace wild5g::bench {

using power::DevicePowerProfile;
using power::RailKey;
using radio::Direction;

void fig12_energy_efficiency(engine::CampaignContext& ctx,
                             const faults::Injector*) {
  bench::banner("Fig. 12", "Throughput vs energy efficiency (S20U)");
  bench::paper_note(
      "log E is linear in log T with slope -> -1 at low throughput; over"
      " downlink (uplink) 5G is ~79% (74%) less energy-efficient than 4G at"
      " low throughput but up to 5x (2x) more efficient at high throughput."
      " Note: we report J/bit computed from radio power, so absolute values"
      " differ from the paper's axis; the shape and ratios are the result.");

  const auto s20u = DevicePowerProfile::s20u();
  for (const Direction direction :
       {Direction::kDownlink, Direction::kUplink}) {
    const bool dl = direction == Direction::kDownlink;
    Table table("S20U " + radio::to_string(direction) +
                ": energy per bit (uJ/bit) vs throughput");
    table.set_header({"Mbps", "mmWave 5G", "Low-Band 5G", "4G/LTE"});
    for (double t = 1.0; t <= (dl ? 2048.0 : 256.0); t *= 2.0) {
      auto cell = [&](RailKey key, double cap) {
        if (t > cap) return std::string("-");
        const double p = s20u.rail(key, direction).power_mw(t);
        return Table::num(power::efficiency_uj_per_bit(p, t), 4);
      };
      table.add_row({Table::num(t, 0),
                     cell(RailKey::kNsaMmWave, dl ? 2200.0 : 230.0),
                     cell(RailKey::kNsaLowBand, dl ? 220.0 : 110.0),
                     cell(RailKey::k4g, dl ? 200.0 : 90.0)});
    }
    ctx.report(table);

    // Headline ratios: at low throughput and at each link's high end.
    const double low_t = dl ? 8.0 : 4.0;
    const auto mm = s20u.rail(RailKey::kNsaMmWave, direction);
    const auto lte = s20u.rail(RailKey::k4g, direction);
    const double e_mm_low =
        power::efficiency_uj_per_bit(mm.power_mw(low_t), low_t);
    const double e_lte_low =
        power::efficiency_uj_per_bit(lte.power_mw(low_t), low_t);
    const double high_mm = dl ? 1500.0 : 200.0;
    const double high_lte = dl ? 150.0 : 40.0;
    const double e_mm_high =
        power::efficiency_uj_per_bit(mm.power_mw(high_mm), high_mm);
    const double e_lte_high =
        power::efficiency_uj_per_bit(lte.power_mw(high_lte), high_lte);
    bench::measured_note(
        radio::to_string(direction) + ": at low rate 5G is " +
        Table::num(100.0 * (1.0 - e_lte_low / e_mm_low), 0) +
        "% less efficient than 4G; at each link's high end 5G is " +
        Table::num(e_lte_high / e_mm_high, 1) + "x more efficient");

    // Log-log slope at the low end.
    const double e1 = power::efficiency_uj_per_bit(mm.power_mw(1.0), 1.0);
    const double e4 = power::efficiency_uj_per_bit(mm.power_mw(4.0), 4.0);
    bench::measured_note("  log-log slope at low rate = " +
                         Table::num((std::log10(e4) - std::log10(e1)) /
                                        std::log10(4.0), 2) +
                         " (theory: -> -1)");
  }
}

}  // namespace wild5g::bench
