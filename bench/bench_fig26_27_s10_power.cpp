// Figures 26 & 27 (Appendix A.4): S10 throughput-power and
// throughput-energy-efficiency curves for 4G vs mmWave 5G (Ann Arbor),
// including the device-specific crossover points.
#include <iostream>

#include "bench_common.h"
#include "power/power_model.h"

namespace wild5g::bench {

using power::DevicePowerProfile;
using power::RailKey;
using radio::Direction;

void fig26_27_s10_power(engine::CampaignContext& ctx, const faults::Injector*) {
  bench::banner("Fig. 26 + Fig. 27", "S10 power and efficiency (Ann Arbor)");
  bench::paper_note(
      "On the S10 the mmWave/4G crossovers sit at 213 Mbps (DL) and 44 Mbps"
      " (UL) — close to, but distinct from, the S20U's 187/40 Mbps"
      " (different chipset lithography).");

  const auto s10 = DevicePowerProfile::s10();
  for (const Direction direction :
       {Direction::kDownlink, Direction::kUplink}) {
    const bool dl = direction == Direction::kDownlink;
    Table table("S10 " + radio::to_string(direction) +
                ": power (mW) and efficiency (uJ/bit)");
    table.set_header({"Mbps", "5G mW", "4G mW", "5G uJ/bit", "4G uJ/bit"});
    for (double t = dl ? 25.0 : 5.0; t <= (dl ? 1600.0 : 100.0); t *= 2.0) {
      const auto mm = s10.rail(RailKey::kNsaMmWave, direction);
      const auto lte = s10.rail(RailKey::k4g, direction);
      const bool lte_ok = t <= (dl ? 180.0 : 60.0);
      table.add_row(
          {Table::num(t, 0), Table::num(mm.power_mw(t), 0),
           lte_ok ? Table::num(lte.power_mw(t), 0) : "-",
           Table::num(power::efficiency_uj_per_bit(mm.power_mw(t), t), 4),
           lte_ok ? Table::num(
                        power::efficiency_uj_per_bit(lte.power_mw(t), t), 4)
                  : "-"});
    }
    ctx.report(table);

    const auto crossover = power::crossover_mbps(
        s10.rail(RailKey::kNsaMmWave, direction),
        s10.rail(RailKey::k4g, direction));
    bench::measured_note(radio::to_string(direction) +
                         " 5G x 4G crossover = " +
                         Table::num(*crossover, 1) + " Mbps (paper: " +
                         (dl ? "213" : "44") + " Mbps)");
  }
}

}  // namespace wild5g::bench
