// Table 2: power during RRC state transitions — tail power and 4G->5G
// switch power, measured from the synthesized Monsoon waveform using the
// paper's single-burst methodology.
#include <iostream>

#include "bench_common.h"
#include "power/waveform.h"
#include "rrc/state_machine.h"

namespace wild5g::bench {

void table2_transition_power(engine::CampaignContext& ctx,
                             const faults::Injector*) {
  bench::banner("Table 2", "Power during RRC state transitions");
  bench::paper_note(
      "Tail power (mW): Verizon 4G 178, T-Mobile 4G 66, Verizon NSA"
      " low-band 249, Verizon NSA mmWave 1092, T-Mobile NSA low-band 260,"
      " T-Mobile SA low-band 593. 4G->5G switch: 799/1494/699/245 mW.");

  Table table("Measured from single-burst waveform (5 kHz)");
  table.set_header({"network", "tail mW (paper)", "tail mW (measured)",
                    "switch mW (paper)", "switch mW (measured)"});

  for (const auto& profile : rrc::table7_profiles()) {
    const auto& config = profile.config;
    // UE idles 20 s (forced to RRC_IDLE), a server packet promotes it, a
    // short transfer runs, then the monitor captures the full tail.
    const std::vector<rrc::ActivityBurst> bursts = {
        {20000.0, 24000.0, 200.0, 8.0}};
    const double horizon =
        24000.0 + config.anchor_tail_ms.value_or(config.inactivity_timer_ms) +
        config.inactive_hold_ms.value_or(0.0) + 8000.0;
    power::WaveformSynthesizer synth(profile,
                                     power::DevicePowerProfile::s20u());
    Rng rng(bench::kBenchSeed);
    const auto trace = synth.synthesize(
        rrc::build_timeline(config, bursts, horizon), rng);

    const double tail_measured = trace.average_mw(
        24.2, 24.0 + config.inactivity_timer_ms / 1000.0 - 0.2);

    std::string switch_measured = "N/A";
    std::string switch_paper = "N/A";
    if (config.is_nsa_5g() || config.is_sa()) {
      const double promo_s = config.promotion_5g_ms.value_or(
                                 config.promotion_4g_ms.value_or(300.0)) /
                             1000.0;
      switch_measured =
          Table::num(trace.average_mw(20.02, 20.0 + promo_s * 0.95), 0);
      switch_paper = Table::num(profile.power.switch_mw, 0);
    }
    table.add_row({config.name, Table::num(profile.power.tail_mw, 0),
                   Table::num(tail_measured, 0), switch_paper,
                   switch_measured});
  }
  ctx.report(table);
  bench::measured_note(
      "5G tails cost more than 4G (mmWave most of all), and the 4G->5G"
      " switch adds a further burst, matching the paper's conclusion that"
      " intermittent transfer patterns should avoid 5G.");
}

}  // namespace wild5g::bench
