// Tables 3 & 9: software power-monitor overhead and per-activity relative
// error (SW/HW ratio) at 1 Hz and 10 Hz sampling.
#include <iostream>

#include "bench_common.h"
#include "core/stats.h"
#include "power/monitor.h"
#include "power/waveform.h"
#include "rrc/state_machine.h"

namespace wild5g::bench {

namespace {

/// Builds an activity-specific waveform on Verizon mmWave.
power::PowerTrace make_waveform(const std::string& activity,
                                std::uint64_t seed) {
  const auto profile = rrc::profile_by_name("Verizon NSA mmWave");
  std::vector<rrc::ActivityBurst> bursts;
  const double horizon = 120000.0;
  if (activity == "Random activities") {
    Rng rng(seed);
    double t = 1000.0;
    while (t < horizon - 6000.0) {
      const double len = rng.uniform(500.0, 4000.0);
      bursts.push_back({t, t + len, rng.uniform(5.0, 120.0), 2.0});
      t += len + rng.uniform(1000.0, 8000.0);
    }
  } else if (activity.rfind("UDP DL", 0) == 0) {
    const double mbps = std::stod(activity.substr(7));
    bursts.push_back({1000.0, horizon - 1000.0, mbps, mbps * 0.02});
  } else if (activity == "Video streaming") {
    for (double t = 1000.0; t < horizon - 8000.0; t += 12000.0) {
      bursts.push_back({t, t + 5000.0, 180.0, 4.0});
    }
  }
  // "Idle" activities: no bursts at all.
  power::WaveformSynthesizer synth(profile, power::DevicePowerProfile::s20u(),
                                   1000.0);
  Rng rng(seed + 1);
  return synth.synthesize(rrc::build_timeline(profile.config, bursts, horizon),
                          rng);
}

}  // namespace

void table3_9_sw_monitor(engine::CampaignContext& ctx,
                         const faults::Injector*) {
  bench::banner("Table 3 + Table 9", "Software power monitor benchmarking");
  bench::paper_note(
      "Table 3: polling the battery API itself costs power (+654 mW @1 Hz,"
      " +1111 mW @10 Hz over idle). Table 9: the software monitor reads"
      " 81-92% of hardware truth at 1 Hz and 90-95% at 10 Hz.");

  Table table3("Table 3: monitoring overhead (device total, mW)");
  table3.set_header({"activity", "average power (mW)"});
  const double idle = 2014.3;  // paper's idle device power (screen on)
  table3.add_row({"Idle", Table::num(idle, 1)});
  table3.add_row({"Monitor on (1Hz)",
                  Table::num(idle + power::software_monitor_overhead_mw(1.0),
                             1)});
  table3.add_row({"Monitor on (10Hz)",
                  Table::num(idle + power::software_monitor_overhead_mw(10.0),
                             1)});
  ctx.report(table3);

  Table table9("Table 9: relative error = SW / HW");
  table9.set_header({"test case", "@ 1Hz", "@ 10Hz"});
  const std::vector<std::string> activities = {
      "Random activities", "Idle (screen on)", "Idle (screen off)",
      "UDP DL 50Mbps", "UDP DL 400Mbps", "UDP DL 800Mbps",
      "UDP DL 1200Mbps", "Video streaming"};
  std::uint64_t seed = bench::kBenchSeed;
  for (const auto& activity : activities) {
    const auto waveform = make_waveform(activity, seed += 13);
    const auto hw = power::MonsoonMonitor::per_second_mw(waveform);
    std::vector<std::string> row{activity};
    for (const double rate : {1.0, 10.0}) {
      power::SoftwareMonitor sw(power::default_software_monitor(rate));
      Rng rng(seed + static_cast<std::uint64_t>(rate));
      auto readings = sw.per_second_mw(waveform, rng);
      readings.resize(hw.size());
      row.push_back(Table::num(
          100.0 * stats::mean(readings) / stats::mean(hw), 1) + "%");
    }
    table9.add_row(std::move(row));
  }
  ctx.report(table9);

  bench::measured_note(
      "software always under-reads; the 10 Hz column is uniformly closer to"
      " 100%, and the polling overhead grows with rate (Table 3's tradeoff).");
}

}  // namespace wild5g::bench
