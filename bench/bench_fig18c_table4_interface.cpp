// Figure 18c + Table 4: 5G-aware interface selection for video streaming —
// video stall / bitrate impact and radio energy, vs always-5G and vs the
// no-switch-overhead idealization.
#include <iostream>

#include "bench_common.h"
#include "abr/interface_selection.h"
#include "abr/video.h"
#include "traces/traces.h"

namespace wild5g::bench {

void fig18c_table4_interface(engine::CampaignContext& ctx,
                             const faults::Injector*) {
  bench::banner("Fig. 18c + Table 4",
                "5G-aware interface selection for ABR streaming");
  bench::paper_note(
      "5G-aware MPC cuts video stalls by 26.9% vs 5G-only and saves 4.2%"
      " energy (Table 4: 495.0 J -> 474.4 J); removing the switch overhead"
      " changes stalls by only ~4%.");

  Rng rng(bench::kBenchSeed);
  auto c5 = traces::lumos5g_mmwave_config();
  const auto traces_5g = traces::generate_traces(c5, rng);
  Rng rng2(bench::kBenchSeed + 1);
  auto c4 = traces::lumos5g_lte_config();
  const auto traces_4g = traces::generate_traces(c4, rng2);

  const auto video = abr::video_ladder_5g();
  abr::SessionOptions options;
  options.chunk_count = 60;
  // The 5G-aware scheme monitors download progress (segment abandonment);
  // all three schemes run the same engine for a fair comparison.
  options.allow_abandonment = true;
  const auto device = power::DevicePowerProfile::s20u();

  struct Totals {
    double stall_s = 0.0;
    double bitrate = 0.0;
    double energy_j = 0.0;
    int switches = 0;
  };
  Totals only, aware, no_overhead;
  const auto n = traces_5g.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& t5 = traces_5g[i];
    const auto& t4 = traces_4g[i % traces_4g.size()];

    abr::InterfaceSelectionConfig selection;
    const auto r_only =
        abr::stream_5g_only(video, t5, options, selection, device);
    const auto r_aware =
        abr::stream_5g_aware(video, t5, t4, options, selection, device);
    selection.model_switch_overhead = false;
    const auto r_no =
        abr::stream_5g_aware(video, t5, t4, options, selection, device);

    auto acc = [&](Totals& t, const abr::InterfaceRunResult& r) {
      t.stall_s += r.session.total_stall_s;
      t.bitrate += r.session.normalized_bitrate(video);
      t.energy_j += r.energy_j;
      t.switches += r.switch_count;
    };
    acc(only, r_only);
    acc(aware, r_aware);
    acc(no_overhead, r_no);
  }

  Table table("Per-session means over the 121-trace population");
  table.set_header({"scheme", "stall s", "norm. bitrate", "energy J",
                    "switches"});
  auto row = [&](const std::string& name, const Totals& t) {
    const auto d = static_cast<double>(n);
    table.add_row({name, Table::num(t.stall_s / d, 2),
                   Table::num(t.bitrate / d, 3),
                   Table::num(t.energy_j / d, 1),
                   Table::num(static_cast<double>(t.switches) / d, 1)});
  };
  row("5G-only MPC", only);
  row("5G-aware MPC", aware);
  row("5G-aware MPC NO*", no_overhead);
  ctx.report(table);
  std::cout << "(*NO = no switch overhead)\n";

  bench::measured_note("stall reduction vs 5G-only = " +
                       Table::num(100.0 * (only.stall_s - aware.stall_s) /
                                      only.stall_s, 1) +
                       "% (paper: 26.9%)");
  bench::measured_note("energy saving vs 5G-only = " +
                       Table::num(100.0 * (only.energy_j - aware.energy_j) /
                                      only.energy_j, 1) +
                       "% (paper: 4.2%)");
  bench::measured_note("extra stall vs no-overhead ideal = " +
                       Table::num(100.0 * (aware.stall_s -
                                           no_overhead.stall_s) /
                                      std::max(1.0, no_overhead.stall_s), 1) +
                       "% (paper: 4.0%)");
}

}  // namespace wild5g::bench
