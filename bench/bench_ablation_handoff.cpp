// Ablation: A3 handoff parameters. Sweeps hysteresis and time-to-trigger
// on the Sec. 3.3 drive and reports handoff + ping-pong counts, exposing
// the control-plane tradeoff behind Fig. 9's per-carrier differences.
#include <iostream>

#include "bench_common.h"
#include "mobility/route.h"
#include "radio/handoff.h"

namespace wild5g::bench {

void ablation_handoff(engine::CampaignContext& ctx, const faults::Injector*) {
  bench::banner("Ablation", "A3 handoff hysteresis / time-to-trigger sweep");
  bench::paper_note(
      "Fig. 9's LTE layer shows ~30 handoffs incl. ping-pong at cell edges;"
      " carriers trade handoff lag (large hysteresis/TTT) against edge"
      " flapping (small). This sweep quantifies that frontier on the drive"
      " route.");

  Table table("10 km drive, LTE cells every 480 m (mean of 5 drives)");
  table.set_header({"hysteresis dB", "TTT ms", "handoffs", "ping-pongs"});

  // The sweep grid fans out one task per (hysteresis, TTT) operating point;
  // each task's 5 drives stay seeded per run exactly as before, so the
  // emitted rows are independent of thread count by construction.
  const std::vector<double> hysteresis_grid = {0.0, 1.0, 3.0, 6.0};
  const std::vector<double> ttt_grid = {0.0, 160.0, 320.0, 640.0};
  const int runs = 5;
  struct GridCell {
    double mean_handoffs = 0.0;
    double mean_pingpongs = 0.0;
  };
  const auto grid = parallel::parallel_map(
      hysteresis_grid.size() * ttt_grid.size(), [&](std::size_t task) {
        const double hysteresis = hysteresis_grid[task / ttt_grid.size()];
        const double ttt = ttt_grid[task % ttt_grid.size()];
        double handoffs = 0.0;
        double pingpongs = 0.0;
        for (int run = 0; run < runs; ++run) {
          Rng rng(bench::kBenchSeed + static_cast<std::uint64_t>(run));
          const auto route = mobility::driving_route(rng);
          std::vector<radio::CellSite> cells;
          for (int i = 0; i * 480.0 < route.length_m() + 480.0; ++i) {
            cells.push_back({i, i * 480.0, radio::Band::kLte});
          }
          radio::HandoffConfig config;
          config.hysteresis_db = hysteresis;
          config.time_to_trigger_ms = ttt;
          radio::A3HandoffEngine engine(cells, config, rng.fork(9));
          for (double t = 0.1; t <= route.duration_s(); t += 0.1) {
            engine.step(0.1, route.position_m(t));
          }
          handoffs += engine.handoff_count();
          pingpongs += engine.pingpong_count();
        }
        return GridCell{handoffs / runs, pingpongs / runs};
      });
  for (std::size_t task = 0; task < grid.size(); ++task) {
    table.add_row({Table::num(hysteresis_grid[task / ttt_grid.size()], 1),
                   Table::num(ttt_grid[task % ttt_grid.size()], 0),
                   Table::num(grid[task].mean_handoffs, 1),
                   Table::num(grid[task].mean_pingpongs, 1)});
  }
  ctx.report(table);

  bench::measured_note(
      "small hysteresis + zero TTT floods the control plane with edge"
      " ping-pong; the (3 dB, 320 ms) operating point lands near Fig. 9's"
      " LTE count with ping-pong largely suppressed.");
}

}  // namespace wild5g::bench
