// Figure 8: single-connection downlink across all US Azure regions under
// different transport settings: UDP, 8 x TCP, tuned 1-TCP (large tcp_wmem),
// and default 1-TCP (rooted PX5, CUBIC).
#include <iostream>

#include "bench_common.h"
#include "net/speedtest.h"
#include "radio/channel.h"
#include "radio/ue.h"
#include "transport/tcp.h"

namespace wild5g::bench {

void fig08_transport_tuning(engine::CampaignContext& ctx,
                            const faults::Injector*) {
  bench::banner("Fig. 8",
                "Azure regions: UDP vs TCP-8 vs tuned/default single TCP");
  bench::paper_note(
      "UDP hits the PX5's ~2.2 Gbps ceiling everywhere; TCP-8 trails"
      " slightly; default 1-TCP is wmem-capped below ~500 Mbps; tuning"
      " tcp_wmem recovers 2.1-3x but still falls ~886 Mbps short of UDP on"
      " average, worsening with distance.");

  const radio::NetworkConfig network{radio::Carrier::kVerizon,
                                     radio::Band::kNrMmWave,
                                     radio::DeploymentMode::kNsa};
  const auto ue = radio::pixel5();
  Rng rng(bench::kBenchSeed);

  Table table("Downlink Mbps by transport setting (PX5, mmWave)");
  table.set_header({"region", "km", "UDP", "TCP-8", "1-TCP tuned",
                    "1-TCP default"});

  double udp_sum = 0.0;
  double tuned_sum = 0.0;
  double tuned_gain_min = 1e18;
  double tuned_gain_max = 0.0;
  double default_max = 0.0;
  int rows = 0;

  for (const auto& region : geo::azure_regions()) {
    // Cloud paths carry an extra ingress/virtualization penalty over the
    // carrier-hosted speedtest servers.
    const double rtt =
        net::path_rtt_ms(network, region.quoted_distance_km) + 8.0;
    const double capacity =
        radio::link_capacity_mbps(network, ue, radio::Direction::kDownlink,
                                  -76.0);
    transport::PathConfig path;
    path.rtt_ms = rtt;
    path.capacity_mbps = capacity;
    path.loss_event_rate_per_s = net::loss_event_rate_per_s(rtt);
    path.loss_per_packet = net::loss_per_packet(rtt);

    const double udp = transport::udp_throughput_mbps(path);
    auto run = [&](int conns, const transport::TcpOptions& options) {
      double best = 0.0;
      for (int rep = 0; rep < 5; ++rep) {
        best = std::max(best, transport::simulate_tcp(conns, path, options,
                                                      15.0, rng)
                                  .aggregate_goodput_mbps);
      }
      return best;
    };
    const double tcp8 = run(8, transport::tuned_tcp_options());
    const double tuned = run(1, transport::tuned_tcp_options());
    const double dflt = run(1, transport::TcpOptions{});

    table.add_row({region.name, Table::num(region.quoted_distance_km, 0),
                   Table::num(udp, 0), Table::num(tcp8, 0),
                   Table::num(tuned, 0), Table::num(dflt, 0)});
    udp_sum += udp;
    tuned_sum += tuned;
    tuned_gain_min = std::min(tuned_gain_min, tuned / dflt);
    tuned_gain_max = std::max(tuned_gain_max, tuned / dflt);
    default_max = std::max(default_max, dflt);
    ++rows;
  }
  ctx.report(table);

  bench::measured_note("default 1-TCP max = " + Table::num(default_max, 0) +
                       " Mbps (paper: <= ~500 Mbps at every region)");
  bench::measured_note("tuned/default gain = " +
                       Table::num(tuned_gain_min, 1) + "x to " +
                       Table::num(tuned_gain_max, 1) +
                       "x (paper: 2.1x to 3x)");
  bench::measured_note("mean UDP - tuned 1-TCP gap = " +
                       Table::num((udp_sum - tuned_sum) / rows, 0) +
                       " Mbps (paper: ~886 Mbps)");
}

}  // namespace wild5g::bench
