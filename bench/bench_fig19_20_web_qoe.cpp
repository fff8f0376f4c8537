// Figures 19 & 20: web page load time and radio energy over mmWave 5G vs
// 4G, binned by object count and total page size, plus CDF percentiles.
#include <iostream>

#include "bench_common.h"
#include "core/quantile_sketch.h"
#include "core/stats.h"
#include "web/selector.h"

namespace wild5g::bench {

void fig19_20_web_qoe(engine::CampaignContext& ctx,
                      const faults::Injector* faults) {
  bench::banner("Fig. 19 + Fig. 20", "Web QoE: PLT and energy, 5G vs 4G");
  bench::paper_note(
      "5G always loads faster; 4G always burns less energy; both gaps widen"
      " with object count and page size (Fig. 19). The CDFs (Fig. 20)"
      " separate cleanly in both metrics.");

  Rng rng(bench::kBenchSeed);
  const auto corpus = web::generate_corpus(1500, rng);
  const auto device = power::DevicePowerProfile::s10();
  const auto measurements =
      web::measure_corpus(corpus, 8, device, rng, faults);

  // Fig. 19a: by object count.
  struct Bin {
    std::string label;
    int lo;
    int hi;
  };
  const std::vector<Bin> object_bins = {
      {"0-10", 0, 10}, {"11-100", 11, 100}, {"100-1000", 100, 1000}};
  Table fig19a("Fig. 19a: impact of # objects (means)");
  fig19a.set_header({"objects", "sites", "4G PLT s", "5G PLT s", "4G J",
                     "5G J"});
  for (const auto& bin : object_bins) {
    double p4 = 0.0, p5 = 0.0, e4 = 0.0, e5 = 0.0;
    int count = 0;
    for (const auto& m : measurements) {
      if (m.site.object_count < bin.lo || m.site.object_count > bin.hi) {
        continue;
      }
      p4 += m.plt_4g_s;
      p5 += m.plt_5g_s;
      e4 += m.energy_4g_j;
      e5 += m.energy_5g_j;
      ++count;
    }
    if (count == 0) continue;
    fig19a.add_row({bin.label, std::to_string(count),
                    Table::num(p4 / count, 2), Table::num(p5 / count, 2),
                    Table::num(e4 / count, 2), Table::num(e5 / count, 2)});
  }
  ctx.report(fig19a);

  // Fig. 19b: by total page size.
  const std::vector<std::pair<std::string, std::pair<double, double>>>
      size_bins = {{"<1 MB", {0.0, 1.0}},
                   {"1-10 MB", {1.0, 10.0}},
                   {">10 MB", {10.0, 1e9}}};
  Table fig19b("Fig. 19b: impact of total page size (means)");
  fig19b.set_header({"page size", "sites", "4G PLT s", "5G PLT s", "4G J",
                     "5G J"});
  for (const auto& [label, range] : size_bins) {
    double p4 = 0.0, p5 = 0.0, e4 = 0.0, e5 = 0.0;
    int count = 0;
    for (const auto& m : measurements) {
      if (m.site.total_page_size_mb < range.first ||
          m.site.total_page_size_mb >= range.second) {
        continue;
      }
      p4 += m.plt_4g_s;
      p5 += m.plt_5g_s;
      e4 += m.energy_4g_j;
      e5 += m.energy_5g_j;
      ++count;
    }
    fig19b.add_row({label, std::to_string(count), Table::num(p4 / count, 2),
                    Table::num(p5 / count, 2), Table::num(e4 / count, 2),
                    Table::num(e5 / count, 2)});
  }
  ctx.report(fig19b);

  // Fig. 20: CDF percentiles.
  stats::SampleAccumulator plt4, plt5, en4, en5;
  for (const auto& m : measurements) {
    plt4.add(m.plt_4g_s);
    plt5.add(m.plt_5g_s);
    en4.add(m.energy_4g_j);
    en5.add(m.energy_5g_j);
  }
  Table fig20("Fig. 20: CDF percentiles");
  fig20.set_header({"percentile", "4G PLT s", "5G PLT s", "4G J", "5G J"});
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    fig20.add_row({Table::num(p, 0), Table::num(plt4.percentile(p), 2),
                   Table::num(plt5.percentile(p), 2),
                   Table::num(en4.percentile(p), 2),
                   Table::num(en5.percentile(p), 2)});
  }
  ctx.report(fig20);

  if (faults != nullptr) {
    // Faulted runs only: the default document must match the golden.
    int failed_objects = 0;
    for (const auto& m : measurements) failed_objects += m.failed_objects;
    ctx.doc.metric("failed_objects", failed_objects);
    bench::measured_note("object fetches failed under fault plan = " +
                         std::to_string(failed_objects));
  }

  bench::measured_note("median PLT: 5G " +
                       Table::num(plt5.median(), 2) + " s vs 4G " +
                       Table::num(plt4.median(), 2) +
                       " s; median energy: 5G " +
                       Table::num(en5.median(), 2) + " J vs 4G " +
                       Table::num(en4.median(), 2) + " J");
}

}  // namespace wild5g::bench
