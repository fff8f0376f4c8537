// Fixture: a figure-shaped bench file. It "feeds a metrics sink" only
// through its bench_common.h include (no core/json.h), and builds a report
// table by range-for over a hash map, so hash order would leak into the
// golden document. Must trip exactly unordered-iteration.
// Never compiled — wild5g_lint input only (see test_lint_fixtures.cpp).
#include <string>
#include <unordered_map>

#include "bench_common.h"

namespace wild5g::bench {

void fig99_hash_order(engine::CampaignContext& ctx,
                      const faults::Injector* /*faults*/) {
  const std::unordered_map<std::string, int> handoffs = {{"sa", 3},
                                                         {"nsa", 7}};
  Table table("Handoffs per setting");
  table.set_header({"setting", "handoffs"});
  for (const auto& [setting, count] : handoffs) {
    table.add_row({setting, std::to_string(count)});
  }
  ctx.report(table);
}

}  // namespace wild5g::bench
