// wild5g_bench: the one driver behind every build/bench/bench_<id> alias.
//
//   build/bench/bench_<id> [--json P] [--threads N] [--faults PLAN]
//                          [--deadline-ms N] [--<param> VALUE]...
//
// The bench is picked by the name the driver was invoked under: each alias
// is a symlink to it, and any other name lists the benches. kBenches is the
// one list: every figure, registered as a one-step campaign next to the
// built-in ones, and the two metro aliases of built-in campaigns. All run
// under engine::run_steps with the Supervisor's RunControl. Flags beyond
// the common ones become request params (`--cells 4` sets params.cells = 4)
// that the campaign's factory validates, so an unknown flag or a bad value
// is a usage error (exit 2) before anything runs.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "bench_common.h"

namespace wild5g::bench {

// The figure bodies, one per bench/bench_<id>.cpp.
FigureFn table1_campaign, fig01_02_latency_distance, fig03_downlink_distance,
    fig04_uplink_distance, fig05_07_tmobile_sa_nsa, fig08_transport_tuning,
    fig09_handoffs, fig10_25_rrc_probe, table7_rrc_params,
    table2_transition_power, fig11_throughput_power, fig12_energy_efficiency,
    fig13_14_rsrp_power, fig15_16_power_models, table3_9_sw_monitor,
    table8_slopes, fig17_abr_qoe, fig18a_predictors, fig18b_chunk_length,
    fig18c_table4_interface, fig19_20_web_qoe, fig21_penalty_saving,
    table6_fig22_selector, fig23_carrier_aggregation, fig24_server_survey,
    fig26_27_s10_power, validation_apps, baseline_2019, ablation_handoff,
    ablation_transport, ablation_abr, ablation_power_model, extension_bbr,
    extension_pensieve_5g, extension_drive_energy, extension_http2;

namespace {

/// One bench. Its id is the document id, the alias name without `bench_`,
/// and the golden's name; bench.cmake lists the same ids.
struct Bench {
  std::string_view id;
  /// The figure body, or null for an alias of a built-in campaign.
  FigureFn* figure = nullptr;
  /// Whether the bench injects a `--faults` plan; a figure that does not
  /// refuses a plan rather than label an unfaulted document with it.
  bool consumes_faults = false;
  /// The aliased built-in campaign; a figure registers under its id.
  std::string_view campaign = {};
};

constexpr bool kFaults = true;

constexpr Bench kBenches[] = {
    {"table1_campaign", table1_campaign},
    {"fig01_02_latency_distance", fig01_02_latency_distance},
    {"fig03_downlink_distance", fig03_downlink_distance, kFaults},
    {"fig04_uplink_distance", fig04_uplink_distance},
    {"fig05_07_tmobile_sa_nsa", fig05_07_tmobile_sa_nsa},
    {"fig08_transport_tuning", fig08_transport_tuning},
    {"fig09_handoffs", fig09_handoffs},
    {"fig10_25_rrc_probe", fig10_25_rrc_probe},
    {"table7_rrc_params", table7_rrc_params},
    {"table2_transition_power", table2_transition_power},
    {"fig11_throughput_power", fig11_throughput_power},
    {"fig12_energy_efficiency", fig12_energy_efficiency},
    {"fig13_14_rsrp_power", fig13_14_rsrp_power},
    {"fig15_16_power_models", fig15_16_power_models},
    {"table3_9_sw_monitor", table3_9_sw_monitor},
    {"table8_slopes", table8_slopes},
    {"fig17_abr_qoe", fig17_abr_qoe, kFaults},
    {"fig18a_predictors", fig18a_predictors},
    {"fig18b_chunk_length", fig18b_chunk_length},
    {"fig18c_table4_interface", fig18c_table4_interface},
    {"fig19_20_web_qoe", fig19_20_web_qoe, kFaults},
    {"fig21_penalty_saving", fig21_penalty_saving},
    {"table6_fig22_selector", table6_fig22_selector},
    {"fig23_carrier_aggregation", fig23_carrier_aggregation},
    {"fig24_server_survey", fig24_server_survey, kFaults},
    {"fig26_27_s10_power", fig26_27_s10_power},
    {"validation_apps", validation_apps},
    {"baseline_2019", baseline_2019},
    {"ablation_handoff", ablation_handoff},
    {"ablation_transport", ablation_transport},
    {"ablation_abr", ablation_abr},
    {"ablation_power_model", ablation_power_model},
    {"extension_bbr", extension_bbr},
    {"extension_pensieve_5g", extension_pensieve_5g},
    {"extension_drive_energy", extension_drive_energy},
    {"extension_http2", extension_http2},
    // The metro campaigns validate their own plans (radio kinds only) and
    // params (`--cells N`, `--ues N`).
    {"extension_metro_load", nullptr, kFaults, "metro_load"},
    {"extension_metro_qoe", nullptr, kFaults, "metro_qoe"},
};

/// A figure as a one-step campaign. Its checkpoint state is null: before
/// the step nothing has run and after it everything has, so a checkpoint on
/// either side resumes exactly.
class FigureCampaign final : public engine::Campaign {
 public:
  FigureCampaign(const Bench& bench, const engine::CampaignRequest& request)
      : figure_(bench.figure) {
    engine::reject_unknown_params(request.params, {});
    if (request.fault_plan.has_value()) {
      require(bench.consumes_faults,
              "--faults: " + std::string(bench.id) + " injects no faults");
      injector_ = std::make_unique<faults::Injector>(*request.fault_plan,
                                                     request.seed);
    }
  }

  [[nodiscard]] std::size_t total_steps() const override { return 1; }

  [[nodiscard]] json::Value execute_step(
      std::size_t /*index*/, engine::CampaignContext& ctx) override {
    figure_(ctx, injector_.get());
    return json::Value::object();
  }

  [[nodiscard]] json::Value checkpoint_state() const override { return {}; }

  void restore_state(const json::Value& state) override {
    require(state.is_null(), "figure campaign: checkpoint state must be null");
  }

 private:
  FigureFn* figure_;
  std::unique_ptr<faults::Injector> injector_;
};

std::unique_ptr<engine::Campaign> make_figure_campaign(
    const engine::CampaignRequest& request) {
  for (const auto& bench : kBenches) {
    if (bench.figure != nullptr && bench.id == request.campaign) {
      return std::make_unique<FigureCampaign>(bench, request);
    }
  }
  throw Error("make_figure_campaign: no figure '" + request.campaign + "'");
}

[[noreturn]] void list_benches(std::string_view name) {
  std::cerr << "unknown bench '" << name << "'\n";
  std::cerr << "usage: build/bench/bench_<id> [flags], a symlink to this "
               "driver; <id> is one of:\n";
  for (const auto& bench : kBenches) std::cerr << "  " << bench.id << "\n";
  std::exit(2);
}

/// The flags the Supervisor left in argv, as campaign params: a value that
/// parses as JSON keeps its type, anything else is passed as a string.
/// `--name value` and `--name=value` (split on the first '=', as the
/// Supervisor splits its own flags) are the same param.
json::Value params_from(int argc, char** argv, const Supervisor& supervisor) {
  json::Value params;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    if (flag.size() <= 2 || flag.rfind("--", 0) != 0 ||
        (eq == std::string::npos && i + 1 >= argc)) {
      supervisor.fail_usage("unknown flag '" + arg + "'");
    }
    json::Value value =
        eq != std::string::npos ? arg.substr(eq + 1) : std::string(argv[++i]);
    try {
      value = json::parse(value.as_string());
    } catch (const std::exception&) {
      // not JSON: keep the string for the factory to refuse by name
    }
    if (params.is_null()) params = json::Value::object();
    params.set(flag.substr(2), value);
  }
  return params;
}

}  // namespace

}  // namespace wild5g::bench

int main(int argc, char** argv) {
  using namespace wild5g;
  std::string_view name = argv[0];
  name = name.substr(name.rfind('/') + 1);
  const bench::Bench* spec = nullptr;
  for (const auto& bench : bench::kBenches) {
    if ("bench_" + std::string(bench.id) == name) spec = &bench;
  }
  if (spec == nullptr) bench::list_benches(name);

  bench::Supervisor supervisor(argc, argv, std::string(spec->id));
  engine::CampaignRequest request;
  request.campaign = std::string(spec->figure ? spec->id : spec->campaign);
  request.params = bench::params_from(argc, argv, supervisor);
  request.fault_plan = supervisor.fault_plan();

  engine::register_builtin_campaigns();
  for (const auto& bench : bench::kBenches) {
    if (bench.figure != nullptr) {
      engine::register_campaign(std::string(bench.id),
                                bench::make_figure_campaign);
    }
  }
  std::unique_ptr<engine::Campaign> campaign;
  try {
    campaign = engine::make_campaign(request);
  } catch (const std::exception& e) {
    supervisor.fail_usage(e.what());
  }

  engine::MetricsDocument doc = supervisor.make_document();
  engine::CampaignContext ctx{doc, &std::cout};
  (void)engine::run_steps(*campaign, ctx, supervisor.control());
  return supervisor.finish(doc);
}
