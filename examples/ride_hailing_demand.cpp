// Ride-hailing demand service (the paper's Fig. 1 motivation): one
// deployed One4All-ST model simultaneously serves
//   - fine hexagon dispatch zones (driver repositioning, ~0.3 km^2),
//   - mid-size supply-demand balancing districts (~1.3 km^2), and
//   - coarse surge-pricing communities (~4.8 km^2),
// without training one model per region specification. The example prints
// per-zone predictions for the next hour and the online latency budget.
#include <algorithm>
#include <iostream>

#include "eval/metrics.h"
#include "eval/task_eval.h"
#include "model/one4all_net.h"
#include "model/trainer.h"
#include "query/query_executor.h"
#include "query/query_planner.h"

using namespace one4all;

namespace {

struct Service {
  const char* purpose;
  RegionStyle style;
  double mean_cells;
};

}  // namespace

int main() {
  // City: 32x32 atomic raster of 150 m cells, P = {1,...,32}.
  SyntheticDataOptions data_options =
      SyntheticDataOptions::TaxiPreset(32, 32);
  data_options.num_timesteps = 24 * 7 * 6;
  auto flows = GenerateSyntheticFlows(data_options);
  O4A_CHECK(flows.ok());
  Hierarchy hierarchy = Hierarchy::Uniform(32, 32, 2, 32);
  auto dataset = STDataset::Create(flows.MoveValueUnsafe(), hierarchy,
                                   TemporalFeatureSpec{});
  O4A_CHECK(dataset.ok());

  One4AllNetOptions net_options;
  net_options.channels = 8;
  One4AllNet net(dataset->hierarchy(), dataset->spec(), net_options);
  TrainOptions train_options;
  train_options.epochs = 10;
  train_options.learning_rate = 3e-3f;
  TrainModel(
      &net, *dataset,
      [&net](const STDataset& ds, const std::vector<int64_t>& batch) {
        return net.Loss(ds, batch);
      },
      train_options);

  auto pipeline = MauPipeline::Build(&net, *dataset, SearchOptions{});
  const int64_t next_hour = dataset->test_indices()[0];

  const Service services[] = {
      {"driver repositioning (hexagon zones)", RegionStyle::kHexagon, 13.0},
      {"supply-demand balancing (secondary roads)", RegionStyle::kRoadGrid,
       58.0},
      {"surge pricing (communities)", RegionStyle::kVoronoi, 213.0},
  };

  for (const Service& service : services) {
    RegionGeneratorOptions region_options;
    region_options.style = service.style;
    region_options.mean_cells = service.mean_cells;
    region_options.seed = 2024;
    const auto zones = GenerateRegions(32, 32, region_options);

    // The whole zoning is one multi-region spec: every zone answered at
    // the next hour, one row per zone.
    auto plan = QueryPlanner(&dataset->hierarchy())
                    .Plan(QuerySpec::MultiRegion(zones, next_hour));
    O4A_CHECK(plan.ok()) << plan.status().ToString();
    const QueryResult answer =
        QueryExecutor(&pipeline->server()).Execute(*plan);

    MetricAccumulator acc;
    double worst_latency_ms = 0.0;
    double hottest = -1.0;
    size_t hottest_zone = 0;
    for (size_t i = 0; i < zones.size(); ++i) {
      const Result<QueryRow>& response = answer.rows[i];
      O4A_CHECK(response.ok());
      acc.Add(response->value, RegionTruth(*dataset, zones[i], next_hour));
      worst_latency_ms =
          std::max(worst_latency_ms, response->response_micros / 1000.0);
      if (response->value > hottest) {
        hottest = response->value;
        hottest_zone = i;
      }
    }
    std::cout << "service: " << service.purpose << "\n"
              << "  zones served       : " << zones.size() << "\n"
              << "  next-hour RMSE     : " << acc.Rmse() << "\n"
              << "  next-hour MAPE     : " << acc.Mape() << "\n"
              << "  worst latency      : " << worst_latency_ms << " ms\n"
              << "  hottest zone       : #" << hottest_zone << " ("
              << zones[hottest_zone].Count() << " cells, predicted demand "
              << hottest << ")\n";
  }
  std::cout << "one model answered all three region specifications — no "
               "per-service retraining.\n";
  return 0;
}
