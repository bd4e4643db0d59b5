// Quickstart: the full One4All-ST workflow in ~80 lines.
//   1. Generate a citywide flow dataset (synthetic taxi workload).
//   2. Train the unified multi-scale network.
//   3. Run the offline combination search and build the quad-tree index.
//   4. Answer an arbitrary region query online.
#include <iostream>

#include "eval/task_eval.h"
#include "model/one4all_net.h"
#include "model/trainer.h"
#include "query/query_executor.h"
#include "query/query_planner.h"

using namespace one4all;

int main() {
  // -- 1. Data: a 16x16 city raster, hierarchy P = {1,2,4,8,16}. ---------
  SyntheticDataOptions data_options =
      SyntheticDataOptions::TaxiPreset(16, 16);
  data_options.num_timesteps = 24 * 7 * 6;  // six weeks, hourly
  auto flows = GenerateSyntheticFlows(data_options);
  if (!flows.ok()) {
    std::cerr << flows.status().ToString() << "\n";
    return 1;
  }
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, /*k=*/2, /*max=*/16);
  auto dataset = STDataset::Create(flows.MoveValueUnsafe(), hierarchy,
                                   TemporalFeatureSpec{});
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  std::cout << "dataset ready: " << dataset->hierarchy().ToString() << "\n";

  // -- 2. Train the unified model (small demo budget). -------------------
  One4AllNetOptions net_options;
  net_options.channels = 8;
  One4AllNet net(dataset->hierarchy(), dataset->spec(), net_options);
  TrainOptions train_options;
  train_options.epochs = 12;
  train_options.learning_rate = 3e-3f;
  train_options.verbose = true;
  TrainModel(
      &net, *dataset,
      [&net](const STDataset& ds, const std::vector<int64_t>& batch) {
        return net.Loss(ds, batch);
      },
      train_options);
  std::cout << "trained One4All-ST with " << net.NumParameters()
            << " parameters\n";

  // -- 3. Offline search + index + online store, bundled by MauPipeline. -
  auto pipeline = MauPipeline::Build(&net, *dataset, SearchOptions{});
  std::cout << "combination search done in "
            << pipeline->search_seconds() * 1e3 << " ms; index holds "
            << pipeline->index().MeasureSize().num_nodes << " nodes\n";

  // -- 4. An ad-hoc region query: an L-shaped district. -------------------
  GridMask district(16, 16);
  district.FillRect(2, 2, 10, 10);
  district.ClearRect(2, 2, 6, 6);  // carve out the corner -> L shape
  const int64_t when = dataset->test_indices()[0];
  auto plan = QueryPlanner(&dataset->hierarchy())
                  .Plan(QuerySpec::PointInTime(district, when));
  if (!plan.ok()) {
    std::cerr << plan.status().ToString() << "\n";
    return 1;
  }
  const Result<QueryRow> response =
      QueryExecutor(&pipeline->server()).Execute(*plan).rows[0];
  if (!response.ok()) {
    std::cerr << response.status().ToString() << "\n";
    return 1;
  }
  std::cout << "region query (" << district.Count() << " cells) at t="
            << when << ":\n  predicted flow = " << response->value
            << "\n  actual flow    = " << RegionTruth(*dataset, district, when)
            << "\n  response time  = " << response->response_micros
            << " us (" << response->num_pieces << " pieces, "
            << response->num_terms << " terms)\n";
  return 0;
}
