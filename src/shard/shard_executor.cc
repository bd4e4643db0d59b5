#include "shard/shard_executor.h"

namespace one4all {

ShardExecutor::ShardExecutor(const RegionQueryServer* server,
                             ShardSet* shards)
    : server_(server), shards_(shards) {
  O4A_CHECK(server != nullptr);
  O4A_CHECK(shards != nullptr);
}

QueryResult ShardExecutor::Execute(const QueryPlan& plan,
                                   const ShardPinSet& pins,
                                   const ShardExecutorOptions& options) const {
  QueryExecutorOptions exec_options;
  exec_options.num_threads = options.num_threads;
  exec_options.pool = options.pool;
  exec_options.trace = options.trace;
  return QueryExecutor(server_).Execute(plan, shards_->Bands(pins),
                                        &shards_->map(), exec_options);
}

}  // namespace one4all
