// EnginePolicies: the one aggregate holding every shared policy struct —
// commit cadence/durability (CommitPolicy), admission limits
// (ConcurrencyPolicy), query-lane scheduling (QueryPolicy), the spatial
// subsystem's knobs (SpatialPolicy), and the multi-engine scale-out layout
// (ShardPolicy).
//
// Both execution backends embed one EnginePolicies as their `policies`
// member: db::EngineOptions (real threads) and client::ServerConfig
// (simulation). It is the only spelling of these knobs on either struct
// (`options.policies.concurrency.itl_slots_per_table = 7`,
// `config.policies.commit.commit_window = 2ms`), so tuning code hands one
// object across backends (`options.policies = config.policies`) and both
// structs keep their implicit copy semantics.
//
// Header-only; deliberately no describe() here — CommitPolicy::describe()
// is defined in the core library, and db/ headers embed this aggregate
// without linking core.
#pragma once

#include "core/commit_policy.h"
#include "core/concurrency_policy.h"
#include "core/query_policy.h"
#include "core/shard_policy.h"
#include "core/spatial_policy.h"

namespace sky::core {

struct EnginePolicies {
  CommitPolicy commit;
  ConcurrencyPolicy concurrency;
  QueryPolicy query;
  SpatialPolicy spatial;
  ShardPolicy shard;
};

}  // namespace sky::core
