//===----------------------------------------------------------------------===//
///
/// \file
/// Compatibility names for the threaded engine.
///
/// The threaded engine is `ShardedRuntime` (stm/ShardedRuntime.h); with
/// its default single shard it is the classic one-commit-point runtime.
/// The repository benchmark (`perfbench/`) is versioned apart from the
/// library and still names the engine and its config by their old
/// names, so this header keeps them as aliases. New code uses the
/// sharded names directly.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_THREADEDRUNTIME_H
#define JANUS_STM_THREADEDRUNTIME_H

#include "janus/stm/ShardedRuntime.h"

namespace janus {
namespace stm {

using ThreadedConfig = ShardedConfig;
using ThreadedRuntime = ShardedRuntime;

} // namespace stm
} // namespace janus

#endif // JANUS_STM_THREADEDRUNTIME_H
