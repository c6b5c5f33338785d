#include "core/sharding.hpp"

#include <algorithm>

#include "support/spec_text.hpp"
#include "support/thread_pool.hpp"

namespace rumor {

std::uint32_t resolve_shard_width(std::uint32_t shards_option) {
  if (shards_option == kShardsAuto) {
    const std::size_t workers = shard_pool().worker_count();
    return workers <= 1 ? 1
                        : static_cast<std::uint32_t>(
                              workers * kShardPartitionsPerWorker);
  }
  return std::max<std::uint32_t>(1, shards_option);
}

bool set_shards_option(std::uint32_t& field, std::string_view value) {
  if (value == "auto") {
    field = kShardsAuto;
    return true;
  }
  const auto v = spec_text::parse_u64(value);
  if (!v || *v == 0 || *v >= kShardsAuto) return false;
  field = static_cast<std::uint32_t>(*v);
  return true;
}

std::size_t inform_agents_on_source(TrialArena& arena,
                                   std::span<const Vertex> positions,
                                   Vertex source, std::uint32_t width) {
  auto& informed = arena.agent_inform_round;
  return tally_pass(arena, positions.size(), width,
                    [&](std::size_t a, TrialArena::ShardTally& tally) {
                      if (positions[a] != source) return;
                      informed.set(a, 0);
                      ++tally.informs;
                    })
      .informs;
}

void format_shards_option(std::uint32_t shards, std::uint32_t defaults,
                          spec_text::KeyValWriter& out) {
  if (shards == defaults) return;
  if (shards == kShardsAuto) {
    out.add("shards", std::string_view{"auto"});
  } else {
    out.add("shards", static_cast<std::uint64_t>(shards));
  }
}

}  // namespace rumor
