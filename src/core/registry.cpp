#include "core/registry.hpp"

#include "core/hybrid.hpp"
#include "core/meet_exchange.hpp"
#include "core/sharding.hpp"
#include "core/visit_exchange.hpp"
#include "support/assert.hpp"

namespace rumor {

SimulatorRegistry& SimulatorRegistry::instance() {
  static SimulatorRegistry registry;
  return registry;
}

SimulatorRegistry::SimulatorRegistry() {
  // Built-ins, in Protocol enum order. Each core module owns its entry.
  register_push_simulator(*this);
  register_push_pull_simulator(*this);
  register_visit_exchange_simulator(*this);
  register_meet_exchange_simulator(*this);
  register_hybrid_simulator(*this);
  register_frog_simulator(*this);
  register_dynamic_agent_simulator(*this);
  register_multi_rumor_simulators(*this);
  register_async_simulator(*this);
}

void SimulatorRegistry::add(SimulatorEntry entry) {
  RUMOR_REQUIRE(!entry.name.empty());
  RUMOR_REQUIRE(entry.run != nullptr);
  RUMOR_REQUIRE(entry.format_options != nullptr);
  RUMOR_REQUIRE(entry.set_option != nullptr);
  RUMOR_REQUIRE(entry.trace != nullptr);
  RUMOR_REQUIRE(find(entry.name) == nullptr);
  RUMOR_REQUIRE(find(entry.id) == nullptr);
  entries_.push_back(std::move(entry));
}

const SimulatorEntry* SimulatorRegistry::find(std::string_view name) const {
  for (const SimulatorEntry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

const SimulatorEntry* SimulatorRegistry::find(Protocol id) const {
  for (const SimulatorEntry& entry : entries_) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

const SimulatorEntry& SimulatorRegistry::at(Protocol id) const {
  const SimulatorEntry* entry = find(id);
  RUMOR_REQUIRE(entry != nullptr);
  return *entry;
}

void sharded_walk_entry_format(const ProtocolOptions& options,
                               const ProtocolOptions& defaults,
                               spec_text::KeyValWriter& out) {
  const auto& opt = std::get<WalkOptions>(options);
  const auto& def = std::get<WalkOptions>(defaults);
  format_walk_options(opt, def, out);
  format_shards_option(opt.shards, def.shards, out);
}

bool sharded_walk_entry_set(ProtocolOptions& options, std::string_view key,
                            std::string_view value) {
  auto& opt = std::get<WalkOptions>(options);
  if (key == "shards") return set_shards_option(opt.shards, value);
  return set_walk_option(opt, key, value);
}

}  // namespace rumor
