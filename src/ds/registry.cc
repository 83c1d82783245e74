#include "src/ds/registry.h"

namespace jiffy {

std::shared_ptr<DsState> DsRegistry::GetOrCreate(const std::string& job,
                                                 const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = states_[Key(job, prefix)];
  if (slot == nullptr) {
    slot = std::make_shared<DsState>();
  }
  return slot;
}

std::shared_ptr<DsState> DsRegistry::Find(const std::string& job,
                                          const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = states_.find(Key(job, prefix));
  return it == states_.end() ? nullptr : it->second;
}

void DsRegistry::RemoveJob(const std::string& job) {
  const std::string key_prefix = Key(job, "");
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(states_, [&](const auto& entry) {
    return entry.first.starts_with(key_prefix);
  });
}

size_t DsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_.size();
}

}  // namespace jiffy
