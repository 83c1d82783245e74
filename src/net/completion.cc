#include "src/net/completion.h"

#include "src/common/logging.h"

namespace jiffy {

CompletionWindow::CompletionWindow(size_t depth) : depth_(depth) {}

uint64_t CompletionWindow::Begin(size_t n) {
  JIFFY_CHECK(n >= 1 && (depth_ == 0 || n <= depth_));
  std::unique_lock<std::mutex> lock(mu_);
  cv_slot_.wait(lock,
                [this, n] { return depth_ == 0 || outstanding_ + n <= depth_; });
  outstanding_ += n;
  if (outstanding_ > high_water_) {
    high_water_ = outstanding_;
  }
  const uint64_t first = next_tag_;
  next_tag_ += n;
  return first;
}

void CompletionWindow::Complete(uint64_t tag, Status status) {
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!status.ok()) {
      errors_.emplace(tag, std::move(status));
    }
    --outstanding_;
    drained = outstanding_ == 0;
  }
  // Every waiter re-checks: one freed slot may satisfy a single-tag waiter
  // but not a batch waiting for several, so notify_one could wake the
  // wrong one and strand the other.
  cv_slot_.notify_all();
  if (drained) {
    cv_drain_.notify_all();
  }
}

Status CompletionWindow::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_drain_.wait(lock, [this] { return outstanding_ == 0; });
  // Leaves the error set intact: callers that need per-tag resolution call
  // TakeErrors() after Drain, which consumes (and clears) the set.
  if (!errors_.empty()) {
    return errors_.begin()->second;
  }
  return Status::Ok();
}

std::vector<TaggedStatus> CompletionWindow::TakeErrors() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TaggedStatus> out;
  out.reserve(errors_.size());
  for (auto& [tag, st] : errors_) {
    out.push_back(TaggedStatus{tag, std::move(st)});
  }
  errors_.clear();
  return out;
}

size_t CompletionWindow::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outstanding_;
}

size_t CompletionWindow::max_in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

}  // namespace jiffy
