#include "net/fault.h"

#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/rng.h"

namespace numdist::net {

namespace {

constexpr std::string_view kInjectedPrefix = "fault: injected ";

void SleepMs(uint64_t ms) {
  if (ms == 0) return;
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000L);
  while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

}  // namespace

FaultPlan FaultPlan::Resets(uint64_t seed, uint32_t count, uint64_t max_byte) {
  FaultPlan plan;
  Rng rng(seed);
  const uint64_t span = std::max<uint64_t>(max_byte, 2);
  for (uint32_t attempt = 0; attempt < count; ++attempt) {
    plan.Add(attempt, FaultEvent{.kind = FaultKind::kReset,
                                 .at_byte = 1 + rng.UniformInt(span - 1),
                                 .param = 0});
  }
  return plan;
}

void FaultPlan::Add(uint32_t attempt, FaultEvent event) {
  events_[attempt].push_back(event);
}

std::vector<FaultEvent> FaultPlan::Events(uint32_t attempt) const {
  const auto it = events_.find(attempt);
  if (it == events_.end()) return {};
  std::vector<FaultEvent> sorted = it->second;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_byte < b.at_byte;
                   });
  return sorted;
}

bool IsInjectedFault(const Status& status) {
  return status.message().rfind(kInjectedPrefix, 0) == 0;
}

FaultyWriter::FaultyWriter(Fd* fd, const FaultPlan* plan, uint32_t attempt)
    : fd_(fd) {
  if (plan != nullptr) events_ = plan->Events(attempt);
}

Status FaultyWriter::WriteClean(std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t wrote = send(fd_->get(), bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("net: send failed (") +
                              std::strerror(errno) + ")");
    }
    off += static_cast<size_t>(wrote);
  }
  offset_ += bytes.size();
  return Status::OK();
}

Status FaultyWriter::Write(std::string_view bytes) {
  while (!bytes.empty()) {
    if (drop_remaining_ > 0) {
      // A drop region can span Write calls: keep discarding until the
      // scripted byte count is gone.
      const size_t dropped =
          std::min<size_t>(bytes.size(), static_cast<size_t>(drop_remaining_));
      bytes = bytes.substr(dropped);
      offset_ += dropped;  // plan offsets address the logical stream
      drop_remaining_ -= dropped;
      continue;
    }
    if (next_event_ >= events_.size()) return WriteClean(bytes);
    const FaultEvent& event = events_[next_event_];
    if (event.at_byte >= offset_ + bytes.size()) return WriteClean(bytes);
    // Send the clean span up to the fault's offset, then fire it.
    const size_t clean = static_cast<size_t>(
        event.at_byte > offset_ ? event.at_byte - offset_ : 0);
    if (clean > 0) {
      NUMDIST_RETURN_NOT_OK(WriteClean(bytes.substr(0, clean)));
      bytes = bytes.substr(clean);
    }
    ++next_event_;
    ++injected_;
    switch (event.kind) {
      case FaultKind::kDelay:
        SleepMs(event.param);
        break;
      case FaultKind::kShortWrite:
        // The syscall boundary at at_byte already happened (the clean span
        // above ended exactly there); the delay gives the receiver a
        // chance to read the partial frame before the rest arrives.
        SleepMs(event.param);
        break;
      case FaultKind::kDrop:
        drop_remaining_ = event.param;
        break;
      case FaultKind::kTruncate:
        (void)shutdown(fd_->get(), SHUT_WR);
        return Status::Internal(
            std::string(kInjectedPrefix) + "truncation at byte " +
            std::to_string(offset_));
      case FaultKind::kReset:
        HardResetAndClose(fd_);
        return Status::Internal(std::string(kInjectedPrefix) +
                                "connection reset at byte " +
                                std::to_string(offset_));
    }
  }
  return Status::OK();
}

void HardResetAndClose(Fd* fd) {
  if (!fd->valid()) return;
  struct linger hard = {.l_onoff = 1, .l_linger = 0};
  (void)setsockopt(fd->get(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  fd->reset();
}

}  // namespace numdist::net
