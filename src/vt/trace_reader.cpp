#include "vt/trace_reader.hpp"

#include <algorithm>

#include "support/common.hpp"

namespace dyntrace::vt {

BlockRunCursor::BlockRunCursor(const std::string& path, std::uint64_t offset,
                               std::uint64_t count, bool whole_file)
    : path_(path),
      in_(path, std::ios::binary),
      remaining_(count),
      declared_(count),
      whole_file_(whole_file) {
  DT_EXPECT(in_.good(), "cannot open trace file '", path_, "'");
  in_.seekg(static_cast<std::streamoff>(offset));
  DT_EXPECT(in_.good(), path_, ": cannot seek to block offset ", offset);
}

void BlockRunCursor::open_next_block() {
  block_.resize(kBlockHeaderBytes);
  in_.read(reinterpret_cast<char*>(block_.data()),
           static_cast<std::streamsize>(kBlockHeaderBytes));
  DT_EXPECT(static_cast<std::size_t>(in_.gcount()) == kBlockHeaderBytes, path_,
            ": truncated block header (expected ", remaining_, " more record(s))");
  const std::uint32_t payload_len = get_u32_le(block_.data() + 8);
  DT_EXPECT(payload_len <= kMaxBlockPayloadBytes, path_, ": oversize block (",
            payload_len, " payload bytes)");
  block_.resize(kBlockHeaderBytes + payload_len);
  in_.read(reinterpret_cast<char*>(block_.data() + kBlockHeaderBytes),
           static_cast<std::streamsize>(payload_len));
  DT_EXPECT(static_cast<std::size_t>(in_.gcount()) == payload_len, path_,
            ": truncated block payload (expected ", remaining_, " more record(s))");
  std::size_t block_bytes = 0;
  std::uint32_t record_count = 0;
  const bool framed = decoder_.reset(block_.data(), block_.size(), &block_bytes, &record_count);
  DT_EXPECT(framed || decoder_.failed(), path_,
            ": corrupt block (bad magic or CRC mismatch) with ", remaining_,
            " record(s) expected");
  DT_EXPECT(framed, path_, ": malformed block dictionary (an id outside int32?) with ",
            remaining_, " record(s) expected");
  chunk_.resize(record_count);
  const std::uint32_t drained = decoder_.drain(chunk_.data(), record_count);
  DT_EXPECT(drained == record_count && !decoder_.failed(), path_,
            ": malformed block payload with ", remaining_, " record(s) expected");
  if (whole_file_) {
    // A trace file's pids index analysis tables (a spill run's are its own
    // shard's), so a negative one fails here rather than after narrowing.
    for (std::uint32_t i = 0; i < record_count; ++i) {
      DT_EXPECT(chunk_[i].pid >= 0, path_, ": record ", declared_ - remaining_ + i,
                " has negative pid ", chunk_[i].pid);
    }
  }
  chunk_pos_ = 0;
}

void BlockRunCursor::check_whole_file() {
  whole_file_ = false;  // report once
  const std::size_t undrained = chunk_.size() - chunk_pos_;
  DT_EXPECT(undrained == 0, path_, ": trace payload does not match header (", declared_,
            " record(s) declared, but the last block holds ", undrained, " more)");
  DT_EXPECT(in_.peek() == std::ifstream::traits_type::eof(), path_,
            ": trace payload does not match header (", declared_,
            " record(s) declared, but bytes follow the last block)");
}

bool BlockRunCursor::next(Event& out) {
  if (remaining_ == 0) {
    if (whole_file_) check_whole_file();
    return false;
  }
  while (chunk_pos_ >= chunk_.size()) open_next_block();  // tolerates empty blocks
  out = chunk_[chunk_pos_++];
  --remaining_;
  return true;
}

bool MergeCursor::after(std::uint32_t a, std::uint32_t b) const {
  // EventOrder reversed, compared field by field once, then the slot index.
  const Event& x = slots_[a];
  const Event& y = slots_[b];
  if (x.time != y.time) return x.time > y.time;
  if (x.pid != y.pid) return x.pid > y.pid;
  if (x.tid != y.tid) return x.tid > y.tid;
  return a > b;
}

MergeCursor::MergeCursor(std::vector<std::unique_ptr<EventCursor>> inputs)
    : inputs_(std::move(inputs)) {
  slots_.resize(inputs_.size());
  heap_.reserve(inputs_.size());
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i]->next(slots_[i])) heap_.push_back(static_cast<std::uint32_t>(i));
  }
  const auto later = [this](std::uint32_t a, std::uint32_t b) { return after(a, b); };
  // std::*_heap with a "comes later" comparator keeps the earliest slot at
  // the front.  Invert by using it as a max-heap of "later" elements.
  std::make_heap(heap_.begin(), heap_.end(), later);
}

void MergeCursor::sift_down() {
  const std::size_t n = heap_.size();
  const std::uint32_t moving = heap_[0];
  std::size_t i = 0;
  while (true) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    std::size_t earliest = left;
    const std::size_t right = left + 1;
    if (right < n && after(heap_[left], heap_[right])) earliest = right;
    if (!after(moving, heap_[earliest])) break;
    heap_[i] = heap_[earliest];  // hole technique: indices move, not events
    i = earliest;
  }
  heap_[i] = moving;
}

bool MergeCursor::next(Event& out) {
  if (heap_.empty()) return false;
  // The comparator is a strict total order (EventOrder + slot index), so the
  // emitted sequence is independent of how the heap restores itself: replace
  // the root's head in place and sift once, rather than pop + re-push.
  const std::uint32_t top = heap_[0];
  out = slots_[top];
  if (inputs_[top]->next(slots_[top])) {
    sift_down();
  } else {
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down();
  }
  return true;
}

std::unique_ptr<EventCursor> merge_runs(std::vector<std::unique_ptr<EventCursor>> runs) {
  if (runs.size() == 1) return std::move(runs.front());
  return std::make_unique<MergeCursor>(std::move(runs));
}

std::vector<Event> collect(EventCursor& cursor) {
  std::vector<Event> out;
  Event e;
  while (cursor.next(e)) out.push_back(e);
  return out;
}

}  // namespace dyntrace::vt
