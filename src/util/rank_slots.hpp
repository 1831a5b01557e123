/// @file
/// Per-rank worker state on private cache lines.
///
/// util::parallel_for_ranked hands every team member a rank so it can
/// keep scratch buffers and counters without locks. In a plain
/// std::vector, small per-rank structs pack several ranks onto one
/// cache line, and each worker's writes then keep invalidating the line
/// in its peers' caches (false sharing): the work stays correct but
/// stops scaling with threads. RankSlots aligns and pads every rank's
/// state to whole cache lines instead.
///
/// The slot covers the struct itself. A heap buffer that a slot owns
/// (a std::vector member) is a separate allocation: size it on the
/// worker that writes it, so it comes from that thread's allocations
/// rather than next to a peer's.
#pragma once

#include <cstddef>
#include <vector>

namespace tgl::util {

/// Cache-line size of the targets this library builds for (x86-64 and
/// aarch64 Linux both use 64-byte lines).
inline constexpr std::size_t kCacheLineBytes = 64;

/// One value-initialized T per team rank, each on its own cache lines.
template <typename T>
class RankSlots
{
  public:
    explicit RankSlots(std::size_t ranks) : slots_(ranks) {}

    std::size_t size() const { return slots_.size(); }

    T& operator[](std::size_t rank) { return slots_[rank].value; }

    const T& operator[](std::size_t rank) const
    {
        return slots_[rank].value;
    }

  private:
    struct alignas(kCacheLineBytes) Slot
    {
        T value{};
    };
    std::vector<Slot> slots_;
};

} // namespace tgl::util
