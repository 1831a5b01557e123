/// Unit tests for the thread pool and parallel loop primitives.
#include "util/parallel_for.hpp"
#include "util/rank_slots.hpp"
#include "util/thread_pool.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace tgl::util {
namespace {

TEST(ThreadPool, RunsEveryRankExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(4);
    pool.run(4, [&](unsigned rank) { hits[rank].fetch_add(1); });
    for (const auto& hit : hits) {
        EXPECT_EQ(hit.load(), 1);
    }
}

TEST(ThreadPool, PartiesClampedToPoolSize)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.run(100, [&](unsigned rank) {
        EXPECT_LT(rank, 2u);
        count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, SinglePartyRunsInline)
{
    ThreadPool pool(4);
    const auto caller = std::this_thread::get_id();
    std::thread::id executed;
    pool.run(1, [&](unsigned) { executed = std::this_thread::get_id(); });
    EXPECT_EQ(executed, caller);
}

TEST(ThreadPool, ZeroPartiesIsNoop)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.run(0, [&](unsigned) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesWorkerException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.run(4,
                 [&](unsigned rank) {
                     if (rank == 2) {
                         throw std::runtime_error("boom");
                     }
                 }),
        std::runtime_error);
    // Pool must remain usable after an exception.
    std::atomic<int> count{0};
    pool.run(4, [&](unsigned) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, ReusableAcrossManyRuns)
{
    ThreadPool pool(3);
    std::atomic<int> total{0};
    for (int i = 0; i < 50; ++i) {
        pool.run(3, [&](unsigned) { total.fetch_add(1); });
    }
    EXPECT_EQ(total.load(), 150);
}

TEST(ParallelFor, CoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(0, hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (const auto& hit : hits) {
        EXPECT_EQ(hit.load(), 1);
    }
}

TEST(ParallelFor, RespectsRange)
{
    std::atomic<std::uint64_t> sum{0};
    parallel_for(10, 20, [&](std::size_t i) {
        sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 145u); // 10 + ... + 19
}

TEST(ParallelFor, EmptyRangeIsNoop)
{
    bool ran = false;
    parallel_for(5, 5, [&](std::size_t) { ran = true; });
    parallel_for(7, 3, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelFor, SingleThreadOptionIsSequential)
{
    std::vector<std::size_t> order;
    parallel_for(
        0, 100, [&](std::size_t i) { order.push_back(i); },
        {.num_threads = 1});
    ASSERT_EQ(order.size(), 100u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(ParallelForRanked, RanksWithinTeam)
{
    std::atomic<unsigned> max_rank{0};
    const unsigned team = parallel_for_ranked(
        0, 10000,
        [&](std::size_t, unsigned rank) {
            unsigned seen = max_rank.load();
            while (rank > seen &&
                   !max_rank.compare_exchange_weak(seen, rank)) {
            }
        },
        {.num_threads = 4});
    EXPECT_LE(team, 4u);
    EXPECT_LT(max_rank.load(), team);
}

TEST(ParallelReduceSum, MatchesSerialSum)
{
    const double total = parallel_reduce_sum(
        0, 100000, [](std::size_t i) { return static_cast<double>(i); });
    EXPECT_DOUBLE_EQ(total, 99999.0 * 100000.0 / 2.0);
}

TEST(ParallelReduceSum, EmptyRangeIsZero)
{
    EXPECT_DOUBLE_EQ(
        parallel_reduce_sum(3, 3, [](std::size_t) { return 1.0; }), 0.0);
}

TEST(DefaultThreads, SetAndRestore)
{
    const unsigned original = default_threads();
    set_default_threads(3);
    EXPECT_EQ(default_threads(), 3u);
    set_default_threads(0);
    EXPECT_EQ(default_threads(), original);
}

TEST(ParallelFor, GrainLargerThanRange)
{
    std::vector<std::atomic<int>> hits(10);
    parallel_for(
        0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
        {.grain = 1000});
    for (const auto& hit : hits) {
        EXPECT_EQ(hit.load(), 1);
    }
}

TEST(ParallelFor, ExceptionPropagatesAndCancelsRemainingWork)
{
    // 10M iterations, 4 threads, explicit grain: after the throw at
    // iteration 0, peers hold at most ~one in-flight chunk each, so the
    // executed count must stay far below the full range. Without
    // cooperative cancellation every iteration would still run.
    constexpr std::size_t n = 10'000'000;
    std::atomic<std::size_t> executed{0};
    EXPECT_THROW(
        parallel_for(
            0, n,
            [&](std::size_t i) {
                if (i == 0) {
                    throw std::runtime_error("boom");
                }
                executed.fetch_add(1, std::memory_order_relaxed);
            },
            {.num_threads = 4, .grain = 1000}),
        std::runtime_error);
    EXPECT_LT(executed.load(), 100'000u);
}

TEST(ParallelForRanked, ExceptionPropagatesAndCancelsRemainingWork)
{
    constexpr std::size_t n = 10'000'000;
    std::atomic<std::size_t> executed{0};
    EXPECT_THROW(
        parallel_for_ranked(
            0, n,
            [&](std::size_t i, unsigned) {
                if (i == 0) {
                    throw std::runtime_error("boom");
                }
                executed.fetch_add(1, std::memory_order_relaxed);
            },
            {.num_threads = 4, .grain = 1000}),
        std::runtime_error);
    EXPECT_LT(executed.load(), 100'000u);
}

TEST(ParallelReduceSum, ExceptionPropagatesAndCancelsRemainingWork)
{
    constexpr std::size_t n = 10'000'000;
    std::atomic<std::size_t> executed{0};
    EXPECT_THROW(
        parallel_reduce_sum(
            0, n,
            [&](std::size_t i) -> double {
                if (i == 0) {
                    throw std::runtime_error("boom");
                }
                executed.fetch_add(1, std::memory_order_relaxed);
                return 1.0;
            },
            {.num_threads = 4, .grain = 1000}),
        std::runtime_error);
    EXPECT_LT(executed.load(), 100'000u);
}

TEST(ParallelFor, PoolUsableAfterCancelledLoop)
{
    EXPECT_THROW(
        parallel_for(
            0, 100'000,
            [&](std::size_t i) {
                if (i == 0) {
                    throw std::runtime_error("boom");
                }
            },
            {.num_threads = 4, .grain = 10}),
        std::runtime_error);
    std::atomic<std::size_t> count{0};
    parallel_for(
        0, 1000,
        [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); },
        {.num_threads = 4});
    EXPECT_EQ(count.load(), 1000u);
}

/// First and last cache line a rank's slot occupies.
template <typename T>
std::pair<std::uintptr_t, std::uintptr_t>
slot_lines(const RankSlots<T>& slots, std::size_t rank)
{
    const auto begin = reinterpret_cast<std::uintptr_t>(&slots[rank]);
    return {begin / kCacheLineBytes,
            (begin + sizeof(T) - 1) / kCacheLineBytes};
}

template <typename T>
void
expect_private_lines(const RankSlots<T>& slots)
{
    for (std::size_t rank = 0; rank < slots.size(); ++rank) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&slots[rank]) %
                      kCacheLineBytes,
                  0u)
            << "rank " << rank;
        for (std::size_t other = rank + 1; other < slots.size(); ++other) {
            const auto [first, last] = slot_lines(slots, rank);
            const auto [other_first, other_last] = slot_lines(slots, other);
            EXPECT_TRUE(last < other_first || other_last < first)
                << "ranks " << rank << " and " << other
                << " share a cache line";
        }
    }
}

TEST(RankSlots, EachRankOwnsAlignedPrivateCacheLines)
{
    // A bare counter, a struct spanning two lines, and the SGNS/walk
    // pattern of counters next to a heap buffer's header.
    struct TwoLines
    {
        char bytes[kCacheLineBytes + 8];
    };
    struct Counters
    {
        std::vector<int> buffer;
        std::uint64_t count = 0;
    };
    expect_private_lines(RankSlots<std::uint64_t>(8));
    expect_private_lines(RankSlots<TwoLines>(5));
    expect_private_lines(RankSlots<Counters>(4));
}

TEST(RankSlots, ValueInitializesAndKeepsPerRankState)
{
    RankSlots<std::uint64_t> counts(4);
    for (std::size_t rank = 0; rank < counts.size(); ++rank) {
        EXPECT_EQ(counts[rank], 0u);
    }
    parallel_for_ranked(
        0, 1000, [&](std::size_t, unsigned rank) { ++counts[rank]; },
        {.num_threads = 4});
    std::uint64_t total = 0;
    for (std::size_t rank = 0; rank < counts.size(); ++rank) {
        total += counts[rank];
    }
    EXPECT_EQ(total, 1000u);
}

TEST(HostInfo, SaneValuesAndCachedSummary)
{
    const HostInfo& info = host_info();
    EXPECT_GE(info.hardware_threads, 1u);
    EXPECT_GT(info.l1d_bytes, 0u);
    EXPECT_GT(info.llc_bytes, info.l1d_bytes);
    EXPECT_GE(info.cache_line_bytes, 16u);
    const std::string summary = host_summary();
    EXPECT_NE(summary.find("host:"), std::string::npos);
    EXPECT_NE(summary.find("hw threads"), std::string::npos);
    // Cached: identical across calls.
    EXPECT_EQ(&host_info(), &info);
}

TEST(Logging, LevelsFilterMessages)
{
    const LogLevel original = log_level();
    set_log_level(LogLevel::kQuiet);
    EXPECT_EQ(log_level(), LogLevel::kQuiet);
    inform("suppressed"); // must not crash while filtered
    warn("suppressed");
    set_log_level(original);
}

TEST(Logging, StrcatEdgeCases)
{
    EXPECT_EQ(strcat(), "");
    EXPECT_EQ(strcat(""), "");
    EXPECT_EQ(strcat(1, 2, 3), "123");
}

} // namespace
} // namespace tgl::util
