/// Unit tests for crash-safe artifact I/O: CRC32, fingerprints, the
/// checksummed container, atomic file replacement, and the
/// fault-injection primitives backing the robustness suite.
#include "util/artifact_io.hpp"

#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace tgl::util {
namespace {

TEST(Crc32, MatchesKnownVectors)
{
    // The IEEE 802.3 check value for "123456789".
    const char check[] = "123456789";
    EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    const std::string data = "the quick brown fox jumps over the lazy dog";
    const std::uint32_t whole = crc32(data.data(), data.size());
    const std::uint32_t first = crc32(data.data(), 10);
    const std::uint32_t rest =
        crc32(data.data() + 10, data.size() - 10, first);
    EXPECT_EQ(rest, whole);
}

TEST(Fingerprint, OrderAndLengthSensitive)
{
    Fingerprint a;
    a.mix(std::string_view("ab")).mix(std::string_view("c"));
    Fingerprint b;
    b.mix(std::string_view("a")).mix(std::string_view("bc"));
    EXPECT_NE(a.value(), b.value());

    Fingerprint c;
    c.mix(std::uint32_t{1}).mix(std::uint32_t{2});
    Fingerprint d;
    d.mix(std::uint32_t{2}).mix(std::uint32_t{1});
    EXPECT_NE(c.value(), d.value());
}

TEST(Fingerprint, Deterministic)
{
    Fingerprint a;
    a.mix(std::uint64_t{42}).mix(std::string_view("walk"));
    Fingerprint b;
    b.mix(std::uint64_t{42}).mix(std::string_view("walk"));
    EXPECT_EQ(a.value(), b.value());
}

std::string
write_container(std::string_view kind, std::uint32_t version,
                std::uint64_t fingerprint, const std::string& payload)
{
    std::ostringstream out;
    ArtifactWriter writer(out, kind, version, fingerprint);
    writer.write_bytes(payload.data(), payload.size());
    writer.finish();
    return out.str();
}

TEST(Artifact, RoundTripPreservesEverything)
{
    const std::string blob =
        write_container("test", 3, 0xDEADBEEFu, "payload bytes");
    std::istringstream in(blob);
    ArtifactReader reader(in, "test");
    EXPECT_EQ(reader.payload_version(), 3u);
    EXPECT_EQ(reader.fingerprint(), 0xDEADBEEFu);
    ASSERT_EQ(reader.remaining(), 13u);
    std::string payload(13, '\0');
    reader.read_bytes(payload.data(), payload.size());
    EXPECT_EQ(payload, "payload bytes");
    EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Artifact, PodAndStringHelpers)
{
    std::ostringstream out;
    ArtifactWriter writer(out, "test", 1, 0);
    writer.write_pod(std::uint64_t{77});
    writer.write_string("hello");
    writer.write_pod(float{1.5f});
    writer.finish();

    std::istringstream in(out.str());
    ArtifactReader reader(in, "test");
    EXPECT_EQ(reader.read_pod<std::uint64_t>(), 77u);
    EXPECT_EQ(reader.read_string(), "hello");
    EXPECT_EQ(reader.read_pod<float>(), 1.5f);
}

TEST(Artifact, RejectsBadMagic)
{
    std::string blob = write_container("test", 1, 0, "data");
    blob[0] = 'X';
    std::istringstream in(blob);
    EXPECT_THROW(ArtifactReader(in, "test"), Error);
}

TEST(Artifact, RejectsKindMismatch)
{
    const std::string blob = write_container("test", 1, 0, "data");
    std::istringstream in(blob);
    EXPECT_THROW(ArtifactReader(in, "other"), Error);
}

TEST(Artifact, RejectsEmptyStream)
{
    std::istringstream in("");
    EXPECT_THROW(ArtifactReader(in, "test"), Error);
}

TEST(Artifact, RejectsTruncationAtEveryLength)
{
    const std::string blob = write_container("test", 1, 42, "payload");
    for (std::size_t length = 0; length < blob.size(); ++length) {
        std::istringstream in(blob.substr(0, length));
        EXPECT_THROW(ArtifactReader(in, "test"), Error)
            << "truncated to " << length << " bytes";
    }
}

TEST(Artifact, RejectsEveryPossibleByteFlip)
{
    // Whatever single byte rots, the reader must either throw
    // (corruption detected) or parse with the flip visible in the
    // fingerprint / payload-version fields — the two header fields the
    // container itself cannot vouch for (their owners validate them).
    // A successful parse must always return the original payload.
    const std::string blob = write_container("test", 1, 42, "payload");
    for (std::size_t i = 0; i < blob.size(); ++i) {
        std::string corrupt = blob;
        corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5A);
        std::istringstream in(corrupt);
        try {
            ArtifactReader reader(in, "test");
            EXPECT_TRUE(reader.fingerprint() != 42u ||
                        reader.payload_version() != 1u)
                << "byte " << i << " flip went unnoticed";
            std::string payload(reader.remaining(), '\0');
            reader.read_bytes(payload.data(), payload.size());
            EXPECT_EQ(payload, "payload") << "byte " << i;
        } catch (const Error&) {
            // Rejected — the expected outcome everywhere else.
        }
    }
}

TEST(Artifact, RejectsPayloadOverrun)
{
    const std::string blob = write_container("test", 1, 0, "abc");
    std::istringstream in(blob);
    ArtifactReader reader(in, "test");
    EXPECT_THROW(reader.read_pod<std::uint64_t>(), Error);
}

TEST(Artifact, RejectsOversizedKindTag)
{
    std::ostringstream out;
    EXPECT_THROW(ArtifactWriter(out, "much-too-long-kind", 1, 0), Error);
}

TEST(AtomicWrite, ReplacesContentAtomically)
{
    const std::string path =
        testing::TempDir() + "/tgl_atomic_write_test.txt";
    atomic_write_file(path,
                      [](std::ostream& out) { out << "first"; });
    atomic_write_file(path,
                      [](std::ostream& out) { out << "second"; });
    std::ifstream in(path);
    std::string content;
    std::getline(in, content);
    EXPECT_EQ(content, "second");
    std::filesystem::remove(path);
}

TEST(AtomicWrite, WriterExceptionLeavesOriginalIntact)
{
    const std::string path =
        testing::TempDir() + "/tgl_atomic_keep_test.txt";
    atomic_write_file(path, [](std::ostream& out) { out << "original"; });
    EXPECT_THROW(atomic_write_file(path,
                                   [](std::ostream& out) {
                                       out << "partial";
                                       throw Error("writer failed");
                                   }),
                 Error);
    std::ifstream in(path);
    std::string content;
    std::getline(in, content);
    EXPECT_EQ(content, "original");
    // No stray temporary may survive the failure.
    std::size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(path).parent_path())) {
        if (entry.path().filename().string().find(
                "tgl_atomic_keep_test.txt.tmp") != std::string::npos) {
            ++files;
        }
    }
    EXPECT_EQ(files, 0u);
    std::filesystem::remove(path);
}

TEST(AtomicWrite, UnwritableDirectoryThrows)
{
    EXPECT_THROW(atomic_write_file("/nonexistent-dir/file.txt",
                                   [](std::ostream& out) { out << "x"; }),
                 Error);
}

TEST(AtomicWrite, InjectedFaultBeforeRenameLeavesOriginal)
{
    const std::string path =
        testing::TempDir() + "/tgl_atomic_fault_test.txt";
    atomic_write_file(path, [](std::ostream& out) { out << "original"; });
    FailpointRegistry::configure("artifact_io.before-rename=error@1");
    EXPECT_THROW(atomic_write_file(
                     path, [](std::ostream& out) { out << "replacement"; }),
                 FaultInjected);
    FailpointRegistry::clear();
    std::ifstream in(path);
    std::string content;
    std::getline(in, content);
    EXPECT_EQ(content, "original");
    std::filesystem::remove(path);
}

TEST(FailAfterOStream, FailsExactlyAfterBudget)
{
    std::ostringstream target;
    FailAfterOStream out(target, 4);
    out << "abcd";
    EXPECT_TRUE(out.good());
    out << "e";
    EXPECT_FALSE(out.good());
    EXPECT_EQ(target.str(), "abcd");
}

TEST(FailAfterOStream, SavePathReportsStreamFailure)
{
    // A container write into a stream that runs out of space mid-way
    // must throw, not silently truncate.
    std::ostringstream target;
    FailAfterOStream out(target, 10);
    ArtifactWriter writer(out, "test", 1, 0);
    const std::string payload(256, 'x');
    writer.write_bytes(payload.data(), payload.size());
    EXPECT_THROW(writer.finish(), Error);
}

class FailpointRegistryTest : public testing::Test
{
  protected:
    void
    TearDown() override
    {
        FailpointRegistry::clear();
        reset_cancellation();
    }
};

/// Hit an armed 60 s delay site while another thread, once the sleep
/// has begun, runs @p interrupt; returns how long the hit took.
std::chrono::steady_clock::duration
interrupted_delay(const std::function<void()>& interrupt)
{
    FailpointRegistry::configure("test.stall=delay:60000ms");
    std::thread interrupter([&] {
        // The hit is counted under the registry lock before the sleep
        // starts, so the interrupt lands inside the sleep.
        while (FailpointRegistry::hits("test.stall") == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        interrupt();
    });
    const auto begin = std::chrono::steady_clock::now();
    const FailpointAction action = fault_point("test.stall");
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    interrupter.join();
    EXPECT_EQ(action, FailpointAction::kNone);
    return elapsed;
}

TEST_F(FailpointRegistryTest, ParsesMultiSiteSpec)
{
    FailpointRegistry::configure(
        "a.write=error@3;b.pop=delay:5ms;c.load=corrupt:p=0.5");
    EXPECT_TRUE(FailpointRegistry::active());
    const std::vector<std::string> armed =
        FailpointRegistry::armed_sites();
    ASSERT_EQ(armed.size(), 3u);
    EXPECT_EQ(armed[0], "a.write");
    EXPECT_EQ(armed[1], "b.pop");
    EXPECT_EQ(armed[2], "c.load");
    FailpointRegistry::clear();
    EXPECT_FALSE(FailpointRegistry::active());
}

TEST_F(FailpointRegistryTest, RejectsMalformedSpecs)
{
    EXPECT_THROW(FailpointRegistry::configure("no-equals"), Error);
    EXPECT_THROW(FailpointRegistry::configure("site="), Error);
    EXPECT_THROW(FailpointRegistry::configure("site=explode"), Error);
    EXPECT_THROW(FailpointRegistry::configure("site=delay"), Error);
    EXPECT_THROW(FailpointRegistry::configure("site=delay:xms"), Error);
    EXPECT_THROW(FailpointRegistry::configure("site=error@zero"), Error);
    EXPECT_THROW(FailpointRegistry::configure("site=corrupt:p=2"), Error);
    EXPECT_THROW(FailpointRegistry::configure("=error"), Error);
    // A malformed spec must leave the previous configuration armed.
    FailpointRegistry::configure("keep.me=error@5");
    EXPECT_THROW(FailpointRegistry::configure("broken"), Error);
    ASSERT_EQ(FailpointRegistry::armed_sites().size(), 1u);
    EXPECT_EQ(FailpointRegistry::armed_sites()[0], "keep.me");
}

TEST_F(FailpointRegistryTest, NthHitFiresOnceThenDeactivates)
{
    FailpointRegistry::configure("test.nth=error@2");
    fault_point("test.nth");
    EXPECT_THROW(fault_point("test.nth"), FaultInjected);
    // Deactivated after firing: later hits pass and stop counting.
    fault_point("test.nth");
    EXPECT_EQ(FailpointRegistry::hits("test.nth"), 2u);
}

TEST_F(FailpointRegistryTest, TransientActionThrowsRetryable)
{
    FailpointRegistry::configure("test.flaky=error:transient@1");
    EXPECT_THROW(fault_point("test.flaky"), TransientError);
    fault_point("test.flaky"); // @1 deactivated after firing
}

TEST_F(FailpointRegistryTest, CorruptActionReturnsVerdict)
{
    FailpointRegistry::configure("test.rot=corrupt");
    EXPECT_EQ(fault_point("test.rot"), FailpointAction::kCorrupt);
    EXPECT_EQ(fault_point("test.unarmed"), FailpointAction::kNone);
}

TEST_F(FailpointRegistryTest, DelayActionSleeps)
{
    FailpointRegistry::configure("test.slow=delay:20ms");
    const auto begin = std::chrono::steady_clock::now();
    EXPECT_EQ(fault_point("test.slow"), FailpointAction::kNone);
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(
                  elapsed).count(), 15);
}

TEST_F(FailpointRegistryTest, CancellationCutsDelayShort)
{
    const auto elapsed = interrupted_delay(
        [] { request_cancellation("unit test interrupt"); });
    EXPECT_LT(elapsed, std::chrono::seconds(1));
    EXPECT_TRUE(cancellation_requested());
}

TEST_F(FailpointRegistryTest, ClearCutsDelayShort)
{
    const auto elapsed =
        interrupted_delay([] { FailpointRegistry::clear(); });
    EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST_F(FailpointRegistryTest, ProbabilisticTriggerIsSeedDeterministic)
{
    const auto firing_pattern = [](std::uint64_t seed) {
        FailpointRegistry::configure("test.maybe=corrupt:p=0.5", seed);
        std::string pattern;
        for (int i = 0; i < 64; ++i) {
            pattern += fault_point("test.maybe") ==
                               FailpointAction::kCorrupt
                           ? '1'
                           : '0';
        }
        return pattern;
    };
    const std::string first = firing_pattern(7);
    EXPECT_EQ(first, firing_pattern(7));
    EXPECT_NE(first, firing_pattern(8));
    // p=0.5 over 64 draws: both outcomes must appear.
    EXPECT_NE(first.find('0'), std::string::npos);
    EXPECT_NE(first.find('1'), std::string::npos);
}

TEST_F(FailpointRegistryTest, CountsHitsPerSite)
{
    FailpointRegistry::configure("test.a=corrupt:p=0;test.b=corrupt:p=0");
    fault_point("test.a");
    fault_point("test.a");
    fault_point("test.b");
    EXPECT_EQ(FailpointRegistry::hits("test.a"), 2u);
    EXPECT_EQ(FailpointRegistry::hits("test.b"), 1u);
    EXPECT_EQ(FailpointRegistry::hits("test.unknown"), 0u);
}

TEST_F(FailpointRegistryTest, GenerationBumpsOnReconfigure)
{
    const std::uint64_t before = FailpointRegistry::generation();
    FailpointRegistry::configure("test.site=error@99");
    EXPECT_GT(FailpointRegistry::generation(), before);
    const std::uint64_t armed = FailpointRegistry::generation();
    FailpointRegistry::clear();
    EXPECT_GT(FailpointRegistry::generation(), armed);
}

TEST(Quarantine, RenamesCorruptArtifactAside)
{
    const std::string dir =
        testing::TempDir() + "/tgl_quarantine_test";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/artifact.bin";
    { std::ofstream(path) << "rotten"; }
    const std::string moved = quarantine_artifact(path, "unit test");
    EXPECT_FALSE(std::filesystem::exists(path));
    ASSERT_FALSE(moved.empty());
    EXPECT_TRUE(std::filesystem::exists(moved));
    EXPECT_NE(moved.find("artifact.bin.corrupt."), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Quarantine, MissingFileReturnsEmpty)
{
    EXPECT_TRUE(quarantine_artifact(
                    testing::TempDir() + "/tgl_quarantine_missing.bin",
                    "unit test")
                    .empty());
}

TEST(FailAfterStreambuf, ExactLimitWriteIsAcceptedThenNextFails)
{
    // A bulk write that lands exactly on the byte budget must succeed
    // in full; only the next byte fails.
    std::ostringstream target;
    FailAfterOStream out(target, 4);
    out.write("abcd", 4);
    EXPECT_TRUE(out.good());
    out.put('e');
    EXPECT_FALSE(out.good());
    EXPECT_EQ(target.str(), "abcd");
}

TEST(FailAfterStreambuf, StraddlingWriteForwardsOnlyRemaining)
{
    // A bulk write straddling the budget forwards the remaining bytes
    // and reports a short count, which ostream::write turns into
    // badbit — the partial-write shape real ENOSPC produces.
    std::ostringstream target;
    FailAfterOStream out(target, 4);
    out.write("abc", 3);
    EXPECT_TRUE(out.good());
    out.write("defg", 4);
    EXPECT_FALSE(out.good());
    EXPECT_EQ(target.str(), "abcd");
    // The budget is pinned at zero, not wrapped around: clearing the
    // stream and writing again must still forward nothing.
    out.clear();
    out.write("hi", 2);
    EXPECT_FALSE(out.good());
    EXPECT_EQ(target.str(), "abcd");
}

TEST(FailAfterStreambuf, ZeroBudgetRejectsFirstWrite)
{
    std::ostringstream target;
    FailAfterOStream out(target, 0);
    out.write("abc", 3);
    EXPECT_FALSE(out.good());
    EXPECT_TRUE(target.str().empty());
}

} // namespace
} // namespace tgl::util
