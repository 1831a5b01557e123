#include "walk/corpus.hpp"

#include "util/artifact_io.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

#include <fstream>
#include <ostream>

namespace tgl::walk {

void
Corpus::save(std::ostream& out) const
{
    for (std::size_t i = 0; i < num_walks(); ++i) {
        const auto w = walk(i);
        for (std::size_t j = 0; j < w.size(); ++j) {
            out << w[j] << (j + 1 == w.size() ? '\n' : ' ');
        }
    }
}

Corpus
Corpus::load(std::istream& in)
{
    Corpus corpus;
    std::string line;
    std::vector<graph::NodeId> walk;
    std::size_t line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        const auto trimmed = util::trim(line);
        if (trimmed.empty()) {
            continue;
        }
        walk.clear();
        for (const auto field : util::split(trimmed)) {
            const long long value = util::parse_int(field);
            if (value < 0) {
                util::fatal(util::strcat("corpus line ", line_number,
                                         ": negative node id"));
            }
            walk.push_back(static_cast<graph::NodeId>(value));
        }
        corpus.add_walk(walk);
    }
    return corpus;
}

void
Corpus::save_file(const std::string& path) const
{
    util::atomic_write_file(path,
                            [this](std::ostream& out) { save(out); });
}

Corpus
Corpus::load_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        util::fatal(util::strcat("cannot open: ", path));
    }
    return load(in);
}

namespace {

constexpr char kCorpusKind[] = "corpus";
constexpr std::uint32_t kCorpusPayloadVersion = 1;

} // namespace

void
Corpus::save_binary(std::ostream& out, std::uint64_t fingerprint) const
{
    util::ArtifactWriter writer(out, kCorpusKind, kCorpusPayloadVersion,
                                fingerprint);
    writer.write_pod<std::uint64_t>(num_walks());
    writer.write_pod<std::uint64_t>(num_tokens());
    // offsets_[0] is always 0 — store only the num_walks() tail.
    for (std::size_t i = 1; i < offsets_.size(); ++i) {
        writer.write_pod<std::uint64_t>(offsets_[i]);
    }
    writer.write_bytes(tokens_.data(),
                       tokens_.size() * sizeof(graph::NodeId));
    writer.finish();
}

Corpus
Corpus::load_binary(std::istream& in, std::uint64_t* fingerprint)
{
    util::ArtifactReader reader(in, kCorpusKind);
    if (reader.payload_version() != kCorpusPayloadVersion) {
        util::fatal(util::strcat(
            "corpus artifact: unsupported payload version ",
            reader.payload_version()));
    }
    const auto num_walks = reader.read_pod<std::uint64_t>();
    const auto num_tokens = reader.read_pod<std::uint64_t>();
    const std::size_t expected = num_walks * sizeof(std::uint64_t) +
                                 num_tokens * sizeof(graph::NodeId);
    if (reader.remaining() != expected) {
        util::fatal(util::strcat("corpus artifact: payload holds ",
                                 reader.remaining(),
                                 " bytes, header implies ", expected));
    }
    Corpus corpus;
    corpus.offsets_.reserve(num_walks + 1);
    std::uint64_t previous = 0;
    for (std::uint64_t i = 0; i < num_walks; ++i) {
        const auto offset = reader.read_pod<std::uint64_t>();
        if (offset < previous || offset > num_tokens) {
            util::fatal(util::strcat("corpus artifact: walk ", i,
                                     " has a non-monotone offset"));
        }
        previous = offset;
        corpus.offsets_.push_back(offset);
    }
    if (num_walks > 0 && previous != num_tokens) {
        util::fatal("corpus artifact: final offset != token count");
    }
    corpus.tokens_.resize(num_tokens);
    reader.read_bytes(corpus.tokens_.data(),
                      num_tokens * sizeof(graph::NodeId));
    if (fingerprint != nullptr) {
        *fingerprint = reader.fingerprint();
    }
    return corpus;
}

void
Corpus::save_binary_file(const std::string& path,
                         std::uint64_t fingerprint) const
{
    util::atomic_write_file(
        path,
        [&](std::ostream& out) { save_binary(out, fingerprint); },
        /*binary=*/true);
}

Corpus
Corpus::load_binary_file(const std::string& path,
                         std::uint64_t* fingerprint)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        util::fatal(util::strcat("cannot open: ", path));
    }
    return load_binary(in, fingerprint);
}

} // namespace tgl::walk
