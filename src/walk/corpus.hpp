/// @file
/// Walk corpus: the variable-length "sentences" handed to word2vec.
///
/// The paper stores walks in a dense |V| x K x N matrix; because real
/// temporal walks terminate early (Fig. 4: most are 1-5 tokens), a
/// ragged offsets+tokens layout wastes no space and is exactly the
/// sentence stream the skip-gram trainer consumes.
#pragma once

#include "graph/types.hpp"

#include <cstddef>
#include <iosfwd>
#include <string>
#include <span>
#include <vector>

namespace tgl::walk {

/// Append-only store of node-id sequences.
class Corpus
{
  public:
    Corpus() { offsets_.push_back(0); }

    /// Append one walk.
    void
    add_walk(std::span<const graph::NodeId> walk)
    {
        tokens_.insert(tokens_.end(), walk.begin(), walk.end());
        offsets_.push_back(tokens_.size());
    }

    /// Number of walks stored.
    std::size_t num_walks() const { return offsets_.size() - 1; }

    /// Total node tokens across all walks.
    std::size_t num_tokens() const { return tokens_.size(); }

    /// Walk i as a span.
    std::span<const graph::NodeId>
    walk(std::size_t i) const
    {
        return {tokens_.data() + offsets_[i],
                tokens_.data() + offsets_[i + 1]};
    }

    /// Length (token count) of walk i.
    std::size_t
    walk_length(std::size_t i) const
    {
        return offsets_[i + 1] - offsets_[i];
    }

    /// Move another corpus's walks onto the end of this one.
    void append(Corpus&& other);

    /// Raw flat access for trainers.
    const std::vector<graph::NodeId>& tokens() const { return tokens_; }
    const std::vector<std::size_t>& offsets() const { return offsets_; }

    /// Text serialization: one space-separated walk per line (the
    /// sentence format word2vec tooling expects). save_file replaces
    /// the target atomically (temp file + rename).
    void save(std::ostream& out) const;
    static Corpus load(std::istream& in);
    void save_file(const std::string& path) const;
    static Corpus load_file(const std::string& path);

    /// Binary serialization in the CRC32-checksummed artifact container
    /// (util/artifact_io.hpp, kind "corpus"). load_binary rejects
    /// truncated, corrupt, or version-mismatched files with a
    /// tgl::util::Error; @p fingerprint keys the artifact to the walk
    /// configuration that produced it (checkpointing).
    void save_binary(std::ostream& out, std::uint64_t fingerprint = 0) const;
    static Corpus load_binary(std::istream& in,
                              std::uint64_t* fingerprint = nullptr);
    /// Atomic (temp file + rename) binary file write.
    void save_binary_file(const std::string& path,
                          std::uint64_t fingerprint = 0) const;
    static Corpus load_binary_file(const std::string& path,
                                   std::uint64_t* fingerprint = nullptr);

    void
    reserve(std::size_t walks, std::size_t tokens)
    {
        offsets_.reserve(walks + 1);
        tokens_.reserve(tokens);
    }

  private:
    std::vector<graph::NodeId> tokens_;
    std::vector<std::size_t> offsets_; // size num_walks()+1, first is 0
};

} // namespace tgl::walk
