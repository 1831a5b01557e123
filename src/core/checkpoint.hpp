/// @file
/// Crash-safe checkpoint/resume for the four-phase pipeline.
///
/// Each phase's artifact — the walk corpus after RW-P1, the embedding
/// after RW-P2, the trained classifier after RW-P4 — is persisted in
/// the CRC32-checksummed artifact container (util/artifact_io.hpp),
/// keyed by a fingerprint of everything that produced it: the input
/// edges, the phase's configuration, and all upstream fingerprints. On
/// restart the pipeline reloads whatever artifacts match the current
/// fingerprints and recomputes only what is missing, stale (the
/// configuration or input changed), or corrupt (checksum mismatch).
/// Stale and corrupt checkpoints are regenerated silently — a damaged
/// checkpoint directory can never make a run fail, only make it slower.
#pragma once

#include "core/data_prep.hpp"
#include "embed/embedding.hpp"
#include "embed/sgns_model.hpp"
#include "graph/edge_list.hpp"
#include "nn/mlp.hpp"
#include "util/artifact_io.hpp"
#include "walk/config.hpp"
#include "walk/corpus.hpp"
#include "walk/transition_cache.hpp"

#include <atomic>
#include <cstdint>
#include <string>

namespace tgl::core {

struct ClassifierConfig; // core/link_prediction.hpp (includes this file)

/// FNV-1a over the full edge list (count, endpoints, timestamps) — the
/// root of the checkpoint fingerprint chain.
std::uint64_t fingerprint_edges(const graph::EdgeList& edges);

/// Fold every semantically meaningful field of a configuration into a
/// fingerprint, field by field (never whole structs — padding bytes are
/// indeterminate). Fields that cannot change the produced artifact
/// (e.g. thread counts of deterministic phases) are excluded.
void mix_config(util::Fingerprint& fp, const walk::WalkConfig& config);
void mix_config(util::Fingerprint& fp, const embed::SgnsConfig& config);
void mix_config(util::Fingerprint& fp, const SplitConfig& config);
void mix_config(util::Fingerprint& fp, const ClassifierConfig& config);

/// Stores and restores phase artifacts in one directory.
///
/// load_* returns false — never throws, except to propagate
/// cooperative cancellation — when the artifact is missing, was
/// produced by a different configuration (fingerprint mismatch), or
/// fails container validation (truncation, corruption); the caller
/// regenerates and store_* replaces the file atomically. A load that
/// fails container validation additionally quarantines the damaged
/// file (rename to `<name>.corrupt.<ts>`) so the next run does not
/// trip over it, and transient I/O failures are retried with bounded
/// backoff before the load is declared failed.
class CheckpointManager
{
  public:
    /// Creates @p directory (and parents) when missing; throws
    /// tgl::util::Error when that fails.
    explicit CheckpointManager(std::string directory);

    const std::string& directory() const { return directory_; }

    std::string corpus_path() const;
    std::string embedding_path() const;
    std::string classifier_path(const std::string& name) const;
    std::string transition_cache_path() const;

    bool load_corpus(std::uint64_t fingerprint, walk::Corpus& out) const;
    void store_corpus(std::uint64_t fingerprint,
                      const walk::Corpus& corpus) const;

    /// The prefix-CDF transition cache is a derived artifact (O(E)
    /// doubles, O(E·exp) to rebuild) keyed by graph + transition kind
    /// only — reseeding the walk reuses it.
    bool load_transition_cache(std::uint64_t fingerprint,
                               walk::TransitionCache& out) const;
    void store_transition_cache(std::uint64_t fingerprint,
                                const walk::TransitionCache& cache) const;

    bool load_embedding(std::uint64_t fingerprint,
                        embed::Embedding& out) const;
    void store_embedding(std::uint64_t fingerprint,
                         const embed::Embedding& embedding) const;

    /// Restore trained weights into @p net; an architecture mismatch
    /// counts as stale (returns false), not an error.
    bool load_classifier(const std::string& name, std::uint64_t fingerprint,
                         nn::Mlp& net) const;
    void store_classifier(const std::string& name, std::uint64_t fingerprint,
                          nn::Mlp& net) const;

    /// Corrupt artifacts this manager renamed to *.corrupt.<ts>.
    unsigned
    quarantined_count() const
    {
        return quarantined_.load(std::memory_order_relaxed);
    }

    /// Artifacts this manager declared unusable and fell back to
    /// regenerating (quarantined or not).
    unsigned
    regenerated_count() const
    {
        return regenerated_.load(std::memory_order_relaxed);
    }

  private:
    template <typename Loader>
    bool load_checkpoint(const std::string& path, std::uint64_t fingerprint,
                         const char* what, const Loader& loader) const;

    std::string directory_;
    mutable std::atomic<unsigned> quarantined_{0};
    mutable std::atomic<unsigned> regenerated_{0};
};

/// Optional classifier-phase checkpoint hookup for the task runners.
/// When @p manager is set the runner tries to restore the trained
/// network before the training loop and persists it afterwards; the
/// out-flags report which of the two happened.
struct ClassifierCheckpoint
{
    const CheckpointManager* manager = nullptr;
    /// Artifact base name, e.g. "link-predictor".
    std::string name;
    /// Dependency fingerprint covering edges, every upstream phase, and
    /// the classifier configuration.
    std::uint64_t fingerprint = 0;
    bool loaded = false; ///< out: restored a matching artifact
    bool stored = false; ///< out: wrote a new artifact
};

} // namespace tgl::core
