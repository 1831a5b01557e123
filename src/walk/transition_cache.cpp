#include "walk/transition_cache.hpp"

#include "util/artifact_io.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "util/parallel_for.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace tgl::walk {

namespace {

constexpr std::string_view kCacheKind = "trcache";
constexpr std::uint32_t kCachePayloadVersion = 1;

} // namespace

TransitionCacheMode
parse_transition_cache_mode(const std::string& name)
{
    if (name == "off") {
        return TransitionCacheMode::kOff;
    }
    if (name == "on") {
        return TransitionCacheMode::kOn;
    }
    if (name == "auto") {
        return TransitionCacheMode::kAuto;
    }
    util::fatal(util::strcat("unknown transition-cache mode: ", name,
                             " (expected off | on | auto)"));
}

const char*
transition_cache_mode_name(TransitionCacheMode mode)
{
    switch (mode) {
      case TransitionCacheMode::kOff: return "off";
      case TransitionCacheMode::kOn: return "on";
      case TransitionCacheMode::kAuto: return "auto";
    }
    return "?";
}

bool
use_transition_cache(const WalkConfig& config,
                     const graph::TemporalGraph& graph)
{
    if (!config.temporal ||
        config.transition_cache == TransitionCacheMode::kOff) {
        // Static walks force the uniform transition, where the cache
        // is a pass-through with no table to amortize.
        return config.temporal &&
               config.transition_cache == TransitionCacheMode::kOn;
    }
    if (config.transition_cache == TransitionCacheMode::kOn) {
        return true;
    }
    if (config.transition == TransitionKind::kUniform ||
        graph.num_nodes() == 0) {
        return false;
    }
    const double mean_degree = static_cast<double>(graph.num_edges()) /
                               static_cast<double>(graph.num_nodes());
    return mean_degree >= kTransitionCacheAutoMeanDegree;
}

TransitionCache
TransitionCache::build(const graph::TemporalGraph& graph,
                       TransitionKind kind, unsigned num_threads)
{
    TransitionCache cache;
    cache.kind_ = kind;
    cache.num_nodes_ = graph.num_nodes();
    cache.num_edges_ = graph.num_edges();
    cache.rate_scale_ =
        graph.time_range() > 0.0 ? graph.time_range() : 1.0;

    if (kind != TransitionKind::kExponential &&
        kind != TransitionKind::kExponentialDecay) {
        return cache; // uniform / linear need no per-edge state
    }

    cache.prefix_.assign(graph.num_edges(), 0.0);
    const std::vector<graph::Neighbor>& neighbors = graph.neighbors();
    const std::vector<graph::EdgeId>& offsets = graph.offsets();
    const double r = cache.rate_scale_;
    util::parallel_for(
        0, graph.num_nodes(),
        [&](std::size_t u) {
            const graph::EdgeId begin = offsets[u];
            const graph::EdgeId end = offsets[u + 1];
            if (begin == end) {
                return;
            }
            // Shift by the slice extreme so every exponent is <= 0 and,
            // because |t - shift| <= graph timespan = r, >= -1: the
            // weights live in [e^-1, 1] and the running sum can neither
            // overflow nor underflow, whatever the raw timestamps are.
            const graph::Timestamp shift =
                kind == TransitionKind::kExponential
                    ? neighbors[end - 1].time
                    : neighbors[begin].time;
            double sum = 0.0;
            for (graph::EdgeId e = begin; e < end; ++e) {
                const double exponent =
                    kind == TransitionKind::kExponential
                        ? (neighbors[e].time - shift) / r
                        : -(neighbors[e].time - shift) / r;
                sum += std::exp(exponent);
                cache.prefix_[e] = sum;
            }
        },
        {.num_threads = num_threads});
    return cache;
}

TransitionCost
TransitionCache::build_cost() const
{
    TransitionCost cost;
    const std::uint64_t n = prefix_.size();
    // Per edge: timestamp load + prefix store + exp() constant loads,
    // exp() polynomial + subtract/scale/accumulate, loop test.
    cost.memory_ops = 3 * n;
    cost.compute_ops = 10 * n;
    cost.branch_ops = n;
    return cost;
}

std::size_t
TransitionCache::sample(const graph::TemporalGraph& graph, graph::NodeId u,
                        std::span<const graph::Neighbor> candidates,
                        graph::Timestamp now, rng::Random& random,
                        TransitionCost* cost) const
{
    const std::size_t m = candidates.size();
    if (m == 0) {
        return 0;
    }
    if (m == 1) {
        if (cost != nullptr) {
            cost->memory_ops += 1;
            cost->branch_ops += 1;
        }
        return 0;
    }

    switch (kind_) {
      case TransitionKind::kUniform: {
        if (cost != nullptr) {
            cost->compute_ops += 2;
            cost->branch_ops += 1;
        }
        return static_cast<std::size_t>(random.next_index(m));
      }
      case TransitionKind::kLinear: {
        // Invert the closed-form descending-rank CDF: smallest j with
        // C(j) > u * total. No memory traffic at all.
        const double target =
            random.next_double() * linear_cumulative(m, m - 1);
        std::size_t lo = 0;
        std::size_t hi = m - 1;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (linear_cumulative(m, mid) > target) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if (cost != nullptr) {
            const std::uint64_t probes = search_probes(m);
            cost->compute_ops += 4 * probes + 3;
            cost->branch_ops += probes;
        }
        return lo;
      }
      case TransitionKind::kExponential:
      case TransitionKind::kExponentialDecay: {
        // The candidate suffix maps to prefix_ indices
        // [first, first + m): candidates is a subspan of the vertex
        // slice that always extends to its end.
        TGL_DASSERT(prefix_.size() == graph.num_edges());
        const graph::Neighbor* slice_data = graph.neighbors().data();
        const auto first =
            static_cast<std::size_t>(candidates.data() - slice_data);
        const std::size_t slice_begin = graph.offsets()[u];
        TGL_DASSERT(first >= slice_begin);
        TGL_DASSERT(first + m <= graph.offsets()[u + 1]);
        const double base =
            first == slice_begin ? 0.0 : prefix_[first - 1];
        const double top = prefix_[first + m - 1];
        const double total = top - base;
        if (!(total > 0.0) || !std::isfinite(total)) {
            // Degenerate mass (should not happen for finite
            // timestamps; kept as a safety net): fall back to the
            // direct sampler, which recomputes weights per candidate.
            return sample_transition(candidates, now, rate_scale_,
                                     kind_, random, cost);
        }
        const double target = base + random.next_double() * total;
        const double* begin = prefix_.data() + first;
        const double* end = begin + m;
        const double* it = std::upper_bound(begin, end, target);
        if (it == end) {
            // target can round up to exactly `top` when the drawn
            // uniform is close to 1; the last candidate owns that
            // boundary.
            it = end - 1;
        }
        if (cost != nullptr) {
            const std::uint64_t probes = search_probes(m);
            cost->memory_ops += probes + 2; // probe loads + base/top
            cost->branch_ops += probes;
            cost->compute_ops += 3; // draw + scale + add
        }
        return static_cast<std::size_t>(it - begin);
      }
    }
    TGL_PANIC("unhandled transition kind");
}

void
TransitionCache::save_binary(std::ostream& out,
                             std::uint64_t fingerprint) const
{
    util::ArtifactWriter writer(out, kCacheKind, kCachePayloadVersion,
                                fingerprint);
    writer.write_pod<std::uint32_t>(static_cast<std::uint32_t>(kind_));
    writer.write_pod<double>(rate_scale_);
    writer.write_pod<std::uint64_t>(num_nodes_);
    writer.write_pod<std::uint64_t>(num_edges_);
    writer.write_pod<std::uint64_t>(prefix_.size());
    writer.write_bytes(prefix_.data(), prefix_.size() * sizeof(double));
    writer.finish();
}

void
TransitionCache::save_binary_file(const std::string& path,
                                  std::uint64_t fingerprint) const
{
    util::fault_point("transition_cache.save");
    util::atomic_write_file(
        path, [&](std::ostream& out) { save_binary(out, fingerprint); },
        /*binary=*/true);
}

TransitionCache
TransitionCache::load_binary(std::istream& in, std::uint64_t* fingerprint)
{
    util::ArtifactReader reader(in, kCacheKind);
    if (fingerprint != nullptr) {
        *fingerprint = reader.fingerprint();
    }
    if (reader.payload_version() != kCachePayloadVersion) {
        util::fatal(util::strcat(
            "transition-cache artifact: unsupported payload version ",
            reader.payload_version()));
    }
    TransitionCache cache;
    const auto kind = reader.read_pod<std::uint32_t>();
    if (kind > static_cast<std::uint32_t>(TransitionKind::kLinear)) {
        util::fatal(util::strcat(
            "transition-cache artifact: unknown transition kind ", kind));
    }
    cache.kind_ = static_cast<TransitionKind>(kind);
    cache.rate_scale_ = reader.read_pod<double>();
    if (!(cache.rate_scale_ > 0.0) || !std::isfinite(cache.rate_scale_)) {
        util::fatal("transition-cache artifact: invalid rate scale");
    }
    cache.num_nodes_ = reader.read_pod<std::uint64_t>();
    cache.num_edges_ = reader.read_pod<std::uint64_t>();
    const auto table_size = reader.read_pod<std::uint64_t>();
    if (table_size != 0 && table_size != cache.num_edges_) {
        util::fatal(util::strcat(
            "transition-cache artifact: table holds ", table_size,
            " entries for ", cache.num_edges_, " edges"));
    }
    if (reader.remaining() != table_size * sizeof(double)) {
        util::fatal(util::strcat(
            "transition-cache artifact: payload holds ",
            reader.remaining(), " bytes, header implies ",
            table_size * sizeof(double)));
    }
    cache.prefix_.resize(table_size);
    reader.read_bytes(cache.prefix_.data(), table_size * sizeof(double));
    for (const double value : cache.prefix_) {
        if (!std::isfinite(value)) {
            util::fatal(
                "transition-cache artifact: non-finite prefix value");
        }
    }
    return cache;
}

TransitionCache
TransitionCache::load_binary_file(const std::string& path,
                                  std::uint64_t* fingerprint)
{
    util::fault_point("transition_cache.load");
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        util::fatal(util::strcat("cannot open: ", path));
    }
    try {
        return load_binary(in, fingerprint);
    } catch (const util::Error& error) {
        // Direct file loads (CLI cache tooling) have no regeneration
        // path of their own, but quarantining the damaged file here
        // means the next pipeline run rebuilds instead of tripping
        // over it again.
        in.close();
        util::quarantine_artifact(path, error.what());
        throw;
    }
}

} // namespace tgl::walk
