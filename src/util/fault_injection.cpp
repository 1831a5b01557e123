#include "util/fault_injection.hpp"

#include "obs/metrics.hpp"
#include "rng/splitmix64.hpp"
#include "util/cancellation.hpp"
#include "util/logging.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace tgl::util {

namespace {

enum class Kind : std::uint8_t { kError, kTransient, kDelay, kCorrupt };

struct Site
{
    Kind kind = Kind::kError;
    std::uint64_t nth = 0; ///< 0 = trigger on every hit
    double probability = 1.0;
    std::chrono::milliseconds delay{0};
    rng::SplitMix64 rng{0};
    std::uint64_t hits = 0;
    bool active = true;
    obs::Counter counter;
};

// The fast path (nothing armed) must stay a single relaxed load; the
// slow path takes a mutex so configure/hit races stay well-defined.
std::atomic<std::uint64_t> g_active_sites{0};
std::atomic<std::uint64_t> g_generation{0};
std::mutex g_mutex;
std::map<std::string, Site> g_sites; // guarded by g_mutex

std::uint64_t
fnv1a(const std::string& text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(
                              text[begin]))) {
        ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(
                              text[end - 1]))) {
        --end;
    }
    return std::string(text.substr(begin, end - begin));
}

std::vector<std::string>
split(std::string_view text, char separator)
{
    std::vector<std::string> parts;
    std::size_t begin = 0;
    while (begin <= text.size()) {
        const std::size_t end = text.find(separator, begin);
        if (end == std::string_view::npos) {
            parts.emplace_back(text.substr(begin));
            break;
        }
        parts.emplace_back(text.substr(begin, end - begin));
        begin = end + 1;
    }
    return parts;
}

[[noreturn]] void
spec_error(const std::string& entry, const std::string& why)
{
    fatal(strcat("invalid failpoint spec entry \"", entry, "\": ", why,
                 " (grammar: site=action[:param][@N]; actions error, "
                 "error:transient, delay:<N>ms, corrupt; "
                 "triggers @N, p=<float>)"));
}

bool
parse_uint(const std::string& text, std::uint64_t& value)
{
    if (text.empty()) {
        return false;
    }
    value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9') {
            return false;
        }
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return true;
}

/// Parse one "site=action[:param][@N]" entry into a named Site.
std::pair<std::string, Site>
parse_entry(const std::string& raw, std::uint64_t seed)
{
    const std::string entry = trim(raw);
    const std::size_t equals = entry.find('=');
    if (equals == std::string::npos || equals == 0) {
        spec_error(entry, "expected site=action");
    }
    const std::string name = trim(entry.substr(0, equals));
    std::string action = trim(entry.substr(equals + 1));
    if (name.empty() || action.empty()) {
        spec_error(entry, "empty site or action");
    }

    Site site;
    const std::size_t at = action.rfind('@');
    if (at != std::string::npos) {
        if (!parse_uint(action.substr(at + 1), site.nth) ||
            site.nth == 0) {
            spec_error(entry, "@N needs a positive integer");
        }
        action = trim(action.substr(0, at));
    }

    const std::vector<std::string> tokens = split(action, ':');
    const std::string& verb = tokens.front();
    if (verb == "error") {
        site.kind = Kind::kError;
    } else if (verb == "delay") {
        site.kind = Kind::kDelay;
    } else if (verb == "corrupt") {
        site.kind = Kind::kCorrupt;
    } else {
        spec_error(entry, strcat("unknown action \"", verb, "\""));
    }

    bool have_duration = false;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string param = trim(tokens[i]);
        if (param == "transient") {
            if (site.kind != Kind::kError) {
                spec_error(entry, "\"transient\" only modifies error");
            }
            site.kind = Kind::kTransient;
        } else if (param.rfind("p=", 0) == 0) {
            char* tail = nullptr;
            const std::string value = param.substr(2);
            site.probability = std::strtod(value.c_str(), &tail);
            if (value.empty() || tail == nullptr || *tail != '\0' ||
                !(site.probability >= 0.0 && site.probability <= 1.0)) {
                spec_error(entry, "p= needs a probability in [0, 1]");
            }
        } else if (param.size() > 2 &&
                   param.compare(param.size() - 2, 2, "ms") == 0) {
            std::uint64_t value = 0;
            if (!parse_uint(param.substr(0, param.size() - 2), value)) {
                spec_error(entry, "delay needs \"<integer>ms\"");
            }
            site.delay = std::chrono::milliseconds(value);
            have_duration = true;
        } else {
            spec_error(entry, strcat("unknown parameter \"", param, "\""));
        }
    }
    if (site.kind == Kind::kDelay && !have_duration) {
        spec_error(entry, "delay needs a duration, e.g. delay:50ms");
    }
    if (site.kind != Kind::kDelay && have_duration) {
        spec_error(entry, "a duration only modifies delay");
    }

    site.rng = rng::SplitMix64(rng::mix_seed(seed, fnv1a(name)));
    return {name, site};
}

/// Replace the registry contents under the lock and refresh the
/// fast-path gate + generation.
void
install(std::map<std::string, Site>&& sites)
{
    std::uint64_t active = 0;
    for (auto& [name, site] : sites) {
        site.counter = obs::Registry::global().counter(
            strcat("failpoint.", name, ".hits"));
        if (site.active) {
            ++active;
        }
    }
    std::lock_guard<std::mutex> lock(g_mutex);
    g_sites = std::move(sites);
    g_active_sites.store(active, std::memory_order_relaxed);
    g_generation.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

FailpointAction
fault_point(const char* site)
{
    if (g_active_sites.load(std::memory_order_relaxed) == 0) {
        return FailpointAction::kNone;
    }

    Kind kind;
    std::chrono::milliseconds delay{0};
    std::uint64_t generation = 0;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        const auto it = g_sites.find(site);
        if (it == g_sites.end() || !it->second.active) {
            return FailpointAction::kNone;
        }
        Site& armed = it->second;
        ++armed.hits;
        armed.counter.inc();

        bool fire;
        if (armed.nth != 0) {
            // Nth-hit trigger: fire exactly once, then deactivate so
            // later hits cost the fast-path load only.
            fire = armed.hits == armed.nth;
            if (armed.hits >= armed.nth) {
                armed.active = false;
                g_active_sites.fetch_sub(1, std::memory_order_relaxed);
            }
        } else if (armed.probability < 1.0) {
            const double uniform =
                static_cast<double>(armed.rng.next() >> 11) * 0x1.0p-53;
            fire = uniform < armed.probability;
        } else {
            fire = true;
        }
        if (!fire) {
            return FailpointAction::kNone;
        }

        kind = armed.kind;
        delay = armed.delay;
        generation = g_generation.load(std::memory_order_relaxed);
        if (kind == Kind::kError) {
            throw FaultInjected(strcat("injected fault at ", site));
        }
        if (kind == Kind::kTransient) {
            throw TransientError(
                strcat("injected transient fault at ", site));
        }
        if (kind == Kind::kCorrupt) {
            return FailpointAction::kCorrupt;
        }
    }

    // kDelay: sleep outside the lock, in slices, so cancellation or a
    // reconfiguration (clear() included) cuts a simulated stall short
    // instead of wedging the worker.
    constexpr std::chrono::milliseconds kSlice{5};
    std::chrono::milliseconds left = delay;
    while (left.count() > 0) {
        if (cancellation_requested() ||
            g_generation.load(std::memory_order_relaxed) != generation) {
            break;
        }
        const std::chrono::milliseconds nap = std::min(left, kSlice);
        std::this_thread::sleep_for(nap);
        left -= nap;
    }
    return FailpointAction::kNone;
}

void
FailpointRegistry::configure(const std::string& spec, std::uint64_t seed)
{
    std::map<std::string, Site> sites;
    for (const std::string& raw : split(spec, ';')) {
        if (trim(raw).empty()) {
            continue;
        }
        auto [name, site] = parse_entry(raw, seed);
        sites[name] = site;
    }
    install(std::move(sites));
}

void
FailpointRegistry::configure_from_env()
{
    const char* spec = std::getenv("TGL_FAILPOINTS");
    if (spec == nullptr || *spec == '\0') {
        return;
    }
    std::uint64_t seed = 0;
    if (const char* seed_text = std::getenv("TGL_FAILPOINTS_SEED")) {
        seed = std::strtoull(seed_text, nullptr, 10);
    }
    configure(spec, seed);
    inform(strcat("failpoints armed from TGL_FAILPOINTS: ", spec,
                  " (seed ", seed, ")"));
}

void
FailpointRegistry::clear()
{
    install({});
}

bool
FailpointRegistry::active()
{
    return g_active_sites.load(std::memory_order_relaxed) != 0;
}

std::uint64_t
FailpointRegistry::hits(const std::string& site)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    const auto it = g_sites.find(site);
    return it == g_sites.end() ? 0 : it->second.hits;
}

std::vector<std::string>
FailpointRegistry::armed_sites()
{
    std::vector<std::string> names;
    std::lock_guard<std::mutex> lock(g_mutex);
    for (const auto& [name, site] : g_sites) {
        if (site.active) {
            names.push_back(name);
        }
    }
    return names; // std::map keeps them sorted
}

std::uint64_t
FailpointRegistry::generation()
{
    return g_generation.load(std::memory_order_relaxed);
}

FailAfterStreambuf::int_type
FailAfterStreambuf::overflow(int_type ch)
{
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
        return traits_type::not_eof(ch);
    }
    if (remaining_ == 0) {
        return traits_type::eof();
    }
    --remaining_;
    return inner_->sputc(traits_type::to_char_type(ch));
}

std::streamsize
FailAfterStreambuf::xsputn(const char* data, std::streamsize count)
{
    if (count <= 0) {
        return 0;
    }
    const auto want = static_cast<std::size_t>(count);
    const std::size_t granted = std::min(remaining_, want);
    const std::streamsize forwarded = inner_->sputn(
        data, static_cast<std::streamsize>(granted));
    // Clamp against a misbehaving inner buffer claiming more than it
    // was handed: remaining_ is unsigned, so an unchecked subtraction
    // would wrap the exhausted budget back open.
    const std::size_t accepted = std::min(
        granted,
        static_cast<std::size_t>(std::max<std::streamsize>(forwarded, 0)));
    remaining_ -= accepted;
    // Returning fewer bytes than requested makes the ostream set
    // badbit — exactly how a full disk surfaces through iostreams.
    return static_cast<std::streamsize>(accepted);
}

} // namespace tgl::util
