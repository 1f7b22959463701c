#pragma once

/// \file store.hpp
/// The durable-state layer: one keyed, versioned, checksummed blob store
/// shared by every persistence site in the tree.
///
/// Every persistence site sits on the two primitives below
/// (`temp_path_for` + `atomic_publish`, `quarantine_corrupt`) and, for
/// keyed blobs, on `store::Store`:
///
///  - the dnn pretrain cache (dnn/cache.cpp, prefix "xpdnn_pretrained"),
///  - the daemon's persistent report store (serve, prefix "xpdnn_report"),
///
/// while xpcore::archive::Writer uses the primitives directly (its payload
/// is one self-describing file, not a keyed set).
///
/// One entry is one file: `<dir>/<prefix>_<fnv1a(key):%016x>.blob`, a
/// 64-byte checksummed header followed by the key bytes and the payload
/// bytes (docs/FILE_FORMATS.md, "Durable store v1"). Integrity follows the
/// archive's discipline: FNV-1a fingerprints, atomic temp+rename commits,
/// and typed corrupt-file misses that quarantine the bad file to
/// `<file>.corrupt` so it stays inspectable. Loads never throw: a corrupt
/// or stale entry is a miss, and the next put repairs it. Writes never
/// throw either — a publish failure surfaces as a structured warning
/// diagnostic (and a false return) instead of being silently swallowed.

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "xpcore/error.hpp"

namespace xpcore {

/// A collision-free temp-file sibling of `path`: pid + process-wide counter
/// suffix keeps concurrent writers — other processes AND other threads of
/// this one — off each other's temp files; last rename wins.
std::string temp_path_for(const std::string& path);

/// THE atomic commit: stream `body` into a temp sibling of `path`, then
/// rename(2) over it, so a concurrent reader observes either the old bytes
/// or the complete new file, never a torn write. Throws xpcore::Error
/// (temp removed) when the temp cannot be opened, the write comes up
/// short, or the rename fails.
void atomic_publish(const std::string& path,
                    const std::function<void(std::ostream&)>& body);

/// THE typed-miss repair: move `path` aside to `<path>.corrupt` so the bad
/// bytes stay inspectable (falling back to removal when the rename fails).
/// Returns false when the file could be neither moved nor removed.
bool quarantine_corrupt(const std::string& path);

namespace store {

/// Bumped on incompatible changes to the blob header layout.
inline constexpr std::uint32_t kFormatVersion = 1;

/// Counters for observability ("store" daemon verb, `xpdnn store`).
struct Stats {
    std::uint64_t entries = 0;        ///< blobs currently indexed
    std::uint64_t payload_bytes = 0;  ///< payload bytes across entries
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;         ///< absent, stale schema, or corrupt
    std::uint64_t puts = 0;           ///< successful publishes
    std::uint64_t put_failures = 0;   ///< publish failures (warned, not thrown)
    std::uint64_t evictions = 0;
    std::uint64_t repairs = 0;        ///< corrupt blobs quarantined
};

struct Config {
    std::string dir;                  ///< store directory (created on demand)
    std::string prefix = "blob";      ///< file-name prefix: one keyed set per prefix
    std::uint32_t schema_version = 1; ///< caller payload schema; mismatch = miss
    std::size_t capacity = 0;         ///< max entries; 0 = unbounded
    /// Warning sink for publish failures and corrupt-file repairs. Default
    /// (unset): one "xpdnn: warning: ..." line on stderr per event.
    std::function<void(const Diagnostic&)> warn;
};

/// A keyed durable blob store. Thread-safe (internal mutex); cross-process
/// safety comes from the atomic_publish discipline, exactly like the
/// archive. Construction scans `dir` for `<prefix>_*.blob` files so
/// capacity eviction and stats see entries from previous runs; blobs that
/// fail the header checksum during the scan are quarantined immediately.
class Store {
public:
    explicit Store(Config config);

    /// The payload stored under `key`, or nullopt on a miss. Misses never
    /// throw: an absent file, a stale schema_version, a foreign key in the
    /// slot (hash collision), and a corrupt blob (quarantined + warned) all
    /// land here so the caller regenerates and `put`s.
    std::optional<std::string> load(const std::string& key);

    /// Durably publish `payload` under `key`, evicting oldest entries past
    /// `capacity`. Returns false — after surfacing a structured warning
    /// diagnostic — when the blob cannot be published; the store never
    /// throws on a write failure (a cache must degrade, not abort).
    bool put(const std::string& key, std::string_view payload);

    /// Drop the entry for `key`. Returns true when a blob was removed.
    bool erase(const std::string& key);

    /// Evict oldest entries (deterministic: lowest sequence first, then
    /// file name) until at most `keep` remain. Returns the evicted count.
    std::size_t evict(std::size_t keep);

    /// Keys of every indexed entry, oldest first (eviction order).
    std::vector<std::string> keys() const;

    /// The blob file path `key` maps to (whether or not it exists).
    std::string path_for(const std::string& key) const;

    Stats stats() const;
    const Config& config() const { return config_; }

private:
    struct Entry {
        std::string key;
        std::string file;             ///< file name within dir
        std::uint64_t sequence = 0;   ///< monotonic put order (eviction key)
        std::uint64_t payload_size = 0;
    };

    void warn(const std::string& source, const std::string& message) const;
    void scan();
    std::size_t find_locked(const std::string& key) const;
    std::size_t evict_locked(std::size_t keep);

    Config config_;
    mutable std::mutex mutex_;
    std::vector<Entry> entries_;      ///< sorted oldest-first
    std::uint64_t next_sequence_ = 1;
    mutable Stats stats_;
};

}  // namespace store
}  // namespace xpcore
