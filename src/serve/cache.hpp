#pragma once

/// \file cache.hpp
/// The sscl-serve elaboration cache: a bounded LRU of elaborated decks
/// keyed by the canonical token-stream hashes of netlist/hash.hpp
/// (docs/SERVE.md). Three tiers:
///
///   * elaboration hit — the full hash matches a resident entry. The
///     cached Deck and Engine are reused as-is: no lexing beyond the
///     hash probe, no parse, no elaboration, no lint, no pattern pass,
///     and the sparse symbolic factorisation from the entry's previous
///     runs replays directly (Engine::reset_runtime makes the rerun
///     bit-identical to a cold one).
///   * pattern hit — only the structural hash matches (typically a
///     `.param` value edit). The deck re-elaborates, but the fresh
///     engine adopts the donor's pivot sequence
///     (LinearSystem::adopt_factorization), skipping the first full
///     pivoting factorisation. Numerically this is Newton-tolerance
///     reproducible, not bit-identical; ElabCache::Options::adopt
///     opts out.
///   * miss — full front-end: lex, parse, elaborate, lint, pattern
///     pass, first solve factors from scratch.
///
/// Entries carry a per-entry run mutex: concurrent submissions of the
/// same deck serialize on it (the Engine is stateful), while different
/// decks run concurrently. Eviction only unlinks the entry from the
/// index; in-flight jobs keep it alive through their shared_ptr.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/hash.hpp"
#include "netlist/netlist.hpp"
#include "spice/engine.hpp"

namespace sscl::serve {

/// Which cache tier satisfied a lookup.
enum class CacheTier { kMiss, kPatternHit, kElabHit };

/// Protocol/metrics label: "cold", "pattern" or "elab".
const char* cache_tier_name(CacheTier tier);

/// Monotonic cache accounting (snapshot via ElabCache::stats()).
struct CacheStats {
  long long hits_elab = 0;
  long long hits_pattern = 0;
  long long misses = 0;
  long long evictions = 0;
  long long entries = 0;  ///< resident now (gauge, not monotonic)
};

/// One resident deck: the elaborated Deck, its Engine and the run lock
/// that serializes jobs touching the shared engine state.
class CacheEntry {
 public:
  CacheEntry(netlist::TokenHashes hashes, netlist::Deck deck,
             const spice::SolverOptions& solver)
      : hashes_(hashes),
        deck_(std::move(deck)),
        engine_(std::make_unique<spice::Engine>(*deck_.circuit, solver)) {}

  const netlist::TokenHashes& hashes() const { return hashes_; }
  netlist::Deck& deck() { return deck_; }
  const netlist::Deck& deck() const { return deck_; }
  spice::Engine& engine() { return *engine_; }

  /// Hold while running analyses on engine(); also held briefly by the
  /// cache while a structural sibling adopts this entry's pivots.
  std::mutex& run_mutex() { return run_mutex_; }

 private:
  netlist::TokenHashes hashes_;
  netlist::Deck deck_;
  std::unique_ptr<spice::Engine> engine_;  // references deck_.circuit
  std::mutex run_mutex_;
};

using CacheEntryPtr = std::shared_ptr<CacheEntry>;

/// Bounded LRU of elaborated decks, thread-safe. See file comment for
/// the tier semantics.
class ElabCache {
 public:
  struct Options {
    int capacity = 32;  ///< resident entries (>= 1; --cache-entries)
    bool adopt = true;  ///< pattern tier on structural match (--no-adopt)
    netlist::ParseOptions parse;
    spice::SolverOptions solver;
  };

  struct Lookup {
    CacheEntryPtr entry;
    CacheTier tier = CacheTier::kMiss;
  };

  explicit ElabCache(Options options);

  /// Resolve \p deck_text to a resident entry, elaborating on demand.
  /// Throws netlist::NetlistError / lint::LintError on malformed decks
  /// (nothing is inserted in that case). The returned entry stays valid
  /// after eviction; callers lock entry->run_mutex() before running.
  Lookup acquire(const std::string& deck_text);

  CacheStats stats() const;
  int capacity() const { return options_.capacity; }

 private:
  struct Slot {
    CacheEntryPtr entry;
    std::list<std::uint64_t>::iterator lru_it;
  };

  /// Drops least-recently used entries past capacity from the index,
  /// moving them into \p victims: acquire() tears them down after it
  /// releases mu_, so no lookup waits for another deck's teardown.
  void evict_excess_locked(std::vector<CacheEntryPtr>& victims);

  Options options_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Slot> by_full_;
  /// Most recently inserted entry per structural hash (pattern donor).
  std::unordered_map<std::uint64_t, std::weak_ptr<CacheEntry>> by_structural_;
  std::list<std::uint64_t> lru_;  ///< front = most recent
  CacheStats stats_;
};

}  // namespace sscl::serve
