#include "serve/cache.hpp"

#include <stdexcept>
#include <utility>

#include "netlist/ast.hpp"
#include "trace/trace.hpp"

namespace sscl::serve {

const char* cache_tier_name(CacheTier tier) {
  switch (tier) {
    case CacheTier::kElabHit:
      return "elab";
    case CacheTier::kPatternHit:
      return "pattern";
    case CacheTier::kMiss:
      break;
  }
  return "cold";
}

ElabCache::ElabCache(Options options) : options_(std::move(options)) {
  if (options_.capacity < 1) {
    throw std::invalid_argument("ElabCache: capacity must be >= 1");
  }
}

ElabCache::Lookup ElabCache::acquire(const std::string& deck_text) {
  // The hash probe is the only front-end work a warm hit pays: one lex
  // pass, no AST, no elaboration.
  trace::Span lex_span("serve.lex+hash", "serve");
  netlist::LexOptions lex_options;
  lex_options.include_loader = options_.parse.include_loader;
  netlist::LexResult lexed =
      netlist::lex_deck(deck_text, options_.parse.name, lex_options);
  const netlist::TokenHashes hashes = netlist::hash_tokens(lexed);

  CacheEntryPtr donor;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_full_.find(hashes.full);
    if (it != by_full_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      ++stats_.hits_elab;
      return {it->second.entry, CacheTier::kElabHit};
    }
    if (options_.adopt) {
      auto sit = by_structural_.find(hashes.structural);
      if (sit != by_structural_.end()) donor = sit->second.lock();
    }
  }

  // Cold path, outside the index lock so one slow elaboration never
  // stalls unrelated lookups. A concurrent miss on the same key builds
  // twice and keeps the first insert; both count as misses.
  trace::Span elab_span("serve.elaborate", "serve");
  netlist::Deck deck =
      netlist::elaborate(netlist::build_ast(std::move(lexed)), options_.parse);
  auto entry =
      std::make_shared<CacheEntry>(hashes, std::move(deck), options_.solver);

  CacheTier tier = CacheTier::kMiss;
  // Declared before the index lock below, so the evicted entries' Deck
  // and Engine are torn down after it is released.
  std::vector<CacheEntryPtr> evicted;
  if (donor) {
    // The donor only helps once it has solved something. Lock its run
    // mutex so a job mid-solve cannot swap the pivot sequence under the
    // copy.
    std::lock_guard<std::mutex> donor_lock(donor->run_mutex());
    if (donor->engine().linear_system().has_symbolic_factorization()) {
      entry->engine().linear_system().adopt_factorization(
          donor->engine().linear_system());
      tier = CacheTier::kPatternHit;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tier == CacheTier::kPatternHit) {
      ++stats_.hits_pattern;
    } else {
      ++stats_.misses;
    }
    auto it = by_full_.find(hashes.full);
    if (it != by_full_.end()) {
      // Lost a build race; the resident entry wins (its run mutex is
      // what serializes same-deck jobs).
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return {it->second.entry, tier};
    }
    lru_.push_front(hashes.full);
    by_full_.emplace(hashes.full, Slot{entry, lru_.begin()});
    by_structural_[hashes.structural] = entry;
    evict_excess_locked(evicted);
  }
  return {entry, tier};
}

void ElabCache::evict_excess_locked(std::vector<CacheEntryPtr>& victims) {
  while (by_full_.size() > static_cast<std::size_t>(options_.capacity)) {
    const std::uint64_t victim = lru_.back();
    auto it = by_full_.find(victim);
    // Drop the structural donor slot only if it still points at the
    // victim (a newer sibling may have replaced it).
    auto sit = by_structural_.find(it->second.entry->hashes().structural);
    if (sit != by_structural_.end() &&
        sit->second.lock() == it->second.entry) {
      by_structural_.erase(sit);
    }
    victims.push_back(std::move(it->second.entry));
    by_full_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

CacheStats ElabCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  s.entries = static_cast<long long>(by_full_.size());
  return s;
}

}  // namespace sscl::serve
