// Hash functions used by the KV-store (slot hashing, cuckoo hashing) and the
// controller (address-prefix → shard partitioning). Kept header-only: these
// are hot-path one-liners.

#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace jiffy {

// FNV-1a, 64-bit. Stable across platforms, so partition assignments are
// reproducible run-to-run.
inline uint64_t Fnv1a64(std::string_view data, uint64_t seed = 0) {
  uint64_t h = 1469598103934665603ULL ^ seed;
  for (const char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// fmix64 finalizer from MurmurHash3: a full-avalanche 64-bit mix. The cuckoo
// map derives a key's second bucket from Mix64 of its stored hash.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline uint64_t HashKey1(std::string_view key) { return Fnv1a64(key); }

// A KV key with its HashKey1 hash. The client hashes each key once per op
// and passes this through routing, the shard and the cuckoo map, which
// derive slot, fingerprint and both bucket indexes from `hash`. The view
// aliases the caller's bytes.
struct HashedKey {
  HashedKey() = default;
  explicit HashedKey(std::string_view k) : key(k), hash(HashKey1(k)) {}
  HashedKey(std::string_view k, uint64_t h) : key(k), hash(h) {}

  std::string_view key;
  uint64_t hash = 0;
};

}  // namespace jiffy

#endif  // SRC_COMMON_HASH_H_
