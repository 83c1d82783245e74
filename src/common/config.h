// System-wide configuration knobs (paper §6: defaults 128 MB blocks, 1 s
// leases, 5 %/95 % repartition thresholds, H=1024 KV hash slots).
//
// The reproduction scales sizes down by a constant factor so experiments run
// on one machine; every paper metric we reproduce is a ratio, so the factor
// cancels (see DESIGN.md §3).

#ifndef SRC_COMMON_CONFIG_H_
#define SRC_COMMON_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/common/clock.h"

namespace jiffy {

// How a lease renewal propagates through the address DAG (§3.2, Fig 5).
// kPaper is Jiffy's design; the others exist for the ablation bench.
enum class LeasePropagation : uint8_t {
  kNone = 0,         // Renew only the named prefix.
  kParentsOnly = 1,  // Prefix + immediate parents.
  kPaper = 2,        // Prefix + immediate parents + all descendants (Fig 5).
};

struct JiffyConfig {
  // Fixed block size in bytes: Jiffy's unit of allocation (paper default
  // 128 MB; scaled default here 1 MiB — the same ×2 ladder as Fig 14(a)
  // applies relative to workload sizes).
  size_t block_size_bytes = 1 << 20;

  // Lease duration: data under an address prefix is kept in memory only as
  // long as its lease keeps being renewed (paper default 1 s).
  DurationNs lease_duration = 1 * kSecond;

  // How often the lease expiry worker scans the address hierarchies.
  DurationNs lease_scan_period = 250 * kMillisecond;

  // Lease renewal fan-out policy (ablation knob; kPaper is Jiffy's design).
  LeasePropagation lease_propagation = LeasePropagation::kPaper;

  // Data repartitioning thresholds as fractions of block capacity: usage
  // above `high` triggers allocation of a new block + split; usage below
  // `low` triggers a merge + deallocation (paper defaults 0.95 / 0.05).
  double repartition_high_threshold = 0.95;
  double repartition_low_threshold = 0.05;

  // Number of KV-store hash slots (paper default H=1024). A slot is wholly
  // owned by one block.
  uint32_t kv_hash_slots = 1024;

  // Maximum bytes moved per chunk during a chunked migration. The per-chunk
  // lock hold — the only window concurrent ops wait on — is bounded by this.
  size_t repartition_chunk_bytes = 64 << 10;

  // Number of memory servers in the data plane and blocks hosted per server.
  uint32_t num_memory_servers = 10;
  uint32_t blocks_per_server = 256;

  // Number of controller shards (cores). Address hierarchies and blocks are
  // hash-partitioned across shards (§4.2.1).
  uint32_t controller_shards = 1;

  // Emulated CPU service time per control-plane request (busy-wait). The
  // paper's Thrift-based controller saturates at ~42 KOps/core (~24 us/op);
  // in-process calls are far cheaper, so Fig 12 sets this to reproduce the
  // saturation shape. 0 = no emulation (default).
  DurationNs controller_service_time = 0;

  // When true the service time sleeps instead of busy-waiting. Busy-wait
  // (default) models a CPU-bound controller, the right choice when the host
  // has enough cores; sleeping lets shard-independence be demonstrated on
  // hosts with fewer cores than shards.
  bool controller_service_sleeps = false;

  // --- Replicated control plane (DESIGN.md §14) -----------------------------

  // Controller replicas per shard. 1 (default) = no replication: the single
  // controller mutates its metadata directly, exactly the pre-§14 behavior.
  // >= 3 = a Raft-style group per shard: mutations quorum-commit through a
  // metadata log before they are acknowledged, lookups and lease renewals
  // stay local on the leaseholding leader, and killing the leader loses
  // nothing committed.
  uint32_t controller_replicas = 1;

  // Election timeout: a replica that hears nothing from a leader for this
  // long starts an election. Heartbeats are sent at rsm_heartbeat_period
  // (must be well under the election timeout).
  DurationNs rsm_election_timeout = 150 * kMillisecond;
  DurationNs rsm_heartbeat_period = 40 * kMillisecond;

  // Leader read-lease window: each successful quorum contact lets the leader
  // answer reads locally for this long without re-consulting the group.
  // Safety requires it <= rsm_election_timeout (a new leader cannot be
  // elected while a previous leader may still be serving leased reads).
  DurationNs rsm_read_lease = 100 * kMillisecond;

  // Log-compaction threshold: once the applied prefix of the metadata log
  // exceeds this many entries, the leader snapshots the controller state
  // (Controller::Snapshot stamped with the applied index) and truncates.
  uint64_t rsm_snapshot_threshold = 512;

  // Total data-plane capacity implied by this configuration.
  size_t TotalCapacityBytes() const {
    return static_cast<size_t>(num_memory_servers) * blocks_per_server *
           block_size_bytes;
  }
  uint32_t TotalBlocks() const { return num_memory_servers * blocks_per_server; }
};

}  // namespace jiffy

#endif  // SRC_COMMON_CONFIG_H_
