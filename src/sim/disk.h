// DiskStore: per-node persistent storage that survives process death and
// node reboot (but is unreachable while the node is down) — the
// simulated hard disk. MSMQ recoverable messages, the durable
// checkpoint/message journal (src/store/), and OFTT persistent role
// hints live here.
//
// Writes are accounted per node and can be made to fail like a full
// disk: set_capacity() caps a node's used bytes, and fail_writes() is
// the chaos hook that rejects every write outright (a dying disk).
#pragma once

#include <algorithm>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "sim/simulation.h"

namespace oftt::sim {

class DiskStore {
 public:
  static DiskStore& of(Simulation& sim) { return sim.attachment<DiskStore>(); }

  /// Store `value` under (node, key). Returns false — and stores
  /// nothing — when the node's disk is failed or the write would push
  /// used bytes past the node's capacity (a full disk: the existing
  /// value stays intact, exactly like a failed overwrite on NTFS).
  bool write(int node, const std::string& key, Buffer value) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& acct = accounts_[node];
    if (acct.fail_writes) return false;
    auto it = data_.find({node, key});
    std::size_t old_bytes = it != data_.end() ? it->second.size() : 0;
    if (acct.capacity != 0 &&
        acct.used_bytes - old_bytes + value.size() > acct.capacity) {
      return false;
    }
    acct.used_bytes = acct.used_bytes - old_bytes + value.size();
    data_[{node, key}] = std::move(value);
    return true;
  }
  /// Keep the first `at` bytes of the value under (node, key) and append
  /// `bytes` after them — an append at a known-good offset, which also
  /// truncates whatever followed `at` (a torn tail). A missing key reads
  /// as empty. All or nothing under the same rules as write(): a failed
  /// disk, a full disk, or `at` past the end of the value refuses the
  /// write and leaves the value untouched.
  ///
  /// The appended bytes are gathered from `parts` in order (a record
  /// header and its payload), each copied once, straight into the value.
  bool write_at(int node, const std::string& key, std::size_t at,
                std::initializer_list<ByteView> parts) {
    std::size_t n = 0;
    for (ByteView p : parts) n += p.size();
    std::lock_guard<std::mutex> lock(mu_);
    auto& acct = accounts_[node];
    if (acct.fail_writes) return false;
    auto it = data_.find({node, key});
    std::size_t old_bytes = it != data_.end() ? it->second.size() : 0;
    if (at > old_bytes) return false;
    if (acct.capacity != 0 && acct.used_bytes - old_bytes + at + n > acct.capacity) {
      return false;
    }
    acct.used_bytes = acct.used_bytes - old_bytes + at + n;
    Buffer& value = it != data_.end() ? it->second : data_[{node, key}];
    value.resize(at);
    // Grow once for all parts, geometrically so that a run of small
    // appends stays amortized O(1).
    if (value.capacity() < at + n) value.reserve(std::max(at + n, 2 * value.capacity()));
    for (ByteView p : parts) value.insert(value.end(), p.begin(), p.end());
    return true;
  }
  bool write_at(int node, const std::string& key, std::size_t at, ByteView bytes) {
    return write_at(node, key, at, {bytes});
  }
  std::optional<Buffer> read(int node, const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = data_.find({node, key});
    if (it == data_.end()) return std::nullopt;
    return it->second;
  }
  /// The value under (node, key) read in place, or nullopt. The view
  /// stays valid until that key is next written or erased: keys are
  /// per node and only the node's own code touches them, so a node
  /// reading its journal cannot race a writer.
  std::optional<ByteView> view(int node, const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = data_.find({node, key});
    if (it == data_.end()) return std::nullopt;
    return ByteView(it->second);
  }
  void erase(int node, const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = data_.find({node, key});
    if (it == data_.end()) return;
    accounts_[node].used_bytes -= it->second.size();
    data_.erase(it);
  }

  /// Erase every key of a node starting with `prefix`; returns bytes
  /// reclaimed. This is what journal compaction uses to retire whole
  /// segments.
  std::size_t erase_prefix(int node, const std::string& prefix) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t reclaimed = 0;
    auto it = data_.lower_bound({node, prefix});
    while (it != data_.end() && it->first.first == node &&
           it->first.second.rfind(prefix, 0) == 0) {
      reclaimed += it->second.size();
      it = data_.erase(it);
    }
    accounts_[node].used_bytes -= reclaimed;
    return reclaimed;
  }

  std::vector<std::string> keys_with_prefix(int node, const std::string& prefix) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    for (auto it = data_.lower_bound({node, prefix}); it != data_.end(); ++it) {
      if (it->first.first != node || it->first.second.rfind(prefix, 0) != 0) break;
      out.push_back(it->first.second);
    }
    return out;
  }

  /// Bytes currently stored for a node (sum of value sizes).
  std::size_t used_bytes(int node) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = accounts_.find(node);
    return it != accounts_.end() ? it->second.used_bytes : 0;
  }

  /// Cap a node's disk at `bytes` (0 = unlimited). Writes that would
  /// exceed the cap fail; existing data is never truncated.
  void set_capacity(int node, std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    accounts_[node].capacity = bytes;
  }
  std::size_t capacity(int node) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = accounts_.find(node);
    return it != accounts_.end() ? it->second.capacity : 0;
  }

  /// Chaos hook: make every write on `node` fail (FaultPlan::disk_full).
  void fail_writes(int node, bool fail) {
    std::lock_guard<std::mutex> lock(mu_);
    accounts_[node].fail_writes = fail;
  }
  bool writes_failing(int node) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = accounts_.find(node);
    return it != accounts_.end() && it->second.fail_writes;
  }

 private:
  struct Account {
    std::size_t used_bytes = 0;
    std::size_t capacity = 0;  // 0 = unlimited
    bool fail_writes = false;
  };
  // The map structure is shared across nodes even though every key is
  // per-node: parallel-engine workers mutate concurrently, so the whole
  // store is mutex-guarded. Values are copied out under the lock.
  mutable std::mutex mu_;
  std::map<std::pair<int, std::string>, Buffer> data_;
  std::map<int, Account> accounts_;
};

}  // namespace oftt::sim
