// NtRuntime: the per-process Win32-like API surface.
//
// Reproduces the specific NT behaviours the paper's implementation
// experience (§3.1) turns on:
//   * threads created at startup ("statically generated kernel objects")
//     are enumerable and their context is capturable via documented APIs;
//   * threads created dynamically via CreateThread are NOT reachable via
//     documented APIs — OpenThread on them fails, and the performance
//     counter reports an NTDLL stub as their start address ("just
//     misleading");
//   * hooking the Import Address Table entry for CreateThread (what the
//     FTIM does) is the only way to learn their handles.
//
// Also provides NT events and waitable timers, which back the OFTT
// reliable-watchdog objects.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nt/memory.h"
#include "nt/task.h"
#include "sim/process.h"
#include "sim/timer.h"

namespace oftt::nt {

/// The documented start address the performance monitor reports for a
/// dynamically created thread: a routine inside NTDLL.DLL, not the real
/// entry point (paper ref [12]).
constexpr std::uint64_t kNtdllThreadStartStub = 0x77f0'0000'0000'1a2bull;

/// Manual-reset event (SetEvent/ResetEvent + async waiters).
class NtEvent {
 public:
  explicit NtEvent(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  bool is_set() const { return set_; }

  void set() {
    set_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto& w : waiters) w();
  }
  void reset() { set_ = false; }

  /// Invoke `fn` when the event becomes set (immediately if already set).
  void wait_async(std::function<void()> fn) {
    if (set_) {
      fn();
    } else {
      waiters_.push_back(std::move(fn));
    }
  }

 private:
  std::string name_;
  bool set_ = false;
  std::vector<std::function<void()>> waiters_;
};

/// Waitable timer: one-shot or periodic callback on a strand.
class WaitableTimer {
 public:
  explicit WaitableTimer(sim::Strand& strand) : strand_(&strand) {}

  void set(sim::SimTime due, sim::SimTime period, std::function<void()> fn) {
    cancel();
    fn_ = std::move(fn);
    period_ = period;
    const std::uint64_t gen = generation_;
    strand_->schedule_after(due, [this, gen] { fire(gen); });
    armed_ = true;
  }

  void cancel() {
    ++generation_;
    armed_ = false;
  }
  bool armed() const { return armed_; }

 private:
  void fire(std::uint64_t gen) {
    if (gen != generation_) return;
    if (period_ > 0) {
      strand_->schedule_after(period_, [this, gen] { fire(gen); });
    } else {
      armed_ = false;
    }
    fn_();
  }

  sim::Strand* strand_;
  std::function<void()> fn_;
  sim::SimTime period_ = 0;
  bool armed_ = false;
  std::uint64_t generation_ = 0;
};

class NtRuntime {
 public:
  using CreateThreadFn =
      std::function<Task&(const std::string& name, std::uint64_t start_address)>;

  explicit NtRuntime(sim::Process& process);

  sim::Process& process() { return *process_; }
  MemorySpace& memory() { return memory_; }

  /// Attach (or get) the runtime for a process.
  static NtRuntime& of(sim::Process& process) { return process.attachment<NtRuntime>(process); }

  // --- thread creation ---

  /// Threads the loader creates at image start; always discoverable.
  Task& create_thread_static(const std::string& name, std::uint64_t start_address);

  /// The Win32 CreateThread import: dispatches through the IAT slot, so
  /// an installed hook sees the call. Without a hook the new thread is
  /// NOT discoverable through documented APIs.
  Task& CreateThread(const std::string& name, std::uint64_t start_address);

  /// IAT interception: replace the CreateThread slot; returns the
  /// original (the hook must chain to it to actually create the thread).
  CreateThreadFn hook_create_thread(CreateThreadFn wrapper);
  bool create_thread_hooked() const { return hooked_; }

  // --- documented enumeration APIs ---

  /// All live thread ids (the kernel knows them all — like toolhelp).
  std::vector<std::uint32_t> enumerate_thread_ids() const;

  /// OpenThread analogue: returns the Task only when its handle is
  /// obtainable through documented means (statically created threads).
  Task* open_thread(std::uint32_t tid);

  /// Performance-counter view of a thread's start address — the NTDLL
  /// stub for dynamic threads (misleading, per the paper).
  std::uint64_t perf_counter_start_address(std::uint32_t tid) const;

  /// Kernel-internal view (not available to applications; used by tests
  /// to assert what checkpoints *should* have contained).
  std::vector<Task*> all_tasks();
  Task* find_task_by_name(const std::string& name);

  // --- kernel objects ---
  NtEvent& create_event(const std::string& name);
  std::unique_ptr<WaitableTimer> create_waitable_timer(sim::Strand& strand) {
    return std::make_unique<WaitableTimer>(strand);
  }

 private:
  Task& make_task(const std::string& name, std::uint64_t start_address, bool statically_created);

  sim::Process* process_;
  MemorySpace memory_;
  std::uint32_t next_tid_ = 0x100;
  std::vector<std::unique_ptr<Task>> tasks_;
  CreateThreadFn create_thread_slot_;  // the IAT entry
  bool hooked_ = false;
  std::map<std::string, std::unique_ptr<NtEvent>> events_;
};

}  // namespace oftt::nt
